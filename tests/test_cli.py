import argparse
import os
import pathlib
import re

import numpy as np
import pytest

import cutgap
from cutgap import metrics as mt
from cutgap import quotient as qt
from cutgap import separator as sp
from cutgap import unique_games as ug
from cutgap.cli import _parser, main
from cutgap.config import SEED_PURPOSE, RunConfig, derive_seed, parse_config_file
from cutgap.metrics import FiniteMetric, metric_to_text
from cutgap.tensor import INNER_POWER_LIMIT
from cutgap.unique_games import ug_to_text
from cutgap.verifier import Proof, dictator_tables, proof_to_text
from fixtures import plant_instance


def read(path):
    with open(path) as fh:
        return fh.read()


def test_config_parsing_and_validation(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("k = 3\neta = 0.2  # comment\nwindow = typical\n")
    kwargs = parse_config_file(cfg_file.read_text())
    cfg = RunConfig(**kwargs).validate()
    assert cfg.k == 3 and cfg.eta == 0.2
    with pytest.raises(ValueError):
        RunConfig(t=2).validate()
    with pytest.raises(ValueError):
        RunConfig(l_in=3).validate()
    with pytest.raises(ValueError):
        parse_config_file("unknown = 1")
    with pytest.raises(ValueError, match=r"^line 2: invalid literal for int\(\)"):
        parse_config_file("eta = 0.2\nk = two\n")
    assert derive_seed(5, "opt_search") == 5 * 1009 + 1


def test_inner_power_limit_bounds_config_and_assignment():
    RunConfig(l_in=INNER_POWER_LIMIT).validate()
    with pytest.raises(ValueError, match=r"in \[2, 16\]"):
        RunConfig(l_in=18).validate()
    u, q, _ = qt.build_kv_instance(2, 0.3)
    with pytest.raises(ValueError, match="INNER_POWER_LIMIT"):
        sp.assign_sdp_solution(sp.build_bes(u, 0.3), qt.build_ug_sdp_solution(q), l_in=18)


def test_every_seed_purpose_is_derived_in_the_package():
    # a purpose code that no derive_seed call names is a dead entry in the
    # documented seed contract; codes must stay distinct
    package = pathlib.Path(cutgap.__file__).parent
    text = "".join(p.read_text() for p in sorted(package.glob("*.py")))
    named = set(re.findall(r'derive_seed\([^()"]*"(\w+)"\)', text))
    assert named == set(SEED_PURPOSE)
    assert len(set(SEED_PURPOSE.values())) == len(SEED_PURPOSE)


def test_build_ug_deterministic_outputs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main([
            "build-ug", "--k", "2", "--eta", "0.25", "--seed", "7",
            "--budget-triples", "5000", "--out", str(out),
        ])
        assert code == 0
    for name in ("ug_instance.txt", "basis.txt", "ug_report.tsv", "summary.txt"):
        assert read(out_a / name) == read(out_b / name)


def test_build_ug_window_error(tmp_path, capsys):
    code = main(["build-ug", "--k", "2", "--eta", "0.05", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL build-ug" in capsys.readouterr().out


def test_build_ug_invalid_k(tmp_path, capsys):
    code = main(["build-ug", "--k", "9", "--eta", "0.2", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().out == "FAIL build-ug k=9 outside [1, 3]\n"


def test_build_bes_pipeline_and_gap_row(tmp_path):
    import time

    started = time.time()
    out = tmp_path / "run"
    code = main([
        "build-ug", "--k", "2", "--eta", "0.3", "--seed", "3",
        "--budget-triples", "5000", "--out", str(out),
    ])
    assert code == 0
    code = main([
        "build-bes", "--k", "2", "--eta", "0.3", "--epsilon", "0.3",
        "--t", "1", "--seed", "3", "--budget-triples", "5000",
        "--ug-file", str(out / "ug_instance.txt"), "--out", str(out),
    ])
    assert code == 0
    assert time.time() - started < 60.0  # the k=2 end-to-end budget
    rows = read(out / "gap_row.tsv").strip().splitlines()
    header = rows[1].split("\t")
    assert header == ["k", "eta", "epsilon", "t", "sdp_objective",
                      "best_cut_weight", "ratio", "balance"]
    values = rows[2].split("\t")
    assert values[0] == "2"
    assert float(values[7]) <= 5 / 6 + 1e-9
    cut_lines = read(out / "best_cut.txt").split()
    assert len(cut_lines) == 64 and set(cut_lines) <= {"1", "-1"}


def test_build_bes_deterministic_outputs(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "build-bes", "--k", "2", "--eta", "0.3", "--epsilon", "0.2",
            "--t", "1", "--seed", "9", "--budget-triples", "2000",
            "--budget-samples", "2000", "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    for name in ("bes_instance.txt", "gap_row.tsv", "best_cut.txt", "bes_summary.txt"):
        assert read(outs[0] / name) == read(outs[1] / name)


def test_build_bes_missing_ug_file(tmp_path, capsys):
    code = main([
        "build-bes", "--k", "2", "--eta", "0.3", "--epsilon", "0.3",
        "--ug-file", str(tmp_path / "nope.txt"), "--out", str(tmp_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL build-bes ") and "nope.txt" in out


@pytest.mark.parametrize("ug_flags, bes_flags, named", [
    (["--k", "2", "--eta", "0.3"], ["--k", "2", "--eta", "0.2"], "k=2 eta=0.2 window=typical"),
    (["--k", "2", "--eta", "0.3", "--window", "none"], ["--k", "2", "--eta", "0.3"],
     "k=2 eta=0.3 window=typical"),
    (["--k", "1", "--eta", "0.3"], ["--k", "2", "--eta", "0.3"], "k=2 eta=0.3 window=typical"),
], ids=["eta", "window", "k"])
def test_build_bes_rejects_the_ug_file_of_another_instance(tmp_path, capsys, ug_flags,
                                                           bes_flags, named):
    # the file must be the configured instance byte for byte; a gap row of
    # one instance must never be written under another's parameters
    ug_file = tmp_path / "ug" / "ug_instance.txt"
    # (with no window, build-ug writes the instance and then fails its
    # closeness check)
    main(["build-ug", *ug_flags, "--out", str(ug_file.parent)])
    assert ug_file.exists()
    capsys.readouterr()
    out = tmp_path / "bes"
    code = main(["build-bes", *bes_flags, "--epsilon", "0.3", "--ug-file", str(ug_file),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL build-bes {ug_file} is not the UG instance of {named}"]
    assert not out.exists()


def test_build_seeds_follow_the_splitting_scheme(tmp_path, monkeypatch):
    # --budget-labelings 1 forces opt_search in both commands; each random
    # sub-run draws from its own derive_seed purpose code
    seed = 4
    calls = []
    search = ug.opt_search

    def record_search(inst, seed, **kwargs):
        calls.append(("opt_search", seed))
        return search(inst, seed=seed, **kwargs)

    monkeypatch.setattr(ug, "opt_search", record_search)
    out = tmp_path / "run"
    common = ["--k", "2", "--eta", "0.3", "--seed", str(seed), "--budget-labelings", "1",
              "--budget-triples", "2000", "--out", str(out)]
    assert main(["build-ug", *common]) == 0
    assert main(["build-bes", *common, "--epsilon", "0.3", "--budget-samples", "2000",
                 "--ug-file", str(out / "ug_instance.txt")]) == 0
    assert calls == [
        ("opt_search", derive_seed(seed, "opt_search")),
        ("opt_search", derive_seed(seed, "opt_search")),
    ]
    report = dict(ln.split("\t", 1) for ln in read(out / "ug_report.tsv").splitlines()[1:])
    lam = [int(v) for v in report["opt_labeling"].split()]
    summary = read(out / "bes_summary.txt").split("candidates: ")[1].strip()
    weights = dict(c.split("=") for c in summary.split("; "))
    inst = sp.build_bes(ug.ug_from_text(read(out / "ug_instance.txt")), 0.3)
    dictator = sp.cut_edge_weight(inst, dictator_tables(lam, 4).ravel())
    assert float(weights["labeling_0"].split("@")[0]) == dictator


def test_build_bes_finds_its_shared_work_once(tmp_path, monkeypatch):
    # at k = 3 the instance file embeds the UG text, which the --ug-file
    # check has already formatted; both SDP checks read one finding of the
    # Gram table's distinct rows
    out = tmp_path / "run"
    common = ["--k", "3", "--eta", "0.3", "--out", str(out)]
    assert main(["build-ug", *common]) == 0
    calls = {"_distinct_rows": 0, "ug_to_text": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sp, "_distinct_rows", counted("_distinct_rows", sp._distinct_rows))
    to_text = counted("ug_to_text", ug.ug_to_text)
    monkeypatch.setattr(ug, "ug_to_text", to_text)
    monkeypatch.setattr(sp, "ug_to_text", to_text)
    assert main(["build-bes", *common, "--epsilon", "0.3",
                 "--ug-file", str(out / "ug_instance.txt")]) == 0
    assert calls == {"_distinct_rows": 1, "ug_to_text": 1}
    head, ug_text = read(out / "bes_instance.txt").split("\n", 1)
    assert head.endswith(" params") and ug_text == read(out / "ug_instance.txt")


def test_verify_detects_tampered_weight(tmp_path, capsys):
    out = tmp_path / "run"
    main(["build-ug", "--k", "2", "--eta", "0.25", "--seed", "1",
          "--budget-triples", "2000", "--out", str(out)])
    text = read(out / "ug_instance.txt")
    lines = text.splitlines()
    parts = lines[1].split()
    parts[2] = "0.5"  # tamper one weight: the sum is no longer 1
    lines[1] = " ".join(parts)
    bad = out / "tampered.txt"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--ug-file", str(bad)])
    assert code == 1
    assert "FAIL ug_structure" in capsys.readouterr().out


def test_verify_detects_corrupted_basis(tmp_path, capsys):
    out = tmp_path / "run"
    main(["build-ug", "--k", "2", "--eta", "0.25", "--seed", "1",
          "--budget-triples", "2000", "--out", str(out)])
    text = read(out / "basis.txt").splitlines()
    # flip one entry of one basis row: orthonormality breaks
    row = text[2].split()
    row[0] = str(-int(row[0]))
    text[2] = " ".join(row)
    bad = out / "bad_basis.txt"
    bad.write_text("\n".join(text) + "\n")
    code = main(["verify", "--ug-file", str(out / "ug_instance.txt"),
                 "--basis-file", str(bad)])
    assert code == 1
    assert "FAIL basis_orthonormality" in capsys.readouterr().out


def test_verify_clean_artifacts_pass(tmp_path, capsys):
    out = tmp_path / "run"
    main(["build-ug", "--k", "2", "--eta", "0.3", "--seed", "2",
          "--budget-triples", "2000", "--out", str(out)])
    code = main(["verify", "--ug-file", str(out / "ug_instance.txt"),
                 "--basis-file", str(out / "basis.txt")])
    assert code == 0
    got = capsys.readouterr().out
    assert "OK ug_relabel_invariance" in got
    assert "OK ug_expansion_identity" in got


def test_verify_builds_the_label_extended_graph_once(tmp_path, capsys, monkeypatch):
    # the three expansion-identity labelings share one graph
    out = tmp_path / "run"
    main(["build-ug", "--k", "2", "--eta", "0.3", "--seed", "2",
          "--budget-triples", "2000", "--out", str(out)])
    built = []
    make = ug.label_extended_graph
    monkeypatch.setattr(ug, "label_extended_graph", lambda u: built.append(1) or make(u))
    assert main(["verify", "--ug-file", str(out / "ug_instance.txt")]) == 0
    assert built == [1] and "OK ug_expansion_identity" in capsys.readouterr().out


def test_pcp_command(tmp_path, capsys):
    u, hidden = plant_instance(6, 3, 0.1, 0.8, seed=0)
    ug_file = tmp_path / "ug.txt"
    ug_file.write_text(ug_to_text(u))
    proof_file = tmp_path / "proof.txt"
    proof_file.write_text(proof_to_text(Proof(3, dictator_tables(hidden, 3))))
    code = main([
        "pcp", "--ug-file", str(ug_file), "--proof-file", str(proof_file),
        "--epsilon", "0.2", "--samples", "20000", "--seed", "1",
    ])
    assert code == 0
    got = capsys.readouterr().out
    assert "acceptance_exact" in got and "decoded_value" in got


def test_distortion_command(tmp_path, capsys):
    d = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], float)
    mfile = tmp_path / "metric.txt"
    mfile.write_text(metric_to_text(FiniteMetric(d)))
    code = main(["distortion", "--metric-file", str(mfile)])
    assert code == 0
    got = capsys.readouterr().out
    assert "distortion\t1" in got
    # export-only mode
    code = main(["distortion", "--metric-file", str(mfile),
                 "--export", str(tmp_path / "prog.lp")])
    assert code == 0
    assert (tmp_path / "prog.lp").read_text().startswith("OBJECTIVE min")


def test_distortion_past_the_point_limit_fails_and_writes_nothing(tmp_path, capsys):
    # 13 vertices of the 4-cube: an l1 metric one point past the LP's limit;
    # the record once came with a 6.5 MB LP written next to the input
    x = (np.arange(13)[:, None] >> np.arange(4)) & 1
    mfile = tmp_path / "metric.txt"
    mfile.write_text(metric_to_text(FiniteMetric(np.abs(x[:, None] - x[None, :]).sum(axis=2))))
    code = main(["distortion", "--metric-file", str(mfile)])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("negative_type\tTrue\t")
    assert out[1:] == ["FAIL distortion 13 points exceed the 12-point limit "
                       "(2^(n-1)-1 cut variables); export the LP to solve it elsewhere"]
    assert os.listdir(tmp_path) == ["metric.txt"]


def test_every_subcommand_option_is_pinned():
    # an option is added or removed only together with this table
    config = {"--config", "--k", "--eta", "--epsilon", "--t", "--l-in", "--window", "--seed",
              "--out", "--budget-triples", "--budget-samples", "--budget-restarts",
              "--budget-labelings"}
    expected = {
        "build-ug": config,
        "build-bes": config | {"--ug-file"},
        "verify": {"--ug-file", "--basis-file", "--seed"},
        "pcp": {"--ug-file", "--proof-file", "--epsilon", "--samples", "--rounds", "--seed"},
        "distortion": {"--metric-file", "--export"},
        "round": {"--graph-file", "--balance", "--seed"},
    }
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == expected


def test_distortion_unsolved_lp_fails_cleanly(tmp_path, capsys):
    # a near-degenerate 10-point sub-metric of the k=2, t=3 gap metric on
    # which the simplex stalls: the status is a FAIL record, not a traceback
    inst = sp.build_bes(qt.build_kv_instance(2, 0.3)[0], 0.3)
    sol = qt.build_ug_sdp_solution(qt.build_quotient(2))
    assign = sp.assign_sdp_solution(inst, sol, l_in=8, t=3)
    m = inst.num_blocks
    metric = mt.metric_from_gram(np.block(
        [[assign.base_gram_block(v, w) ** 3 for w in range(m)] for v in range(m)]))
    pts = [0, 15, 16, 18, 21, 36, 37, 38, 55, 58]
    mfile = tmp_path / "metric.txt"
    mfile.write_text(metric_to_text(FiniteMetric(metric.d[np.ix_(pts, pts)])))
    code = main(["distortion", "--metric-file", str(mfile)])
    assert code != 0
    assert re.search(r"^FAIL distortion ", capsys.readouterr().out, re.M)


def test_pcp_truncated_permutation_fails_cleanly(tmp_path, capsys):
    u, hidden = plant_instance(6, 3, 0.1, 0.8, seed=0)
    lines = ug_to_text(u).splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0]  # drop one permutation entry
    ug_file = tmp_path / "ug.txt"
    ug_file.write_text("\n".join(lines) + "\n")
    proof_file = tmp_path / "proof.txt"
    proof_file.write_text(proof_to_text(Proof(3, dictator_tables(hidden, 3))))
    code = main(["pcp", "--ug-file", str(ug_file), "--proof-file", str(proof_file),
                 "--epsilon", "0.2"])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL pcp ")


_SQUARE = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], float)


@pytest.mark.parametrize("text, detail", [
    pytest.param("\n".join(metric_to_text(FiniteMetric(_SQUARE)).splitlines()[:-1]) + "\n",
                 "line 4: missing row 3 of 3", id="truncated"),
    # nan compared as a valid distance and reached LAPACK
    pytest.param("METRIC 3\n1\nnan 1\n", "distances must be finite", id="nan"),
    # a row past the header's count was ignored
    pytest.param("METRIC 2\n1\n5 5 5\n", "line 3: extra row, METRIC 2 has 1 rows",
                 id="extra_row"),
    pytest.param("\nMETRIC two\n1\n",
                 "line 2: not a metric file: expected header `METRIC n` with n >= 1",
                 id="bad_header"),
])
def test_distortion_truncated_metric_fails_cleanly(tmp_path, capsys, text, detail):
    mfile = tmp_path / "metric.txt"
    mfile.write_text(text)
    code = main(["distortion", "--metric-file", str(mfile)])
    assert code == 1
    assert capsys.readouterr().out == f"FAIL distortion {detail}\n"


def test_verify_truncated_basis_fails_cleanly(tmp_path, capsys):
    _, quot, _ = qt.build_kv_instance(2, 0.3)
    lines = qt.basis_to_text(qt.build_ug_sdp_solution(quot)).splitlines()
    bfile = tmp_path / "basis.txt"
    bfile.write_text("\n".join(lines[:-1]) + "\n")  # last basis row missing
    code = main(["verify", "--basis-file", str(bfile)])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL basis_structure ")


def test_round_command(tmp_path, capsys):
    lines = ["GRAPH 4", "0 1 0.0 1.0", "2 3 0.0 1.0", "0 2 1.0 0.0", "1 3 1.0 0.0"]
    gfile = tmp_path / "graph.txt"
    gfile.write_text("\n".join(lines) + "\n")
    code = main(["round", "--graph-file", str(gfile), "--seed", "2"])
    assert code == 0
    got = capsys.readouterr().out
    assert "demand_cut" in got


@pytest.mark.parametrize("balance", ["nan", "inf", "-inf", "-1"])
def test_round_rejects_a_balance_that_is_not_finite_and_nonnegative(tmp_path, capsys, balance):
    gfile = tmp_path / "graph.txt"
    gfile.write_text("GRAPH 4\n0 1 0.0 1.0\n2 3 0.0 1.0\n0 2 1.0 0.0\n1 3 1.0 0.0\n")
    code = main(["round", "--graph-file", str(gfile), f"--balance={balance}"])
    assert code == 1
    assert capsys.readouterr().out == (f"FAIL round --balance {float(balance)} "
                                       "is not finite and nonnegative\n")


def test_round_allows_a_zero_balance(tmp_path, capsys):
    # the default for a graph with no demand is B = 0
    gfile = tmp_path / "graph.txt"
    gfile.write_text("GRAPH 4\n0 1 0.0 1.0\n2 3 0.0 1.0\n0 2 1.0 0.0\n1 3 1.0 0.0\n")
    assert main(["round", "--graph-file", str(gfile), "--balance", "0"]) == 0
    assert "\trequired\t0\n" in capsys.readouterr().out


def test_round_prints_a_negative_zero_balance_as_zero(tmp_path, capsys):
    gfile = tmp_path / "graph.txt"
    gfile.write_text("GRAPH 4\n0 1 0.0 1.0\n2 3 0.0 1.0\n0 2 1.0 0.0\n1 3 1.0 0.0\n")
    assert main(["round", "--graph-file", str(gfile), "--balance", "0"]) == 0
    zero = capsys.readouterr().out
    assert main(["round", "--graph-file", str(gfile), "--balance=-0.0"]) == 0
    assert capsys.readouterr().out == zero


def test_verify_with_nothing_to_check_fails(capsys):
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == "FAIL verify nothing to check: give --ug-file or --basis-file\n"


@pytest.mark.parametrize("bad", ["0 9 1.0 0.0", "0 1 1.0", "0 1 one 0.0", "0 1 nan 1.0",
                                 "0 1 -1.0 1.0", "0 1 1.0 -1.0"])
def test_round_malformed_graph_fails_cleanly(tmp_path, capsys, bad):
    gfile = tmp_path / "graph.txt"
    gfile.write_text("GRAPH 4\n" + bad + "\n")
    code = main(["round", "--graph-file", str(gfile)])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL round line 2: ")


def _pcp_files(tmp_path, ug_text=None, proof_text=None):
    u, hidden = plant_instance(6, 3, 0.1, 0.8, seed=0)
    ug_file = tmp_path / "ug.txt"
    ug_file.write_text(ug_to_text(u) if ug_text is None else ug_text)
    proof_file = tmp_path / "proof.txt"
    proof_file.write_text(proof_to_text(Proof(3, dictator_tables(hidden, 3)))
                          if proof_text is None else proof_text)
    return str(ug_file), str(proof_file)


def test_pcp_empty_ug_file_fails_cleanly(tmp_path, capsys):
    ug_file, proof_file = _pcp_files(tmp_path, ug_text="")
    code = main(["pcp", "--ug-file", ug_file, "--proof-file", proof_file,
                 "--epsilon", "0.2"])
    assert code == 1
    assert capsys.readouterr().out == "FAIL pcp line 1: empty UG file\n"


def test_verify_empty_ug_file_fails_cleanly(tmp_path, capsys):
    ug_file, _ = _pcp_files(tmp_path, ug_text="")
    code = main(["verify", "--ug-file", ug_file])
    assert code == 1
    assert capsys.readouterr().out == "FAIL ug_structure line 1: empty UG file\n"


def test_pcp_empty_proof_file_fails_cleanly(tmp_path, capsys):
    ug_file, proof_file = _pcp_files(tmp_path, proof_text="")
    code = main(["pcp", "--ug-file", ug_file, "--proof-file", proof_file,
                 "--epsilon", "0.2"])
    assert code == 1
    assert capsys.readouterr().out == "FAIL pcp line 1: empty PROOF file\n"


def _replace_field(text, line, field, value):
    lines = text.splitlines()
    parts = lines[line].split()
    parts[field] = value
    lines[line] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _clean_texts():
    u, hidden = plant_instance(6, 3, 0.1, 0.8, seed=0)
    return ug_to_text(u), proof_to_text(Proof(3, dictator_tables(hidden, 3)))


@pytest.mark.parametrize("bad_ug, bad_proof, expected", [
    (None, (1, 0, "300"), "FAIL pcp line 2: proof entries must be +/-1\n"),
    (None, (0, 2, str(10**30)), f"FAIL pcp line 1: label count {10**30} out of range\n"),
    (None, (0, 2, "9"), "FAIL pcp line 1: label count 9 out of range\n"),
    ((1, 3, str(10**30)), None, f"FAIL pcp line 2: {10**30} 1 2 is not a permutation of 0..2\n"),
    (None, (0, 1, "six"), "FAIL pcp line 1: invalid literal for int() with base 10: 'six'\n"),
    (None, (0, 1, "0"), "FAIL pcp line 1: vertex count 0 out of range\n"),
    (None, (3, 2, "1.0"), "FAIL pcp line 4: invalid literal for int() with base 10: '1.0'\n"),
    # a table shape mismatch named no line
    (None, (0, 1, "5"), "FAIL pcp line 7: PROOF 5 3 has 5 rows, found 6\n"),
    (None, (0, 1, "7"), "FAIL pcp line 8: PROOF 7 3 has 7 rows, found 6\n"),
    (None, (0, 2, "2"), "FAIL pcp line 2: expected 4 entries, got 8\n"),
    # a vertex count once sized the degree array before any check
    ((0, 2, str(10**12)), None, "FAIL pcp weighted degree spread 0.333 exceeds tolerance 1e-09\n"),
], ids=["proof_entry", "proof_header", "proof_nine_labels", "ug_permutation",
        "proof_header_non_integer", "proof_no_vertices", "proof_entry_non_integer",
        "proof_extra_row", "proof_missing_row", "proof_row_length", "ug_trillion_vertices"])
def test_pcp_malformed_number_fails_cleanly(tmp_path, capsys, bad_ug, bad_proof, expected):
    ug_text, proof_text = _clean_texts()
    if bad_ug:
        ug_text = _replace_field(ug_text, *bad_ug)
    if bad_proof:
        proof_text = _replace_field(proof_text, *bad_proof)
    ug_file, proof_file = _pcp_files(tmp_path, ug_text, proof_text)
    code = main(["pcp", "--ug-file", ug_file, "--proof-file", proof_file,
                 "--epsilon", "0.2"])
    assert code == 1
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("epsilon", ["nan", "1.5"])
def test_pcp_epsilon_outside_probabilities_fails_cleanly(tmp_path, capsys, epsilon):
    ug_file, proof_file = _pcp_files(tmp_path)
    code = main(["pcp", "--ug-file", ug_file, "--proof-file", proof_file,
                 "--epsilon", epsilon])
    assert code == 1
    assert capsys.readouterr().out == (
        f"FAIL pcp epsilon={float(epsilon)} is not a probability in [0, 1]\n")


def test_verify_oversized_permutation_entry_fails_cleanly(tmp_path, capsys):
    ug_text, _ = _clean_texts()
    ug_file, _ = _pcp_files(tmp_path, ug_text=_replace_field(ug_text, 1, 3, str(10**30)))
    code = main(["verify", "--ug-file", ug_file])
    assert code == 1
    assert capsys.readouterr().out == (
        f"FAIL ug_structure line 2: {10**30} 1 2 is not a permutation of 0..2\n")


def test_verify_all_nan_weights_fails_cleanly(tmp_path, capsys):
    # nan compares false against every tolerance, so before weights were
    # required to be finite this file passed with three OK lines
    ug_text, _ = _clean_texts()
    for line in range(1, len(ug_text.splitlines())):
        ug_text = _replace_field(ug_text, line, 2, "nan")
    ug_file, _ = _pcp_files(tmp_path, ug_text=ug_text)
    code = main(["verify", "--ug-file", ug_file])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL ug_structure edge (0,1) weight nan ")


@pytest.mark.parametrize("bad, expected", [
    ((2, 0, "300"), "FAIL basis_structure line 3: expected 4 entries of +/-1\n"),
    ((0, 1, str(10**30)), f"FAIL basis_structure line 1: k={10**30} out of range\n"),
    ((0, 1, "6"), "FAIL basis_structure line 1: k=6 out of range\n"),
    ((0, 0, "BASES"), "FAIL basis_structure line 1: not a basis file\n"),
    ((0, 2, "four"), "FAIL basis_structure line 1: invalid literal for int() with base 10: 'four'\n"),
    # numpy's "negative dimensions are not allowed"
    ((0, 2, "-1"), "FAIL basis_structure line 1: class count -1 out of range\n"),
    ((4, 1, "+1.0"), "FAIL basis_structure line 5: invalid literal for int() with base 10: '+1.0'\n"),
    # rows past the header's count verified OK
    ("BASIS 0 1\nCLASS 0\n1\nextra junk\n",
     "FAIL basis_structure line 4: BASIS 0 1 has 2 rows, found 3\n"),
    ((0, 2, "3"), "FAIL basis_structure line 17: BASIS 2 3 has 15 rows, found 20\n"),
], ids=["basis_entry", "basis_header", "basis_header_past_int8_sweep", "not_a_basis_file",
        "basis_header_non_integer", "basis_negative_class_count", "basis_entry_non_integer",
        "basis_extra_row", "basis_header_fewer_classes"])
def test_verify_malformed_basis_number_fails_cleanly(tmp_path, capsys, bad, expected):
    _, quot, _ = qt.build_kv_instance(2, 0.3)
    text = qt.basis_to_text(qt.build_ug_sdp_solution(quot))
    bfile = tmp_path / "basis.txt"
    bfile.write_text(bad if isinstance(bad, str) else _replace_field(text, *bad))
    code = main(["verify", "--basis-file", str(bfile)])
    assert code == 1
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("edits, expected", [
    ([(1, 0, "12345678901234567890")],
     "FAIL ug_structure edge endpoint out of range: 12345678901234567890,1\n"),
    ([(2, 3, "0"), (2, 4, "0"), (2, 5, "2")],
     "FAIL ug_structure line 3: 0 0 2 is not a permutation of 0..2\n"),
    ([(2, 4, "1.5")], "FAIL ug_structure line 3: invalid literal for int() with base 10: '1.5'\n"),
    ([(2, 3, "2"), (2, 4, "2"), (4, 5, "x")],
     "FAIL ug_structure line 3: 2 2 1 is not a permutation of 0..2\n"),
    ([(2, 3, "2"), (2, 4, "2"), (1, 2, "x")],
     "FAIL ug_structure line 2: could not convert string to float: 'x'\n"),
    ([(3, 0, "v")], "FAIL ug_structure line 4: invalid literal for int() with base 10: 'v'\n"),
], ids=["endpoint_20_digits", "repeated_label", "non_integer_label",
        "permutation_before_later_bad_number", "bad_number_before_later_permutation",
        "non_integer_endpoint"])
def test_verify_malformed_ug_line_fails_cleanly(tmp_path, capsys, edits, expected):
    # the edge lines are parsed into whole arrays, and the record still
    # names the first offending line, with a line's numbers checked before
    # its permutation
    ug_text, _ = _clean_texts()
    for edit in edits:
        ug_text = _replace_field(ug_text, *edit)
    ug_file, _ = _pcp_files(tmp_path, ug_text=ug_text)
    code = main(["verify", "--ug-file", ug_file])
    assert code == 1
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("text, expected", [
    ("UG -1 2 1\n0 1\n", "line 1: header counts N = -1, |V| = 2, |E| = 1: "
                          "need N >= 1, |V| >= 1 and |E| >= 0"),
    ("UG 2 -4 0\n", "line 1: header counts N = 2, |V| = -4, |E| = 0: "
                    "need N >= 1, |V| >= 1 and |E| >= 0"),
    ("UG 2 one 0\n", "line 1: invalid literal for int() with base 10: 'one'"),
    ("UG 2 1 2\n0 0 1 1 0\n", "line 3: expected 2 edge lines, found 1"),
    ("UG 2 1 0\n0 0 1 1 0\n", "line 2: expected 0 edge lines, found 1"),
    # 40 labels once passed as OK ug_structure, then the edge distribution
    # asked for 8 TiB (a MemoryError traceback)
    ("UG 9 2 1\n0 1 1 " + " ".join(map(str, range(9))) + "\n",
     "line 1: 9 labels exceed the limit 8"),
    ("UG 40 2 1\n0 1 1 " + " ".join(map(str, range(40))) + "\n",
     "line 1: 40 labels exceed the limit 8"),
    # the degrees were once a bincount of length |V|: 7.3 TiB here
    ("UG 2 1000000000000 1\n0 1 1.0 0 1\n", "weighted degree spread 1 exceeds tolerance 1e-09"),
], ids=["negative_label_count", "negative_vertex_count", "non_integer_vertex_count",
        "missing_edge_line", "extra_edge_line", "nine_labels", "forty_labels",
        "trillion_vertices"])
def test_verify_ug_header_counts_fail_cleanly(tmp_path, capsys, text, expected):
    # a negative label count once passed the field-count test and indexed
    # past the edge line (an IndexError traceback); a negative vertex count
    # failed inside the degree bincount
    ug_file, _ = _pcp_files(tmp_path, ug_text=text)
    code = main(["verify", "--ug-file", ug_file])
    assert code == 1
    assert capsys.readouterr().out == f"FAIL ug_structure {expected}\n"
