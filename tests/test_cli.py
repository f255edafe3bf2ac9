import os

import numpy as np
import pytest

from cutgap import quotient as qt
from cutgap import separator as sp
from cutgap import unique_games as ug
from cutgap.cli import main
from cutgap.config import RunConfig, derive_seed, parse_config_file
from cutgap.metrics import FiniteMetric, metric_to_text
from cutgap.unique_games import plant_instance, ug_to_text
from cutgap.verifier import long_code_proof, proof_to_text


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
    assert derive_seed(5, "opt_search") == 5 * 1009 + 1


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
    assert capsys.readouterr().out == "FAIL build-ug k=9 outside [1, 5]\n"


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


def test_build_seeds_follow_the_splitting_scheme(tmp_path, monkeypatch):
    # --budget-labelings 1 forces opt_search in both commands; each random
    # sub-run draws from its own derive_seed purpose code
    seed = 4
    calls = []
    search, feasibility = ug.opt_search, qt.check_ug_sdp_feasibility

    def record_search(inst, seed, **kwargs):
        calls.append(("opt_search", seed))
        return search(inst, seed=seed, **kwargs)

    def record_feasibility(sol, seed, **kwargs):
        calls.append(("feasibility", seed))
        return feasibility(sol, seed=seed, **kwargs)

    monkeypatch.setattr(ug, "opt_search", record_search)
    monkeypatch.setattr(qt, "check_ug_sdp_feasibility", record_feasibility)
    out = tmp_path / "run"
    common = ["--k", "2", "--eta", "0.3", "--seed", str(seed), "--budget-labelings", "1",
              "--budget-triples", "2000", "--out", str(out)]
    assert main(["build-ug", *common]) == 0
    assert main(["build-bes", *common, "--epsilon", "0.3", "--budget-samples", "2000",
                 "--ug-file", str(out / "ug_instance.txt")]) == 0
    assert calls == [
        ("opt_search", derive_seed(seed, "opt_search")),
        ("feasibility", derive_seed(seed, "sdp_feasibility")),
        ("feasibility", derive_seed(seed, "ulc_properties")),
        ("opt_search", derive_seed(seed, "opt_search")),
    ]
    report = dict(ln.split("\t", 1) for ln in read(out / "ug_report.tsv").splitlines()[1:])
    lam = [int(v) for v in report["opt_labeling"].split()]
    summary = read(out / "bes_summary.txt").split("candidates: ")[1].strip()
    weights = dict(c.split("=") for c in summary.split("; "))
    inst = sp.build_bes(ug.ug_from_text(read(out / "ug_instance.txt")), 0.3)
    dictator = sp.cut_edge_weight(inst, sp.dictator_cut(inst, lam))
    assert float(weights["labeling_0"].split("@")[0]) == dictator


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


def test_pcp_command(tmp_path, capsys):
    u, hidden = plant_instance(6, 3, 0.1, 0.8, seed=0)
    ug_file = tmp_path / "ug.txt"
    ug_file.write_text(ug_to_text(u))
    proof_file = tmp_path / "proof.txt"
    proof_file.write_text(proof_to_text(long_code_proof(hidden, 3)))
    code = main([
        "pcp", "--ug-file", str(ug_file), "--proof-file", str(proof_file),
        "--epsilon", "0.2", "--samples", "20000", "--seed", "1", "--loose",
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


def test_pcp_truncated_permutation_fails_cleanly(tmp_path, capsys):
    u, hidden = plant_instance(6, 3, 0.1, 0.8, seed=0)
    lines = ug_to_text(u).splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0]  # drop one permutation entry
    ug_file = tmp_path / "ug.txt"
    ug_file.write_text("\n".join(lines) + "\n")
    proof_file = tmp_path / "proof.txt"
    proof_file.write_text(proof_to_text(long_code_proof(hidden, 3)))
    code = main(["pcp", "--ug-file", str(ug_file), "--proof-file", str(proof_file),
                 "--epsilon", "0.2", "--loose"])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL pcp ")


def test_distortion_truncated_metric_fails_cleanly(tmp_path, capsys):
    d = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], float)
    lines = metric_to_text(FiniteMetric(d)).splitlines()
    mfile = tmp_path / "metric.txt"
    mfile.write_text("\n".join(lines[:-1]) + "\n")  # last row missing
    code = main(["distortion", "--metric-file", str(mfile)])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL distortion ")


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


@pytest.mark.parametrize("bad", ["0 9 1.0 0.0", "0 1 1.0", "0 1 one 0.0"])
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
    proof_file.write_text(proof_to_text(long_code_proof(hidden, 3))
                          if proof_text is None else proof_text)
    return str(ug_file), str(proof_file)


def test_pcp_empty_ug_file_fails_cleanly(tmp_path, capsys):
    ug_file, proof_file = _pcp_files(tmp_path, ug_text="")
    code = main(["pcp", "--ug-file", ug_file, "--proof-file", proof_file,
                 "--epsilon", "0.2", "--loose"])
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
                 "--epsilon", "0.2", "--loose"])
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
    return ug_to_text(u), proof_to_text(long_code_proof(hidden, 3))


@pytest.mark.parametrize("bad_ug, bad_proof, expected", [
    (None, (1, 0, "300"), "FAIL pcp line 2: proof entries must be +/-1\n"),
    (None, (0, 2, str(10**30)), f"FAIL pcp line 1: label count {10**30} out of range\n"),
    ((1, 3, str(10**30)), None, f"FAIL pcp line 2: {10**30} 1 2 is not a permutation of 0..2\n"),
], ids=["proof_entry", "proof_header", "ug_permutation"])
def test_pcp_malformed_number_fails_cleanly(tmp_path, capsys, bad_ug, bad_proof, expected):
    ug_text, proof_text = _clean_texts()
    if bad_ug:
        ug_text = _replace_field(ug_text, *bad_ug)
    if bad_proof:
        proof_text = _replace_field(proof_text, *bad_proof)
    ug_file, proof_file = _pcp_files(tmp_path, ug_text, proof_text)
    code = main(["pcp", "--ug-file", ug_file, "--proof-file", proof_file,
                 "--epsilon", "0.2", "--loose"])
    assert code == 1
    assert capsys.readouterr().out == expected


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
], ids=["basis_entry", "basis_header"])
def test_verify_malformed_basis_number_fails_cleanly(tmp_path, capsys, bad, expected):
    _, quot, _ = qt.build_kv_instance(2, 0.3)
    bfile = tmp_path / "basis.txt"
    bfile.write_text(_replace_field(qt.basis_to_text(qt.build_ug_sdp_solution(quot)), *bad))
    code = main(["verify", "--basis-file", str(bfile)])
    assert code == 1
    assert capsys.readouterr().out == expected
