"""Tests of the benchmark harness's own logic: the percentile rule, span
self-time arithmetic, tracer installation, reference-time scaling, and the
correctness checks.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

import calibrate
import checks
import frozen
import stats
import tracing

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ percentiles
def test_tail_percentile_keeps_ten_samples_above():
    assert stats.tail_percentile(range(100)) == ("p90", 89)  # 90..99 lie above
    label, value = stats.tail_percentile(range(99))
    assert (label, value) == ("p75", 74)  # p90 would leave only 9 above
    assert stats.tail_percentile(range(1000))[0] == "p99"
    assert stats.tail_percentile(range(20)) == ("p50", 9)
    assert stats.tail_percentile(range(19)) is None


@pytest.mark.parametrize("n", [20, 37, 99, 100, 250, 1000, 12345])
def test_tail_percentile_has_at_least_ten_above(n):
    values = [float(v) for v in range(n)]
    label, value = stats.tail_percentile(values)
    assert sum(v > value for v in values) >= stats.MIN_ABOVE
    higher = [p for p in stats.TAIL_LADDER if p > float(label[1:])]
    for p in higher:
        assert stats.nearest_rank(values, p)[1] < stats.MIN_ABOVE


def test_summarize_reports_median_count_and_tail():
    out = stats.summarize([5.0, 1.0, 3.0, 2.0])
    assert out == {"p50": 2.5, "n": 4}
    out = stats.summarize(list(range(40)))
    assert out["p50"] == 19.5 and out["n"] == 40 and out["p75"] == 29


# -------------------------------------------------------------- self time
def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children():
    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
        span("a", 7.0, 9.0, 0),
    ]
    got = tracing.self_times(spans)
    assert got["root"] == pytest.approx((10 - 3 - 1 - 2, 10.0, 1))
    assert got["a"] == pytest.approx((2.0 + 2.0, 5.0, 2))
    assert got["leaf"] == pytest.approx((1.0, 1.0, 1))
    assert got["b"] == pytest.approx((1.0, 1.0, 1))
    total_self = sum(v[0] for v in got.values())
    assert total_self == pytest.approx(10.0)  # self times partition the root


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1, 3), (2, 5)], 0, 4) == pytest.approx(3.0)
    assert tracing.covered([(6, 7)], 0, 4) == 0.0
    assert tracing.covered([], 0, 4) == 0.0
    assert tracing.covered([(0, 1), (2, 3)], 0, 4) == pytest.approx(2.0)


def test_tracer_records_parents_and_ops():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    tracer.op = "op7"
    assert outer(1) == 3
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert {s[4] for s in tracer.spans} == {"op7"}
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_installed_traces_rebound_names_and_restores_them():
    import cutgap.cli
    import cutgap.fourier
    import cutgap.tensor
    import cutgap.verifier

    before = (cutgap.cli.main, cutgap.verifier.wht_matrix, cutgap.fourier.wht_matrix,
              cutgap.tensor.GramCache.gram)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cutgap.verifier.wht_matrix is cutgap.fourier.wht_matrix
        assert cutgap.verifier.wht_matrix is not before[1]
        cutgap.verifier.wht_matrix([[1.0, -1.0]])
    assert [s[0] for s in tracer.spans] == ["fourier.wht_matrix"]
    after = (cutgap.cli.main, cutgap.verifier.wht_matrix, cutgap.fourier.wht_matrix,
             cutgap.tensor.GramCache.gram)
    assert after == before


def test_every_declared_layer_metric_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = tracing.layer_metrics(tracing.Tracer(), 1, [1.0], [1.0])
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
    assert not missing


# ------------------------------------------------------------ calibration
def test_reference_seconds_scale_by_mean_calibration():
    ref = calibrate.CAL_REF_S
    assert calibrate.to_reference(2.0, ref, ref) == pytest.approx(2.0)
    # a host twice as slow on both sides halves the reported time
    assert calibrate.to_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert calibrate.to_reference(3.0, ref, 2 * ref) == pytest.approx(2.0)
    assert calibrate.calibrate(3) > 0
    assert calibrate.reps_after(0.01) == calibrate.MIN_REPS
    assert calibrate.reps_after(100 * calibrate.CAL_REF_S / calibrate.CAL_SHARE) == 100


# ----------------------------------------------------------------- checks
@pytest.fixture(scope="module")
def gap_row(tmp_path_factory):
    """A k=2 build-ug + build-bes (t=1) output directory."""
    from cutgap import cli

    out = tmp_path_factory.mktemp("row")
    ug_dir, row_dir = str(out / "ug"), str(out / "t1")
    argv_ug = ["build-ug", "--k", "2", "--eta", "0.25", "--seed", "3", "--out", ug_dir]
    argv_bes = ["build-bes", "--k", "2", "--eta", "0.25", "--epsilon", "0.35", "--t", "1",
                "--seed", "3", "--ug-file", os.path.join(ug_dir, "ug_instance.txt"),
                "--out", row_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv_ug) == 0
        assert cli.main(argv_bes) == 0
    return os.path.join(ug_dir, "ug_instance.txt"), row_dir


def run_check(gap_row, tmp_path, **kwargs):
    ug_file, row_dir = gap_row
    copy = tmp_path / "row"
    copy.mkdir()
    for name in ("gap_row.tsv", "best_cut.txt"):
        (copy / name).write_text(Path(row_dir, name).read_text())
    edit = kwargs.pop("edit", None)
    if edit:
        edit(copy)
    return checks.check_gap_row(ug_file, str(copy), 2, 0.25, 0.35, 1, **kwargs)


def test_untampered_row_passes(gap_row, tmp_path):
    problems, weight = run_check(gap_row, tmp_path)
    assert problems == []
    assert 0 < weight <= frozen.BEST_CUT_CEILING[(2, 0.25, 0.35)]


def test_tampered_reported_weight_is_flagged(gap_row, tmp_path):
    def edit(d):
        path = d / "gap_row.tsv"
        head, cols, vals = path.read_text().splitlines()
        vals = vals.split("\t")
        vals[5] = repr(float(vals[5]) - 1e-6)
        path.write_text("\n".join([head, cols, "\t".join(vals)]) + "\n")

    problems, _ = run_check(gap_row, tmp_path, edit=edit)
    assert any("spectral" in p for p in problems)


def test_tampered_best_cut_file_is_flagged(gap_row, tmp_path):
    def edit(d):
        path = d / "best_cut.txt"
        lines = path.read_text().split()
        lines[0] = str(-int(lines[0]))
        path.write_text("\n".join(lines) + "\n")

    problems, _ = run_check(gap_row, tmp_path, edit=edit)
    assert any("spectral" in p for p in problems)


def test_tampered_frozen_objective_is_flagged(gap_row, tmp_path):
    objectives = dict(frozen.SDP_OBJECTIVE)
    objectives[(2, 0.25, 0.35, 1)] += 1e-9
    problems, _ = run_check(gap_row, tmp_path, objectives=objectives)
    assert any("frozen" in p for p in problems)


def test_weight_above_frozen_ceiling_is_flagged(gap_row, tmp_path):
    ceilings = dict(frozen.BEST_CUT_CEILING)
    ceilings[(2, 0.25, 0.35)] = 0.1
    problems, _ = run_check(gap_row, tmp_path, ceilings=ceilings)
    assert any("ceiling" in p for p in problems)


def test_cli_problems_flags_exit_status_and_fail_records():
    assert checks.cli_problems("x", 0, "OK fine\n") == []
    assert len(checks.cli_problems("x", 1, "FAIL triangle 1e-3\n")) == 2


def test_distortion_check_flags_residuals_and_gamma():
    good = "distortion\t1.0\n" + "".join(
        f"certificate_{n}\t1e-15\n" for n in checks.CERTIFICATES)
    assert checks.check_distortion(good) == []
    bad = good.replace("certificate_duality_gap\t1e-15", "certificate_duality_gap\t1e-6")
    bad = bad.replace("distortion\t1.0", "distortion\t0.99")
    assert len(checks.check_distortion(bad)) == 2
