#!/usr/bin/env python3
"""cutgap benchmark: one run of one workload.

    python3 perfbench/run.py --workload {build-k3,sweep-k2,certify} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from
`src/`. With `--trace 0` the run measures operations for about S seconds
(whole passes over the workload's grid, at least one) and reports the
end-to-end metrics. With `--trace 1` it runs a fixed set of operations
once untraced and once traced, and reports per-layer self times and
counts. Either way every operation is checked, the last line of standard
output is one JSON object {correct, attempted, failed, metrics}, and the
full result, with the environment it ran in, is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one BLAS thread: on a shared 2-core VM two threads made the k=3 t=3 row
# slower (30 s against 24 s) and less steady than one
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 600


def child_env() -> dict:
    """The run's environment (BLAS threads already set) with `src` importable."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_seconds() -> tuple[float, float]:
    """Median time from starting a fresh interpreter until cutgap is
    imported (and the interpreter has exited), as (wall, reference) seconds."""
    from calibrate import FIRST_REPS, calibrate, to_reference

    cal_before = calibrate(FIRST_REPS)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cutgap.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    wall = statistics.median(times)
    return wall, to_reference(wall, cal_before, calibrate(FIRST_REPS))


def run_call(call) -> None:
    """One CLI call, timed; its standard output is kept for the checks."""
    import cutgap.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            call.code = cutgap.cli.main(call.argv)
        except SystemExit as exc:
            call.code = exc.code
        except Exception:
            call.code = "exception"
            buf.write(traceback.format_exc())
        call.seconds = time.perf_counter() - start
    call.out = buf.getvalue()


def run_ops(workload, ctx, run_seed: int, workdir: str, tag: str,
            seconds: float | None = None, count: int | None = None, tracer=None):
    """The closed loop: `count` operations, or whole passes for as long as
    the next pass, expected to take as long as the last one, still ends
    within `seconds` (at least one pass), so a run's length stays near
    `seconds` however long an operation takes."""
    from calibrate import FIRST_REPS, calibrate, reps_after, to_reference

    ops = []
    start = pass_start = time.perf_counter()
    cal = calibrate(FIRST_REPS) if workload.calibrated else None
    while True:
        i = len(ops)
        op = workload.op(i, run_seed + i, os.path.join(workdir, f"{tag}{i}"), run_seed, ctx)
        if tracer is not None:
            tracer.op = f"{tag}{i}"
        for call in op.calls:
            run_call(call)
        if cal is not None:
            after = calibrate(reps_after(op.seconds))
            op.ref_scale = to_reference(1.0, cal, after)
            cal = after
        ops.append(op)
        if count is not None:
            if len(ops) >= count:
                return ops
        elif len(ops) % workload.pass_size == 0:
            now = time.perf_counter()
            elapsed, last_pass = now - start, now - pass_start
            if elapsed + last_pass > seconds:
                return ops
            pass_start = now


def check_ops(workload, ops, ctx) -> None:
    import checks

    for op in ops:
        for call in op.calls:
            op.problems += checks.cli_problems(call.stage, call.code, call.out)
        if op.problems:
            continue
        try:
            workload.check(op, ctx)
        except Exception:
            op.problems.append("check raised:\n" + traceback.format_exc())


def end_to_end(workload, ops, setup: tuple, peak_rss_mb: float) -> tuple[dict, list]:
    """(metrics for the driver, report lines with every stage metric).
    Operation times are in reference seconds on a calibrated workload, with
    wall times printed beside them; setup times always are."""
    from stats import summarize

    setup_wall, setup_s = setup
    op_times = [op.stage_ref_seconds() for op in ops]
    total = sum(op_times)
    first_pass = ops[:workload.pass_size]
    weights = [w for op in first_pass for w in op.best_cut_weights]
    metrics = {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(op_times),
        "ops_per_min": 60.0 * len(ops) / total,
        # 0 only when every operation failed its checks
        "best_cut_weight": statistics.fmean(weights) if weights else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    stages = defaultdict(list)
    stages["op"] = op_times
    if workload.name == "certify":
        stages["certify"] = op_times
    for op in ops:
        for stage in dict.fromkeys(c.stage for c in op.calls):
            stages[stage].append(op.stage_ref_seconds(stage))
    lines = [f"setup_s {setup_s!r} s", f"setup_wall_s {setup_wall!r} s",
             f"op_wall_s.p50 {statistics.median(op.seconds for op in ops)!r} s"]
    for stage, values in stages.items():
        for key, val in summarize(values).items():
            unit = "count" if key == "n" else "s"
            lines.append(f"{stage}_s.{key} {val!r} {unit}")
    rows = sum(len(vals) for stage, vals in stages.items() if stage.startswith("gap_row"))
    if rows:
        lines.append(f"rows_per_min {60.0 * rows / total!r} 1/min")
    failed = sum(1 for op in ops if op.problems)
    lines += [
        f"ops_per_min {metrics['ops_per_min']!r} 1/min",
        f"best_cut_weight {metrics['best_cut_weight']!r} fraction",
        f"peak_rss_mb {peak_rss_mb!r} MB",
        f"failed_ops {failed}/{len(ops)} ops",
    ]
    return metrics, lines


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads_in_use() -> int | None:
    """Asks the OpenBLAS bundled with numpy for its thread count, when it
    is there to ask."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cutgap benchmark (one run)")
    parser.add_argument("--workload", required=True,
                        choices=("build-k3", "sweep-k2", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cutgap" / "cli.py").is_file():
        print(f"error: {SRC / 'cutgap'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup = setup_seconds()
    from workloads import WORKLOADS
    import cutgap.cli  # noqa: F401  (imported before timing starts)

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        inputs = os.path.join(tmp, "inputs")
        if workload.needs_inputs:
            subprocess.run([sys.executable, str(HERE / "inputs.py"), "--out", inputs,
                            "--seed", str(args.seed)], env=child_env(), cwd=ROOT,
                           check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        ctx = workload.load_inputs(inputs)

        if args.trace:
            from tracing import Tracer, installed, layer_metrics

            n = workload.trace_ops
            plain = run_ops(workload, ctx, args.seed, tmp, "plain", count=n)
            tracer = Tracer()
            with installed(tracer):
                traced = run_ops(workload, ctx, args.seed, tmp, "traced", count=n,
                                 tracer=tracer)
            ops = plain + traced
            check_ops(workload, ops, ctx)
            metrics = layer_metrics(tracer, n, [op.seconds for op in plain],
                                    [op.seconds for op in traced])
            wanted = spec["per_layer"]
            lines = [f"{key} {val!r}" for key, val in sorted(metrics.items())]
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            ops = run_ops(workload, ctx, args.seed, tmp, "op", seconds=args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            check_ops(workload, ops, ctx)
            metrics, lines = end_to_end(workload, ops, setup, peak_rss_mb)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"op {op.index} (seed {op.seed}) failed:", *op.problems,
              sep="\n  ", file=sys.stderr)
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "ops": [{"index": op.index, "seed": op.seed, "params": op.params,
                 "ref_scale": op.ref_scale,
                 "calls": [[c.stage, c.seconds, c.code] for c in op.calls],
                 "problems": op.problems} for op in ops],
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# environment " + json.dumps(env, default=str))
    print("\n".join(lines))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
