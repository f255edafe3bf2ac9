"""A/B timer: alternate named operations between two source trees and report
which side is faster, checking that both print the same output.

    python3 tools/abtime.py BASE NEW [--rounds R] [--ops NAME ...]

BASE and NEW are repository checkouts (each with `src/cutgap` and
`perfbench/`), for example the parent commit made with
`git worktree add ../parent HEAD~1` and this working tree. The tool reads
both and deletes neither. It starts one worker process per tree with that
tree's `src` and `perfbench` on the import path and `OPENBLAS_NUM_THREADS=1`,
runs each operation once per side untimed, then R rounds in which both
sides run it in turn, BASE first in even rounds and NEW first in odd ones.
Each side times its operation in process with `time.perf_counter`.

Operations:
- `certify`, `build-k3`, `sweep-k2`: one benchmark operation, the
  `cutgap.cli.main` calls of `perfbench/workloads.py` with seed = round;
  certify reads inputs built once, before timing, by BASE's
  `perfbench/inputs.py` into a temporary directory;
- `lp12`: the kernel `metrics.l1_distortion_lp` on the 12-point t=1 handle
  metric of those inputs;
- `round`: the kernel `metrics.round_to_balanced_cut` with the local-search
  oracle on their GRAPH file, as the `round` command runs it.

For each operation it prints, per side, the median and quartiles in
milliseconds and the rounds that side won (ties count for neither), then
NEW's median over BASE's, and the two-sided sign-test p-value of the wins.
It exits 1 if the two sides' output differs in any round, and says where.
Standard library only in this process; the workers import numpy through
cutgap. Not a `test_*` file: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCHMARK_OPS = ("certify", "build-k3", "sweep-k2")
KERNELS = ("lp12", "round")
OPS = BENCHMARK_OPS + KERNELS


def _worker(inputs: str, workdir: str) -> None:
    """Serve operations over stdin and stdout, one JSON line each way: the
    request names the operation and the round, the reply holds the seconds
    it took and everything it printed."""
    import numpy as np

    from cutgap import cli
    from cutgap import metrics as mt
    import workloads

    metric = mt.metric_from_text(Path(inputs, "metric_t1_n12.txt").read_text())
    weights, demands = mt.graph_from_text(Path(inputs, "graph.txt").read_text())
    balance = float(np.sum(demands) / 2) / 2

    def benchmark_op(name: str, index: int) -> None:
        where = os.path.join(workdir, f"{name}-{index}")
        op = workloads.WORKLOADS[name].op(index, index, where, 0, {"dir": inputs})
        for call in op.calls:
            print(call.argv[0], cli.main(call.argv))

    def lp12(index: int) -> None:
        res = mt.l1_distortion_lp(metric)
        print(res.gamma.hex(), res.lp.iterations)

    def rounding(index: int) -> None:
        oracle = lambda w, d: mt.local_search_sparsest_cut(w, d, seed=index)
        res = mt.round_to_balanced_cut(weights, demands, oracle, B=balance, seed=index)
        print(res.cut.astype(int).tolist(), res.edge_weight.hex(), res.demand.hex(), res.rounds)

    kernels = {"lp12": lp12, "round": rounding}
    for line in sys.stdin:
        request = json.loads(line)
        name, index = request["op"], request["round"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            if name in kernels:
                kernels[name](index)
            else:
                benchmark_op(name, index)
            seconds = time.perf_counter() - start
        shutil.rmtree(os.path.join(workdir, f"{name}-{index}"), ignore_errors=True)
        print(json.dumps({"seconds": seconds, "out": buf.getvalue()}), flush=True)


class Worker:
    """One worker process on one source tree."""

    def __init__(self, tree: Path, inputs: str, workdir: str):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
        os.makedirs(workdir)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", inputs, workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=workdir, text=True)

    def run(self, op: str, index: int) -> tuple[float, str]:
        self.proc.stdin.write(json.dumps({"op": op, "round": index}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited {self.proc.wait()} during {op}")
        reply = json.loads(line)
        return reply["seconds"], reply["out"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of `wins` against `losses`."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


def compare(workers: dict, op: str, rounds: int) -> tuple[dict, list]:
    """The seconds each side took per round, and the rounds whose outputs
    differ; round -1 is the untimed warm-up."""
    times = {side: [] for side in workers}
    differ = []
    sides = list(workers)
    for index in range(-1, rounds):
        order = sides if index % 2 == 0 else sides[::-1]
        outs = {}
        for side in order:
            seconds, outs[side] = workers[side].run(op, max(index, 0))
            if index >= 0:
                times[side].append(seconds)
        if outs[sides[0]] != outs[sides[1]]:
            differ.append(index)
    return times, differ


def report(op: str, times: dict) -> None:
    base, new = (times[side] for side in ("BASE", "NEW"))
    wins = {"BASE": sum(b < n for b, n in zip(base, new)),
            "NEW": sum(n < b for b, n in zip(base, new))}
    for side, ts in times.items():
        q1, median, q3 = statistics.quantiles(ts, n=4, method="inclusive")
        print(f"{op}\t{side}\tmedian_ms\t{1e3 * median:.2f}\tq1_ms\t{1e3 * q1:.2f}"
              f"\tq3_ms\t{1e3 * q3:.2f}\twon\t{wins[side]}\tof\t{len(ts)}")
    ratio = statistics.median(new) / statistics.median(base)
    print(f"{op}\tNEW/BASE\t{ratio:.3f}\tsign_p\t{sign_test(wins['NEW'], wins['BASE']):.3g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the reference source tree")
    parser.add_argument("new", type=Path, help="the source tree under test")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds per operation")
    parser.add_argument("--ops", nargs="+", choices=OPS, default=list(OPS),
                        help="operations to time (default: all)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    trees = {"BASE": args.base.resolve(), "NEW": args.new.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "cutgap").is_dir() or not (tree / "perfbench").is_dir():
            parser.error(f"{side} {tree} holds no src/cutgap and perfbench/")
    status = 0
    with tempfile.TemporaryDirectory(prefix="abtime-") as scratch:
        inputs = os.path.join(scratch, "inputs")
        subprocess.run([sys.executable, str(trees["BASE"] / "perfbench" / "inputs.py"),
                        "--out", inputs, "--seed", "0"], check=True, stdout=subprocess.DEVNULL,
                       env=dict(os.environ, PYTHONPATH=str(trees["BASE"] / "src")))
        workers = {side: Worker(tree, inputs, os.path.join(scratch, side))
                   for side, tree in trees.items()}
        try:
            for op in args.ops:
                times, differ = compare(workers, op, args.rounds)
                report(op, times)
                if differ:
                    print(f"{op}\toutput differs in rounds\t{' '.join(map(str, differ))}")
                    status = 1
        finally:
            for worker in workers.values():
                worker.close()
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:])
    else:
        sys.exit(main())
