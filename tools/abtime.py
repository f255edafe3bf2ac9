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
- `lp10`, `lp12`: the kernel `metrics.l1_distortion_lp` on the 10- and
  12-point t=1 handle metrics of those inputs, the two LPs certify solves;
- `round`: the kernel `metrics.round_to_balanced_cut` with the local-search
  oracle on their GRAPH file, as the `round` command runs it;
- `round256`: the same on a generated 256-vertex graph (`family_graph`:
  10% of the pairs weighted, unit demands inside blocks of 16 vertices,
  drawn from seed 0), so that the A/B shows how the search scales, not only
  the 64-vertex certify case;
- `mc`: the kernel `EdgeDistribution.sample_disagreements`, the 10^6-sample
  count that certify's `pcp` makes on their k=3 UG instance and PROOF at
  epsilon 0.3, with seed = round. It prints the count, so two trees whose
  draws differ differ in output.
- `read`: the five artifact readers once on each of those inputs that
  certify reads (`ug_from_text`, `basis_from_text`, `proof_from_text`,
  `metric_from_text` on the four METRIC files, `graph_from_text`). It
  prints the SHA-256 of every parsed array's dtype, shape and bytes, so
  two trees that parse any value differently differ in output.
- `bes_sdp`: the SDP side of one k=3 `build-bes` row at t = 1 and at
  t = 3 on their k=3 UG and basis files, epsilon 0.3 and l_in 8: the
  assignment, the feasibility report, the objective and the gap ratio of
  their PROOF's cut. It prints the report and the rounded objective. A
  tree whose CLI still has `_sdp_checks` (the float route, which found the
  table's distinct rows once for both) runs that, with the ratio a float
  division by a cut weight taken before timing.

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
import hashlib
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
KERNELS = ("lp10", "lp12", "round", "round256", "mc", "read", "bes_sdp")
OPS = BENCHMARK_OPS + KERNELS


def family_graph(n: int):
    """(weights, demands) on n vertices, drawn from seed 0: each pair i < j
    weighted uniformly in [0, 1) with probability 0.1, and demand 1 between
    the distinct vertices of each block of 16."""
    import numpy as np

    rng = np.random.default_rng(0)
    weights = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.1), 1)
    blocks = np.arange(n) // 16
    demands = np.triu((blocks[:, None] == blocks).astype(np.float64), 1)
    return weights + weights.T, demands + demands.T


def _worker(inputs: str, workdir: str) -> None:
    """Serve operations over stdin and stdout, one JSON line each way: the
    request names the operation and the round, the reply holds the seconds
    it took and everything it printed."""
    import numpy as np

    from cutgap import cli
    from cutgap import metrics as mt
    from cutgap import quotient as qt
    from cutgap import separator as sp
    from cutgap import unique_games as ug
    from cutgap import verifier as pv
    import workloads

    metrics = {n: mt.metric_from_text(Path(inputs, f"metric_t1_n{n}.txt").read_text())
               for n in (10, 12)}
    weights, demands = mt.graph_from_text(Path(inputs, "graph.txt").read_text())
    certify = workloads.WORKLOADS["certify"]
    edges = ug.ug_from_text(Path(inputs, "ug3", "ug_instance.txt").read_text()).edge_distribution
    proof = pv.proof_from_text(Path(inputs, "proof.txt").read_text())

    def benchmark_op(name: str, index: int) -> None:
        where = os.path.join(workdir, f"{name}-{index}")
        op = workloads.WORKLOADS[name].op(index, index, where, 0, {"dir": inputs})
        for call in op.calls:
            print(call.argv[0], cli.main(call.argv))

    def lp(index: int, n: int) -> None:
        res = mt.l1_distortion_lp(metrics[n])
        print(res.gamma.hex(), res.lp.iterations)

    def rounding(index: int, graph=(weights, demands)) -> None:
        oracle = lambda w, d: mt.local_search_sparsest_cut(w, d, seed=index)
        res = mt.round_to_balanced_cut(*graph, oracle, B=float(np.sum(graph[1] * 0.5)) / 2,
                                       seed=index)
        print(res.cut.astype(int).tolist(), res.edge_weight.hex(), res.demand.hex(), res.rounds)

    def count(index: int) -> None:
        print(edges.sample_disagreements(proof.tables, certify.pcp_samples, index,
                                         certify.epsilon))

    texts = {name: Path(inputs, name).read_text() for name in
             ("ug3/ug_instance.txt", "ug3/basis.txt", "proof.txt", "graph.txt",
              *certify.metric_files)}

    def read(index: int) -> None:
        inst = ug.ug_from_text(texts["ug3/ug_instance.txt"])
        arrays = [inst.v, inst.w, inst.weight, inst.perm,
                  qt.basis_from_text(texts["ug3/basis.txt"]).basis,
                  pv.proof_from_text(texts["proof.txt"]).tables,
                  *mt.graph_from_text(texts["graph.txt"])]
        arrays += [mt.metric_from_text(texts[name]).d for name in certify.metric_files]
        digest = hashlib.sha256()
        for a in arrays:
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(a.tobytes())
        print(digest.hexdigest())

    inst3 = sp.build_bes(ug.ug_from_text(texts["ug3/ug_instance.txt"]), certify.epsilon)
    sol3 = qt.basis_from_text(texts["ug3/basis.txt"])
    cut3 = proof.tables.ravel()
    weight3 = sp.cut_edge_weight(inst3, cut3)

    def bes_sdp(index: int) -> None:
        for t in (1, 3):
            assign = sp.assign_sdp_solution(inst3, sol3, l_in=8, t=t)
            if hasattr(cli, "_sdp_checks"):
                feas, objective = cli._sdp_checks(inst3, assign)
                ratio = weight3 / objective
            else:
                feas = sp.check_bes_feasibility(inst3, assign)
                objective = sp.sdp_objective(inst3, assign)
                ratio = sp.gap_ratio(inst3, cut3, objective)
            print(t, feas, repr(float(objective)), ratio > 0)

    graph256 = family_graph(256)
    kernels = {"lp10": lambda index: lp(index, 10), "lp12": lambda index: lp(index, 12),
               "round": rounding, "mc": count, "read": read, "bes_sdp": bes_sdp,
               "round256": lambda index: rounding(index, graph256)}
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
