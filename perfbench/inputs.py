"""Builds the artifacts the certify workload reads, before timing starts.

Run as a script with `src` on PYTHONPATH:

    python3 perfbench/inputs.py --out DIR --seed S

It writes into DIR:

- `ug3/ug_instance.txt`, `ug3/basis.txt`: the k=3 gap instance (eta=0.3);
- `proof.txt`: a PROOF file holding the best cut of a k=3 `build-bes` run
  (epsilon=0.3, t=1), and `bes3/gap_row.tsv` with that cut's weight;
- `metric_t{1,3}_n{10,12}.txt`: farthest-point submetrics of the k=2
  separator handle metric (eta=epsilon=0.3) at t=1 and t=3. The LP has
  2^(n-1)-1 cut variables, and FiniteMetric validates the triangle
  inequality on an n^3 array, so n stays at the CLI's 12-point limit;
- `graph.txt`: a GRAPH file of the expanded k=2 separator instance, with
  unit demands inside each block.

The sub-metrics start from point 0, so the distortion LPs are the same for
every seed and their timings compare run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

import numpy as np

from cutgap import cli
from cutgap import metrics as mt
from cutgap import quotient as qt
from cutgap import separator as sp
from cutgap import verifier as pv

EPSILON = 0.3
ETA = 0.3
METRIC_SIZES = (10, 12)
TENSOR_POWERS = (1, 3)


def _cli(argv) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cutgap {' '.join(argv)} exited {code}:\n{buf.getvalue()}")


def build_k3(out: str, seed: int) -> None:
    ug_dir = os.path.join(out, "ug3")
    bes_dir = os.path.join(out, "bes3")
    common = ["--k", "3", "--eta", str(ETA), "--seed", str(seed)]
    _cli(["build-ug", *common, "--out", ug_dir])
    # the budgets only shorten the checks; the best cut does not depend on them
    _cli(["build-bes", *common, "--epsilon", str(EPSILON), "--t", "1",
          "--ug-file", os.path.join(ug_dir, "ug_instance.txt"),
          "--budget-triples", "1000", "--budget-samples", "20000",
          "--out", bes_dir])
    with open(os.path.join(bes_dir, "best_cut.txt")) as fh:
        cut = sp.cut_from_text(fh.read())
    proof = pv.Proof(1 << 3, cut.reshape(-1, 1 << (1 << 3)))
    with open(os.path.join(out, "proof.txt"), "w") as fh:
        fh.write(pv.proof_to_text(proof))


def build_k2(out: str) -> None:
    inst_ug, quot, _ = qt.build_kv_instance(2, ETA)
    sol = qt.build_ug_sdp_solution(quot)
    inst = sp.build_bes(inst_ug, EPSILON)
    size, m = inst.block_size, inst.num_blocks
    for t in TENSOR_POWERS:
        assign = sp.assign_sdp_solution(inst, sol, l_in=8, t=t)
        g = np.block([[assign.base_gram_block(v, w) ** t for w in range(m)]
                      for v in range(m)])
        metric = mt.metric_from_gram(g)
        for n in METRIC_SIZES:
            pts = mt.farthest_point_sample(metric, n, seed_point=0)
            sub = mt.FiniteMetric(metric.d[np.ix_(pts, pts)])
            with open(os.path.join(out, f"metric_t{t}_n{n}.txt"), "w") as fh:
                fh.write(mt.metric_to_text(sub))

    n = inst.num_vertices
    weights = np.zeros((n, n))
    for line in sp.bes_to_text(inst, expanded=True).splitlines()[1:]:
        v, x, w, y, wt = line.split()
        a, b = int(v) * size + int(x), int(w) * size + int(y)
        if a != b:
            weights[a, b] += float(wt)
    lines = [f"GRAPH {n}"]
    for a in range(n):
        for b in range(a + 1, n):
            demand = 1.0 if a // size == b // size else 0.0
            if weights[a, b] or demand:
                lines.append(f"{a} {b} {weights[a, b]:.17g} {demand:.17g}")
    with open(os.path.join(out, "graph.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    build_k3(args.out, args.seed)
    build_k2(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
