"""The three benchmark workloads.

Each workload is a closed loop with one client: operation i starts when
operation i-1 has returned, and passes `--seed` = run seed + i to every
command. An operation is a list of `cutgap` CLI calls, each tagged with the
stage its time is reported under. After the loop, each operation is
checked (see checks.py).

- build-k3: build-ug at k=3 (32 blocks of 256 points, 2576 UG edges), then
  build-bes at t=1 and at t=3 on that instance. The separator and tensor
  layers do almost all of the work; the simplex does none.
- sweep-k2: build-ug then build-bes at k=2 (64 vertices) for one point of
  a fixed (eta, epsilon, t) grid. The only size where build-bes runs local
  search, so fixed per-call costs dominate; a change that helps k=3 by
  adding set-up or per-call overhead shows here as a loss.
- certify: the read side on artifacts built before timing (inputs.py):
  verify, pcp with 10^6 samples, distortion on every METRIC file, round.
  The only workload that runs the parsers, verifier, fourier, metrics and
  simplex layers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from cutgap import unique_games as ug

import checks


@dataclass
class Call:
    stage: str
    argv: list
    seconds: float = 0.0  # wall time
    code: object = None
    out: str = ""


@dataclass
class Op:
    index: int
    seed: int
    workdir: str
    calls: list
    params: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    best_cut_weights: list = field(default_factory=list)
    ref_scale: float = 1.0  # reference seconds per wall second (calibrate.py)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    def stage_ref_seconds(self, stage: str | None = None) -> float:
        """Reference seconds of the calls of one stage, or of all calls."""
        return self.ref_scale * sum(c.seconds for c in self.calls
                                    if stage is None or c.stage == stage)


def _build_ug(k: int, eta: float, seed: int, out: str) -> Call:
    return Call("ug_build", ["build-ug", "--k", str(k), "--eta", str(eta),
                             "--seed", str(seed), "--out", out])


def _build_bes(k: int, eta: float, epsilon: float, t: int, seed: int,
               ug_dir: str, out: str) -> Call:
    return Call(f"gap_row_t{t}", [
        "build-bes", "--k", str(k), "--eta", str(eta), "--epsilon", str(epsilon),
        "--t", str(t), "--seed", str(seed),
        "--ug-file", os.path.join(ug_dir, "ug_instance.txt"), "--out", out])


class BuildWorkload:
    """build-ug followed by build-bes rows; shared by build-k3 and sweep-k2."""

    needs_inputs = False

    def __init__(self, name: str, k: int, points: list, calibrated: bool):
        self.name = name
        self.k = k
        self.points = points  # (eta, epsilon, ts) per operation, cycled
        self.calibrated = calibrated  # times in reference seconds (calibrate.py)
        # operations run in whole passes over the grid, so every run
        # weighs every grid point the same; a traced run makes one pass
        self.pass_size = self.trace_ops = len(points)

    def load_inputs(self, inputs_dir: str) -> dict:
        return {}

    def op(self, index: int, seed: int, workdir: str, run_seed: int, ctx) -> Op:
        eta, epsilon, ts = self.points[(run_seed + index) % len(self.points)]
        ug_dir = os.path.join(workdir, "ug")
        calls = [_build_ug(self.k, eta, seed, ug_dir)]
        calls += [_build_bes(self.k, eta, epsilon, t, seed, ug_dir,
                             os.path.join(workdir, f"t{t}")) for t in ts]
        return Op(index, seed, workdir, calls,
                  {"k": self.k, "eta": eta, "epsilon": epsilon})

    def check(self, op: Op, ctx) -> None:
        p = op.params
        op.problems += checks.check_ug_build(os.path.join(op.workdir, "ug"), p["k"])
        ug_file = os.path.join(op.workdir, "ug", "ug_instance.txt")
        for call in op.calls[1:]:
            t = int(call.stage.rsplit("_t", 1)[1])
            problems, weight = checks.check_gap_row(
                ug_file, os.path.join(op.workdir, f"t{t}"), p["k"], p["eta"],
                p["epsilon"], t)
            op.problems += problems
            op.best_cut_weights.append(weight)


SWEEP_VALUES = (0.15, 0.25, 0.35, 0.45)

# a build-k3 operation lasts about 30 s: calibrations at its two ends miss
# the host's drift inside it, and scaling by them made its run-to-run
# spread worse (15% against 2% to 10% unscaled), so it reports wall seconds
BUILD_K3 = BuildWorkload("build-k3", 3, [(0.3, 0.3, (1, 3))], calibrated=False)
SWEEP_K2 = BuildWorkload(
    "sweep-k2", 2,
    [(eta, eps, (t,)) for eta in SWEEP_VALUES for eps in SWEEP_VALUES for t in (1, 3)],
    calibrated=True)


class CertifyWorkload:
    name = "certify"
    needs_inputs = True
    calibrated = True
    pass_size = 1
    trace_ops = 2
    pcp_samples = 1_000_000
    epsilon = 0.3
    metric_files = tuple(f"metric_t{t}_n{n}.txt" for t in (1, 3) for n in (10, 12))

    def op(self, index: int, seed: int, workdir: str, run_seed: int, ctx) -> Op:
        d = ctx["dir"]
        ug_file = os.path.join(d, "ug3", "ug_instance.txt")
        s = str(seed)
        calls = [
            Call("verify", ["verify", "--ug-file", ug_file, "--basis-file",
                            os.path.join(d, "ug3", "basis.txt"), "--seed", s]),
            Call("pcp", ["pcp", "--ug-file", ug_file, "--proof-file",
                         os.path.join(d, "proof.txt"), "--epsilon", str(self.epsilon),
                         "--samples", str(self.pcp_samples), "--seed", s]),
        ]
        calls += [Call("distortion", ["distortion", "--metric-file", os.path.join(d, f)])
                  for f in self.metric_files]
        calls.append(Call("round", ["round", "--graph-file",
                                    os.path.join(d, "graph.txt"), "--seed", s]))
        return Op(index, seed, workdir, calls)

    def load_inputs(self, inputs_dir: str) -> dict:
        """Parses the artifacts the checks compare against, once per run."""
        with open(os.path.join(inputs_dir, "ug3", "ug_instance.txt")) as fh:
            inst_ug = ug.ug_from_text(fh.read())
        row = checks.read_gap_row(os.path.join(inputs_dir, "bes3"))
        return {
            "dir": inputs_dir,
            "ug": inst_ug,
            "proof_weight": float(row["best_cut_weight"]),
            "graph": checks.read_graph(os.path.join(inputs_dir, "graph.txt")),
        }

    def check(self, op: Op, ctx) -> None:
        for call in op.calls:
            if call.stage == "verify":
                op.problems += checks.check_verify(call.out)
            elif call.stage == "pcp":
                op.problems += checks.check_pcp(call.out, ctx["ug"], ctx["proof_weight"])
                op.best_cut_weights.append(ctx["proof_weight"])
            elif call.stage == "distortion":
                op.problems += checks.check_distortion(call.out)
            elif call.stage == "round":
                op.problems += checks.check_round(call.out, *ctx["graph"])


WORKLOADS = {w.name: w for w in (BUILD_K3, SWEEP_K2, CertifyWorkload())}
