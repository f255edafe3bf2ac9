"""Command-line driver: builds gap instances, verifies serialized artifacts,
runs the two-query verifier, measures distortion, and rounds to balanced
cuts.

Every failure exits nonzero after printing a machine-parseable
`FAIL <check> <details>` record. Reports are TSV plus a human-readable
summary; floats are printed with 17 significant digits, so identical
config + seed gives byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .config import FIELD_PARSERS, RunConfig, derive_seed, parse_config_file
from . import metrics as mt
from . import quotient as qt
from . import separator as sp
from . import unique_games as ug
from . import verifier as pv

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _fail(check: str, detail: str) -> int:
    print(f"FAIL {check} {detail}")
    return 1


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _load_config(args) -> RunConfig:
    kwargs = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            kwargs.update(parse_config_file(fh.read()))
    for name in FIELD_PARSERS:
        val = getattr(args, name, None)
        if val is not None:
            kwargs[name] = val
    return RunConfig(**kwargs).validate()


def _best_labeling(inst, cfg: RunConfig):
    """(labeling, value, kind): the exhaustive optimum when the N^|V|
    labelings fit the budget, else opt_search's certified lower bound."""
    try:
        return (*ug.opt_exhaustive(inst, budget=cfg.budget_labelings), "exhaustive")
    except ug.BudgetExceededError:
        lam, val = ug.opt_search(inst, seed=derive_seed(cfg.seed, "opt_search"),
                                 restarts=cfg.budget_restarts)
        return lam, val, "search_lower_bound"


def cmd_build_ug(args) -> int:
    cfg = _load_config(args)
    inst, quot, cube = qt.build_kv_instance(cfg.k, cfg.eta, window=cfg.window)
    sol = qt.build_ug_sdp_solution(quot)
    out = cfg.out

    _write(os.path.join(out, "ug_instance.txt"), ug.ug_to_text(inst))
    _write(os.path.join(out, "basis.txt"), qt.basis_to_text(sol))
    meta = [
        f"k {cfg.k}",
        f"N {quot.N}",
        f"classes {quot.num_classes}",
        f"eta {_fmt(cfg.eta)}",
        f"window {cube.window}",
        "representatives " + " ".join(str(int(r)) for r in quot.reps),
    ]
    _write(os.path.join(out, "quotient_meta.txt"), "\n".join(meta) + "\n")

    failures = []
    lam, opt_val, opt_kind = _best_labeling(inst, cfg)
    n_t = quot.num_classes
    curves = {
        "log2_pow_minus_eta": math.log2(n_t) ** (-cfg.eta) if n_t > 1 else float("inf"),
        "N_pow_minus_eta_eta2": quot.N ** (-(cfg.eta + cfg.eta**2)),
        "N_pow_minus_eta": quot.N ** (-cfg.eta),
    }
    objective = qt.ug_sdp_objective(inst, sol)
    feas = qt.check_ug_sdp_feasibility(sol)
    ulc = qt.verify_ulc_properties(inst, sol, cfg.eta)

    tol = 1e-9
    if feas.max_residual() > tol:
        failures.append(("sdp_feasibility", feas.max_residual()))
    if ulc.matching_residual > tol:
        failures.append(("ulc_properties", ulc.matching_residual))
    if not ulc.closeness_satisfied:
        failures.append(("closeness", ulc.closeness_margin))
    if opt_kind == "exhaustive" and opt_val > curves["N_pow_minus_eta"] + tol:
        failures.append(("opt_bound", opt_val))

    lines = [
        "# gap instance report",
        f"k\t{cfg.k}",
        f"eta\t{_fmt(cfg.eta)}",
        f"vertices\t{inst.num_vertices}",
        f"labels\t{inst.num_labels}",
        f"edges\t{inst.num_edges}",
        f"opt_kind\t{opt_kind}",
        f"opt_value\t{_fmt(opt_val)}",
        f"opt_labeling\t{' '.join(str(int(v)) for v in lam)}",
        f"sdp_objective\t{_fmt(objective)}",
        f"objective_minus_opt\t{_fmt(objective - opt_val)}",
    ]
    lines += [f"curve_{name}\t{_fmt(val)}" for name, val in curves.items()]
    lines += [
        f"residual_norm_sum\t{_fmt(feas.norm_sum_residual)}",
        f"residual_orthogonality\t{_fmt(feas.orthogonality_residual)}",
        f"residual_cross_negativity\t{_fmt(feas.cross_negativity)}",
        f"residual_cross_sum\t{_fmt(feas.cross_sum_residual)}",
        f"residual_triangle\t{_fmt(feas.triangle_violation)}",
        f"residual_basis_completeness\t{_fmt(ulc.basis_completeness_residual)}",
        f"residual_matching\t{_fmt(ulc.matching_residual)}",
        f"closeness_margin\t{_fmt(ulc.closeness_margin)}",
    ]
    _write(os.path.join(out, "ug_report.tsv"), "\n".join(lines) + "\n")

    summary = [
        f"gap instance: k={cfg.k} eta={_fmt(cfg.eta)} -> "
        f"{inst.num_vertices} vertices, {inst.num_labels} labels, {inst.num_edges} edges",
        f"opt ({opt_kind}): {_fmt(opt_val)}  reference curves: "
        + ", ".join(f"{k2}={_fmt(v)}" for k2, v in curves.items()),
        f"SDP objective: {_fmt(objective)} (objective - opt = {_fmt(objective - opt_val)};"
        " at desk-scale N the optimum exceeds the tensored objective, see docs)",
        f"constraint residuals: max {_fmt(feas.max_residual())}",
    ]
    _write(os.path.join(out, "summary.txt"), "\n".join(summary) + "\n")
    print("\n".join(summary))

    for name, value in failures:
        _fail(name, _fmt(value))
    return 1 if failures else 0


def cmd_build_bes(args) -> int:
    cfg = _load_config(args)
    inst_ug, quot, _ = qt.build_kv_instance(cfg.k, cfg.eta, window=cfg.window)
    ug_text = None
    if args.ug_file:
        # the file must be the instance this config builds, as build-ug wrote it
        ug_text = ug.ug_to_text(inst_ug)
        with open(args.ug_file) as fh:
            if fh.read() != ug_text:
                return _fail("build-bes", f"{args.ug_file} is not the UG instance of "
                             f"k={cfg.k} eta={cfg.eta!r} window={cfg.window}")
    sol = qt.build_ug_sdp_solution(quot)
    inst = sp.build_bes(inst_ug, cfg.epsilon)
    assign = sp.assign_sdp_solution(inst, sol, l_in=cfg.l_in, t=cfg.t)
    out = cfg.out

    _write(os.path.join(out, "bes_instance.txt"), sp.bes_to_text(inst, ug_text=ug_text))
    del ug_text  # not held through the checks and the cut search

    failures = []
    feas = sp.check_bes_feasibility(inst, assign)
    objective = sp.sdp_objective(inst, assign)
    tol = 1e-9
    if feas.unit_norm_residual > tol:
        failures.append(("unit_norms", feas.unit_norm_residual))
    if feas.well_separatedness_residual > tol:
        failures.append(("well_separatedness", feas.well_separatedness_residual))
    if not feas.balance_feasible():
        failures.append(("balance_constraint", feas.balance_lhs))
    if feas.triangle_violation > tol:
        failures.append(("triangle", feas.triangle_violation))

    lam, _, _ = _best_labeling(inst_ug, cfg)
    search = sp.balanced_cut_search(
        inst,
        seed=derive_seed(cfg.seed, "cut_search"),
        labelings=[lam],
        local_search=inst.num_vertices <= 64,
    )
    ratio = sp.gap_ratio(inst, search.cut, objective)
    mc_est, mc_err, mc_ok = sp.cut_edge_weight_mc(
        inst, search.cut, samples=cfg.budget_samples,
        seed=derive_seed(cfg.seed, "cut_mc"),
    )
    if abs(mc_est - search.edge_weight) > 4 * mc_err + 1e-9:
        failures.append(("cut_mc_agreement", abs(mc_est - search.edge_weight)))

    lines = [
        "# balanced-separator gap row",
        "k\teta\tepsilon\tt\tsdp_objective\tbest_cut_weight\tratio\tbalance",
        "\t".join(
            [str(cfg.k), _fmt(cfg.eta), _fmt(cfg.epsilon), str(cfg.t),
             _fmt(objective), _fmt(search.edge_weight), _fmt(ratio),
             _fmt(search.balance)]
        ),
    ]
    _write(os.path.join(out, "gap_row.tsv"), "\n".join(lines) + "\n")
    _write(os.path.join(out, "best_cut.txt"), sp.cut_to_text(search.cut))

    report = [
        f"separator instance: {inst.num_blocks} blocks x {inst.block_size} points, "
        f"epsilon={_fmt(cfg.epsilon)}, D={_fmt(inst.total_demand)}, B={_fmt(inst.balance)}",
        f"feasibility: unit_norm={_fmt(feas.unit_norm_residual)} "
        f"well_separated={_fmt(feas.well_separatedness_residual)} "
        f"balance_lhs={_fmt(feas.balance_lhs)} (exact {_fmt(feas.balance_exact_value)}, "
        f"required {_fmt(feas.balance_required)}) "
        f"triangle={_fmt(feas.triangle_violation)} over {feas.triples_checked} checks",
        f"sdp objective (t={cfg.t}): {_fmt(objective)} "
        f"(empirical constant objective/(eta+epsilon) = "
        f"{_fmt(objective / (cfg.eta + cfg.epsilon))})",
        f"best {5}/6-piecewise-balanced cut: weight={_fmt(search.edge_weight)} "
        f"balance={_fmt(search.balance)} demand={_fmt(search.demand)}",
        f"cut weight MC cross-check: {_fmt(mc_est)} +- {_fmt(mc_err)}"
        f" (trustworthy={mc_ok})",
        f"gap ratio best/sdp: {_fmt(ratio)}",
        "candidates: "
        + "; ".join(f"{n}={_fmt(w)}@{_fmt(b)}" for n, w, b in search.candidates),
    ]
    _write(os.path.join(out, "bes_summary.txt"), "\n".join(report) + "\n")
    print("\n".join(report))

    for name, value in failures:
        _fail(name, _fmt(value))
    return 1 if failures else 0


def cmd_verify(args) -> int:
    if not (args.ug_file or args.basis_file):
        raise ValueError("nothing to check: give --ug-file or --basis-file")
    failures = []
    rng = np.random.default_rng(args.seed)
    inst = None
    if args.ug_file:
        try:
            with open(args.ug_file) as fh:
                inst = ug.ug_from_text(fh.read())
            print(f"OK ug_structure vertices={inst.num_vertices} "
                  f"labels={inst.num_labels} edges={inst.num_edges}")
        except ValueError as exc:
            failures.append(("ug_structure", str(exc)))
        if inst is not None:
            # value invariance under a global relabeling
            sigma = rng.permutation(inst.num_labels)
            inv = np.argsort(sigma)
            relabeled = ug.UGInstance(inst.num_vertices, inst.num_labels, inst.v, inst.w,
                                      inst.weight, sigma[inst.perm[:, inv]])
            for _ in range(5):
                lam = rng.integers(0, inst.num_labels, size=inst.num_vertices)
                a = ug.value(inst, lam)
                b = ug.value(relabeled, sigma[lam])
                if abs(a - b) > 1e-9:
                    failures.append(("ug_relabel_invariance", f"{a} vs {b}"))
                    break
            else:
                print("OK ug_relabel_invariance")
            graph = ug.label_extended_graph(inst)
            for _ in range(3):
                lam = rng.integers(0, inst.num_labels, size=inst.num_vertices)
                val, ome = ug.labeling_set_expansion_identity(inst, lam, graph)
                if abs(val - ome) > 1e-9:
                    failures.append(("ug_expansion_identity", f"{val} vs {ome}"))
                    break
            else:
                print("OK ug_expansion_identity")
    if args.basis_file:
        try:
            with open(args.basis_file) as fh:
                sol = qt.basis_from_text(fh.read())
            rep = qt.check_ug_sdp_feasibility(sol)
            if rep.max_residual() > 1e-9:
                failures.append(("basis_orthonormality", _fmt(rep.max_residual())))
            else:
                print(f"OK basis_orthonormality residual={_fmt(rep.max_residual())}")
        except ValueError as exc:
            failures.append(("basis_structure", str(exc)))
    for name, detail in failures:
        _fail(name, str(detail))
    return 1 if failures else 0


def cmd_pcp(args) -> int:
    with open(args.ug_file) as fh:
        inst = ug.ug_from_text(fh.read())
    with open(args.proof_file) as fh:
        proof = pv.proof_from_text(fh.read())
    exact = pv.acceptance_probability_exact(inst, proof, args.epsilon)
    est, se = pv.acceptance_probability_mc(
        inst, proof, samples=args.samples, seed=args.seed, epsilon=args.epsilon
    )
    decoded = pv.decode_labeling(inst, proof, seed=args.seed, rounds=args.rounds)
    balance = pv.piecewise_balance(proof.tables)
    print(f"acceptance_exact\t{_fmt(exact)}")
    print(f"acceptance_mc\t{_fmt(est)}\tstderr\t{_fmt(se)}")
    print(f"piecewise_balance\t{_fmt(balance)}")
    print(f"decoded_value\t{_fmt(decoded.value)}")
    print("decoded_labeling\t" + " ".join(str(int(v)) for v in decoded.labeling))
    if decoded.fallback_vertices:
        print("decoder_fallback_vertices\t"
              + " ".join(str(v) for v in decoded.fallback_vertices))
    if abs(est - exact) > 4 * se + 1e-9:
        return _fail("pcp_mc_agreement", f"{_fmt(est)} vs {_fmt(exact)}")
    return 0


def cmd_distortion(args) -> int:
    with open(args.metric_file) as fh:
        metric = mt.metric_from_text(fh.read())
    ok, witness = mt.is_negative_type(metric)
    print(f"negative_type\t{ok}\tmin_eigenvalue\t{_fmt(witness.min_eigenvalue)}")
    if args.export:
        _write(args.export, mt.export_distortion_lp(metric))
        print(f"lp_exported\t{args.export}")
        return 0
    res = mt.l1_distortion_lp(metric)
    print(f"distortion\t{_fmt(res.gamma)}")
    print(f"lp_iterations\t{res.lp.iterations}")
    for name, val in res.certificate.items():
        print(f"certificate_{name}\t{_fmt(val)}")
    if max(res.certificate.values()) > 1e-7:
        return _fail("lp_certificate", _fmt(max(res.certificate.values())))
    return 0


def cmd_round(args) -> int:
    if args.balance is not None and not 0 <= args.balance < math.inf:
        raise ValueError(f"--balance {args.balance} is not finite and nonnegative")
    with open(args.graph_file) as fh:
        weights, demands = mt.graph_from_text(fh.read())
    # each entry halved before the sum, as `metrics._cut_sum` does: a total
    # that fits in a float stays finite
    total = float(np.sum(demands * 0.5))
    # + 0.0 reads -0.0 as 0.0, so both zeros print the same bound
    B = args.balance + 0.0 if args.balance is not None else total / 2
    oracle = lambda w, d: mt.local_search_sparsest_cut(w, d, seed=args.seed)
    res = mt.round_to_balanced_cut(weights, demands, oracle, B=B, seed=args.seed)
    side = "".join("1" if v else "0" for v in res.cut)
    print(f"cut\t{side}")
    print(f"edge_weight\t{_fmt(res.edge_weight)}")
    print(f"demand_cut\t{_fmt(res.demand)}\trequired\t{_fmt(B / 3)}")
    print(f"rounds\t{res.rounds}")
    if res.flagged_partial:
        return _fail("rounding_stagnation", "oracle made no demand progress")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """`--config` and one override flag per `RunConfig` field."""
    p.add_argument("--config", help="declarative config file (key = value lines)")
    for name, parse in FIELD_PARSERS.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=parse,
                       choices=("typical", "none") if name == "window" else None)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and reused."""
    parser = argparse.ArgumentParser(
        prog="cutgap",
        description="integrality-gap instance generator and verifier for cut problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-ug", help="build the quotient gap instance and verify its SDP solution")
    _add_config_flags(p)
    p.set_defaults(func=cmd_build_ug)

    p = sub.add_parser("build-bes", help="run the reduction to a separator instance and verify")
    _add_config_flags(p)
    p.add_argument("--ug-file", help="check that this UG file is the configured instance")
    p.set_defaults(func=cmd_build_bes)

    p = sub.add_parser("verify", help="re-run invariant suites against serialized artifacts")
    p.add_argument("--ug-file")
    p.add_argument("--basis-file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pcp", help="acceptance probability and decoding for a proof file")
    p.add_argument("--ug-file", required=True)
    p.add_argument("--proof-file", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pcp)

    p = sub.add_parser("distortion", help="negative-type check and l1 distortion LP")
    p.add_argument("--metric-file", required=True)
    p.add_argument("--export", help="write the LP text instead of solving")
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser("round", help="iterative sparse cuts + random XOR rounding")
    p.add_argument("--graph-file", required=True)
    p.add_argument("--balance", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_round)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
