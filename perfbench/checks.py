"""Correctness checks for every benchmark operation, run outside the timed
region. Each check returns a list of problems; an empty list passes.

The checks recompute what they can by a second route instead of trusting
the report: a gap row's cut weight is recomputed through the verifier's
spectral formula from the written cut, distortion certificates are
re-bounded, and a rounded cut's weight and demand are recomputed from the
GRAPH file. Reported cut weights are never compared byte for byte, because
a better search may legitimately lower them; they are held to a frozen
ceiling instead.
"""

from __future__ import annotations

import os

import numpy as np

from cutgap import quotient as qt
from cutgap import separator as sp
from cutgap import unique_games as ug
from cutgap import verifier as pv

import frozen

TOL = 1e-12
CERTIFICATE_TOL = 1e-7
GAMMA_TOL = 1e-9


def cli_problems(stage: str, code, out: str) -> list[str]:
    """Exit status 0 and no FAIL record."""
    problems = []
    if code != 0:
        problems.append(f"{stage}: exit status {code}")
    problems += [f"{stage}: {ln}" for ln in out.splitlines() if ln.startswith("FAIL")]
    return problems


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def read_gap_row(out_dir: str) -> dict:
    header, values = _read(os.path.join(out_dir, "gap_row.tsv")).splitlines()[1:3]
    return dict(zip(header.split("\t"), values.split("\t")))


def check_ug_build(out_dir: str, k: int) -> list[str]:
    """The written instance parses and has the quotient's shape."""
    inst = ug.ug_from_text(_read(os.path.join(out_dir, "ug_instance.txt")))
    n = 1 << k
    expected = ((1 << n) // n, n)
    got = (inst.num_vertices, inst.num_labels)
    return [] if got == expected else [f"ug shape {got} != {expected}"]


def check_gap_row(ug_file: str, out_dir: str, k: int, eta: float,
                  epsilon: float, t: int, objectives=None,
                  ceilings=None) -> tuple[list[str], float]:
    """Checks one build-bes row; returns (problems, best cut weight)."""
    objectives = frozen.SDP_OBJECTIVE if objectives is None else objectives
    ceilings = frozen.BEST_CUT_CEILING if ceilings is None else ceilings
    row = read_gap_row(out_dir)
    objective = float(row["sdp_objective"])
    weight = float(row["best_cut_weight"])
    problems = []

    ref = objectives[(k, eta, epsilon, t)]
    if abs(objective - ref) > TOL:
        problems.append(f"sdp_objective {objective!r} != frozen {ref!r}")
    ceiling = ceilings[(k, eta, epsilon)]
    if weight > ceiling + TOL:
        problems.append(f"best_cut_weight {weight!r} above frozen ceiling {ceiling!r}")

    inst_ug = ug.ug_from_text(_read(ug_file))
    cut = sp.cut_from_text(_read(os.path.join(out_dir, "best_cut.txt")))
    size = 1 << inst_ug.num_labels
    if cut.size != inst_ug.num_vertices * size:
        return problems + [f"best_cut has {cut.size} entries"], weight
    proof = pv.Proof(inst_ug.num_labels, cut.reshape(-1, size))
    spectral = 1.0 - pv.acceptance_probability_exact(inst_ug, proof, epsilon)
    if abs(spectral - weight) > TOL:
        problems.append(f"best_cut_weight {weight!r} != spectral {spectral!r}")

    if t == 1:
        inst = sp.build_bes(inst_ug, epsilon)
        sol = qt.build_ug_sdp_solution(qt.build_quotient(k))
        closed = sp.sdp_objective_closed_form_t1(
            inst, sp.assign_sdp_solution(inst, sol, l_in=8, t=1))
        if abs(objective - closed) > TOL:
            problems.append(f"sdp_objective {objective!r} != closed form {closed!r}")
    return problems, weight


def _fields(out: str) -> dict:
    """First-column keyed view of tab-separated CLI output."""
    return {ln.split("\t")[0]: ln.split("\t")[1:] for ln in out.splitlines() if "\t" in ln}


VERIFY_OK = ("OK ug_structure", "OK ug_relabel_invariance",
             "OK ug_expansion_identity", "OK basis_orthonormality")


def check_verify(out: str) -> list[str]:
    lines = out.splitlines()
    return [f"verify: missing {ok!r}" for ok in VERIFY_OK
            if not any(ln.startswith(ok) for ln in lines)]


def check_pcp(out: str, inst_ug, proof_weight: float) -> list[str]:
    """Exact acceptance equals 1 - the separator's cut weight of the same
    cut, MC agrees within 4 standard errors, and the decoded labeling has
    the reported value."""
    f = _fields(out)
    exact = float(f["acceptance_exact"][0])
    mc, se = float(f["acceptance_mc"][0]), float(f["acceptance_mc"][2])
    problems = []
    if abs(exact - (1.0 - proof_weight)) > TOL:
        problems.append(f"pcp: acceptance {exact!r} != 1 - cut weight {proof_weight!r}")
    if abs(mc - exact) > 4 * se + 1e-9:
        problems.append(f"pcp: mc {mc!r} vs exact {exact!r} (stderr {se!r})")
    lam = np.array([int(v) for v in f["decoded_labeling"][0].split()])
    value = ug.value(inst_ug, lam)
    if abs(value - float(f["decoded_value"][0])) > TOL:
        problems.append(f"pcp: decoded value {f['decoded_value'][0]} != {value!r}")
    return problems


CERTIFICATES = ("primal_feasibility", "dual_feasibility", "comp_slack_rows",
                "comp_slack_cols", "duality_gap")


def check_distortion(out: str) -> list[str]:
    f = _fields(out)
    problems = []
    gamma = float(f["distortion"][0])
    if gamma < 1.0 - GAMMA_TOL:
        problems.append(f"distortion: gamma {gamma!r} < 1")
    for name in CERTIFICATES:
        val = float(f[f"certificate_{name}"][0])
        if not val < CERTIFICATE_TOL:
            problems.append(f"distortion: certificate_{name} {val!r}")
    return problems


def read_graph(path: str):
    lines = _read(path).splitlines()
    n = int(lines[0].split()[1])
    weights = np.zeros((n, n))
    demands = np.zeros((n, n))
    for ln in lines[1:]:
        i, j, w, d = ln.split()
        i, j = int(i), int(j)
        weights[i, j] = weights[j, i] = float(w)
        demands[i, j] = demands[j, i] = float(d)
    return weights, demands


def check_round(out: str, weights, demands) -> list[str]:
    """The printed cut's weight and demand, recomputed from the graph, and
    the B/3 demand requirement."""
    f = _fields(out)
    cut = np.array([c == "1" for c in f["cut"][0]])
    sep = cut[:, None] != cut[None, :]
    weight = float(np.sum(weights * sep) / 2)
    demand = float(np.sum(demands * sep) / 2)
    problems = []
    if abs(weight - float(f["edge_weight"][0])) > 1e-9:
        problems.append(f"round: edge_weight {f['edge_weight'][0]} != {weight!r}")
    if abs(demand - float(f["demand_cut"][0])) > 1e-9:
        problems.append(f"round: demand {f['demand_cut'][0]} != {demand!r}")
    if demand < float(f["demand_cut"][2]) - 1e-9:
        problems.append(f"round: demand {demand!r} below required {f['demand_cut'][2]}")
    return problems
