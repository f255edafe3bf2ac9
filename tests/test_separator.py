import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgap import separator as sp
from cutgap import tensor
from cutgap.cli import main
from cutgap.config import derive_seed
from cutgap.quotient import build_kv_instance, build_ug_sdp_solution
from cutgap.tensor import TRIANGLE_STEP_BYTES, triangle_sweep
from cutgap.separator import (
    GAIN_BAND,
    BESVectorAssignment,
    _FlipGains,
    _majority_cut,
    _orbit_representatives,
    _random_balanced_cuts,
    assign_sdp_solution,
    balanced_cut_search,
    bes_to_text,
    build_bes,
    cut_edge_weight,
    cut_edge_weight_mc,
    cut_from_text,
    cut_to_text,
    demand_cut,
    check_bes_feasibility,
    sdp_objective,
    sdp_objective_closed_form_t1,
)
from cutgap.unique_games import (
    UGInstance,
    opt_exhaustive,
    opt_search,
    value,
)
from cutgap.verifier import (
    Proof,
    acceptance_probability_exact,
    dictator_tables,
    piecewise_balance,
)
from fixtures import plant_instance
from oracles import (
    FLOAT_ROUTE_TOL,
    BESVectorHandle,
    _set_image_table,
    acceptance_exact_per_edge,
    agreement_by_enumeration,
    balanced_cut_search_per_trial,
    base_gram_block_per_pair,
    bes_expanded_text_loop,
    bes_inner,
    check_bes_feasibility_per_pair,
    disagreement_one_gather,
    edge_rows,
    level_sums_one_gather,
    noise_kernel_two_copies,
    random_balanced_cut_loop,
    sample_disagreements_choice,
    sdp_objective_per_row,
    shift_correlations,
    triangle_sweep_half,
    triangle_sweep_ordered,
)
from strategies import CUT_EPSILONS, ROW_FLOATS, correlation_rows, repeated_rows, ug_instances


def kv_fixture(k=2, eta=0.3, eps=0.3, l_in=8, t=1):
    u, q, cube = build_kv_instance(k, eta)
    sol = build_ug_sdp_solution(q)
    inst = build_bes(u, eps)
    assign = assign_sdp_solution(inst, sol, l_in=l_in, t=t)
    return u, q, inst, assign


def signs_of_points(n_bits):
    """(2^n, n) +/-1 matrix: row x is the point's coordinates."""
    return dictator_tables(np.arange(n_bits), n_bits).T


def dictator_cut(inst, lam):
    return dictator_tables(lam, inst.ug.num_labels).ravel()


def block_balance(inst, cut):
    return piecewise_balance(np.reshape(cut, (inst.num_blocks, inst.block_size)))


def test_demand_bookkeeping_k2():
    _, _, inst, _ = kv_fixture()
    assert inst.total_demand == 4 * math.comb(16, 2) == 480
    assert inst.balance == 240


def test_edge_weights_sum_to_one():
    # the edge distribution is a probability distribution: per UG edge the
    # (x, mu) mass is exactly wt(e)
    u, _, inst, _ = kv_fixture()
    n = inst.ug.num_labels
    dist = np.bitwise_count(
        np.arange(16, dtype=np.uint32)[:, None] ^ np.arange(16, dtype=np.uint32)[None, :]
    )
    total = 0.0
    for e in edge_rows(u):
        w = (inst.epsilon ** dist) * (1 - inst.epsilon) ** (n - dist) / 16.0
        total += e.weight * float(np.sum(w))
    assert abs(total - 1.0) < 1e-9


def flip_kernel(inst):
    """The noise kernel K[x, y] that `_FlipGains` builds for `inst`."""
    blocks = np.ones((inst.num_blocks, inst.block_size), dtype=np.int8)
    return _FlipGains(inst, blocks).kernel


def test_per_term_weight_formula():
    # weight of a single (e, x, mu) term with |mu-| = 1 at N = 4: the kernel
    # entry of the pair (x, x^1) is eps^1 (1-eps)^3
    _, _, inst, _ = kv_fixture(eps=0.1)
    e = edge_rows(inst.ug)[0]
    term = e.weight * (1 / 16) * 0.1 * 0.9**3
    kernel = flip_kernel(inst)
    assert abs(e.weight * kernel[1, 0] / 16 - term) < 1e-18


def test_noise_kernel_rows_sum_to_one():
    for k, eps in [(1, 0.23), (2, 0.1), (3, 0.45)]:
        inst = build_bes(build_kv_instance(k, 0.3)[0], eps)
        kernel = flip_kernel(inst)
        n, size = inst.ug.num_labels, inst.block_size
        assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) < 1e-12
        # K is the butterfly's pass on each unit vector: column y is K e_y
        units = noise_kernel_two_copies(np.eye(size), eps, n)
        assert np.max(np.abs(units.T - kernel)) <= 1e-15
        assert np.array_equal(kernel, kernel.T)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_noise_kernel_is_fixed_by_every_reindex_table(k):
    # the flip update reads K[T[x], T[y]] as K[x, y]: each table permutes
    # coordinates, so it keeps Hamming distance, and K depends on no more
    u = build_kv_instance(k, 0.3)[0]
    d = u.edge_distribution
    kernel = flip_kernel(build_bes(u, 0.3))
    for table in np.concatenate([d.tables, np.argsort(d.tables, axis=1)]):
        assert np.array_equal(kernel[np.ix_(table, table)], kernel)


def test_constant_cut_costs_nothing():
    _, _, inst, _ = kv_fixture()
    cut = np.ones(inst.num_vertices, dtype=np.int8)
    assert cut_edge_weight(inst, cut) == 0.0
    assert block_balance(inst, cut) == 1.0
    assert demand_cut(inst, cut) == 0.0


def test_half_split_blocks():
    _, _, inst, _ = kv_fixture()
    block = np.array([1] * 8 + [-1] * 8, dtype=np.int8)
    cut = np.tile(block, 4)
    assert block_balance(inst, cut) == 0.0
    # sum_i p_i (1 - p_i) |V_i|^2 = 4 * (1/4) * 256: every cross pair within
    # each block is a cut demand
    assert demand_cut(inst, cut) == 256.0


def test_dictator_cut_is_one_minus_acceptance_on_planted():
    # cut weight of the completeness cut = 1 - [val (1-eps) + (1-val)/2],
    # so it is at most eta + eps
    u, hidden = plant_instance(6, 4, 0.1, 0.8, seed=0)
    inst = build_bes(u, 0.2)
    cut = dictator_cut(inst, hidden)
    val = value(u, hidden)
    expected = 1 - (val * (1 - 0.2) + (1 - val) * 0.5)
    got = cut_edge_weight(inst, cut)
    assert abs(got - expected) < 1e-12
    assert got <= 0.1 + 0.2 + 1e-9


def test_mc_cut_weight_rejects_no_samples_and_a_cut_of_another_length():
    # no samples would divide by zero; a cut of another length has no
    # block of 2^N values per UG vertex
    _, _, inst, _ = kv_fixture()
    cut = np.ones(inst.num_vertices)
    with pytest.raises(ValueError, match="at least one sample"):
        cut_edge_weight_mc(inst, cut, samples=0, seed=0)
    for bad in (cut[:-1], np.ones(inst.num_vertices + inst.block_size)):
        with pytest.raises(ValueError, match="cut length mismatch"):
            cut_edge_weight_mc(inst, bad, samples=100, seed=0)


def test_random_cut_weight_near_half():
    _, _, inst, _ = kv_fixture()
    rng = np.random.default_rng(7)
    cut = rng.choice([-1, 1], size=inst.num_vertices)
    assert abs(cut_edge_weight(inst, cut) - 0.5) < 0.15


def test_mc_cut_weight_agrees_with_exact():
    _, _, inst, _ = kv_fixture()
    rng = np.random.default_rng(9)
    cut = rng.choice([-1, 1], size=inst.num_vertices)
    exact = cut_edge_weight(inst, cut)
    est, se, trustworthy = cut_edge_weight_mc(inst, cut, samples=30000, seed=11)
    assert abs(est - exact) < 4 * se
    assert trustworthy


def test_unit_norms_and_antipodes():
    _, _, inst, assign = kv_fixture(t=3)
    signs = signs_of_points(4)
    a = BESVectorHandle(2, signs[5], l_in=8, t=3)
    assert bes_inner(a, a, assign.cache) == 1.0
    b = BESVectorHandle(2, signs[16 - 1 - 5], l_in=8, t=3)  # complement = antipode
    assert bes_inner(a, b, assign.cache) == -1.0


def test_sdp_objective_matches_explicit_edge_list():
    # independent route for every t: (1/4) sum_pairs wt ||V_a - V_b||^2 over
    # the expanded edge export, with inner products from the symbolic handles
    _, q, inst, _ = kv_fixture()
    signs = signs_of_points(4)
    pairs = [ln.split() for ln in bes_to_text(inst, expanded=True).splitlines()[1:]]
    for t in (1, 3, 5):
        assign = assign_sdp_solution(inst, build_ug_sdp_solution(q), l_in=8, t=t)
        handles = [BESVectorHandle(v, signs[x], l_in=8, t=t)
                   for v in range(inst.num_blocks) for x in range(inst.block_size)]
        gram = np.array([[bes_inner(a, b, assign.cache) for b in handles] for a in handles])
        expected = 0.0
        for v, x, w, y, wt in pairs:
            a = int(v) * inst.block_size + int(x)
            b = int(w) * inst.block_size + int(y)
            expected += 0.25 * float(wt) * (gram[a, a] + gram[b, b] - 2 * gram[a, b])
        assert abs(sdp_objective(inst, assign) - expected) < 1e-13, t


def test_sdp_objective_k3_frozen():
    # the benchmark's frozen k=3 objectives (perfbench/frozen.py)
    for t, frozen in ((1, 0.49966159097948787), (3, 0.4999999808913364)):
        _, _, inst, assign = kv_fixture(k=3, eta=0.3, eps=0.3, t=t)
        assert abs(sdp_objective(inst, assign) - frozen) < 1e-12


def test_sdp_objective_rejects_non_xor_permutation():
    u, _, _, assign = kv_fixture()
    perm = u.perm.copy()
    perm[0] = [0, 1, 3, 2]
    bad = build_bes(UGInstance(u.num_vertices, u.num_labels, u.v, u.w, u.weight, perm), 0.3)
    with pytest.raises(ValueError):
        sdp_objective(bad, assign)


def test_sdp_objective_exact_vs_closed_form_t1():
    for k, eta in ((2, 0.3), (2, 0.2), (3, 0.25)):
        _, _, inst, assign = kv_fixture(k=k, eta=eta, eps=eta)
        assert abs(
            sdp_objective(inst, assign) - sdp_objective_closed_form_t1(inst, assign)
        ) < 1e-12


def test_sdp_objective_single_term_is_unit_distance():
    # each (e, x, mu) term contributes (2 - 2 inner)/4; with all weight on a
    # term the objective is below 1 (unit vectors)
    _, _, inst, assign = kv_fixture()
    obj = sdp_objective(inst, assign)
    assert 0.0 <= obj <= 1.0


def test_sdp_objective_grows_with_outer_power():
    _, _, inst, a1 = kv_fixture(t=1)
    _, _, _, a3 = kv_fixture(t=3)
    assert sdp_objective(inst, a3) >= sdp_objective(inst, a1) - 1e-12


def brute_force_triangle(assign):
    """Oracle: the worst term g(a, c) + g(b, c) - 1 - g(a, b) over every
    ordered triple of the full base Gram, or 0 when none is positive."""
    corr = shift_correlations(assign.cache.N)
    g = np.einsum("xyd,vwd->vxwy", corr, assign.cache.table) / assign.cache.N
    g = g.reshape(assign.inst.num_vertices, -1)
    viol = (g[:, None, :] + g[None, :, :]) - (1.0 + g[:, :, None])
    return max(float(np.max(viol)), 0.0)


def planted_row_fixture(seed, m=5, n=4, l_in=8):
    """m blocks of 2^n points: every diagonal row is e_0 (block v's points
    are the sign vectors x / sqrt(N)), and about half the block pairs carry
    one of three random rows of l1 norm below 1, in multiples of 1/16 so
    that every Gram entry is exact. The certificate treats a pair at +/-1 as
    equal or opposite points. That holds here although the tables need not
    be Grams of vectors: only a diagonal Gram has such entries, at y = x and
    y = -x, and under any row the Gram row of -x is that of x negated."""
    rng = np.random.default_rng(seed)
    u, _ = plant_instance(m, n, 0.0, 0.9, seed=3)  # only its shape is read
    table = np.zeros((m, m, n))
    table[np.arange(m), np.arange(m), 0] = 1.0
    c = rng.integers(-4, 5, size=(3, n))
    pool = np.trunc(c * 15 / np.maximum(np.abs(c).sum(axis=1, keepdims=True), 15)) / 16
    for v in range(m):
        for w in range(v + 1, m):
            if rng.random() < 0.5:
                table[v, w] = table[w, v] = pool[rng.integers(3)]
    return BESVectorAssignment(build_bes(u, 0.2), SimpleNamespace(table=table, N=n), l_in, 1)


def test_bes_feasibility_k2_exact():
    _, _, inst, assign = kv_fixture()
    rep = check_bes_feasibility(inst, assign)
    assert rep.unit_norm_residual == 0.0
    assert rep.well_separatedness_residual == 0.0
    assert rep.balance_lhs == rep.balance_exact_value == 256.0
    assert rep.balance_feasible()
    assert rep.triangle_violation == 0.0
    assert rep.triples_checked == 64**3


def test_innerprod_bracket_on_edges():
    # for an edge whose matched base inner product is 1 - eta~, every sign
    # pair obeys (1-eta~)^8 (1-2 Delta) +/- (2 eta~)^4
    u, q, inst, assign = kv_fixture(k=3, eta=0.2, eps=0.2)
    rng = np.random.default_rng(13)
    signs = signs_of_points(8)
    edges = edge_rows(u)
    for ei in rng.choice(len(edges), size=25):
        e = edges[int(ei)]
        if e.v == e.w:
            continue
        gram = (
            assign.cache.basis[e.v].astype(float)
            @ assign.cache.basis[e.w].astype(float).T
        ) / 8
        eta_t = 1 - gram[e.perm[0], 0]
        for _ in range(20):
            x = int(rng.integers(256))
            y = int(rng.integers(256))
            g = assign.base_inner_flat(
                [e.v * 256 + x], [e.w * 256 + y]
            )[0]
            delta = float(np.mean(signs[x][e.perm] != signs[y]))
            mid = (1 - eta_t) ** 8 * (1 - 2 * delta)
            slack = (2 * eta_t) ** 4
            assert mid - slack - 1e-9 <= g <= mid + slack + 1e-9


def test_innerprod_bracket_exhaustive_all_edges_k3():
    # every realized edge term: |base - (1-eta~)^8 (1-2 Delta)| <= (2 eta~)^4
    # where 1-eta~ is the matched base inner product of the edge; the Delta
    # between x o pi and y equals popcount(x ^ y') since pi is a bijection
    u, q, inst, assign = kv_fixture(k=3, eta=0.3, eps=0.3)
    n = 8
    signs = signs_of_points(n).astype(np.float64)
    dist = np.bitwise_count(
        np.arange(256, dtype=np.uint32)[:, None]
        ^ np.arange(256, dtype=np.uint32)[None, :]
    ).astype(np.float64)
    worst = -np.inf
    for e in edge_rows(u):
        m = assign.cache.gram(e.v, e.w)
        base_gram = (
            assign.cache.basis[e.v].astype(np.float64)
            @ assign.cache.basis[e.w].astype(np.float64).T
        ) / n
        eta_t = 1 - base_gram[e.perm[0], 0]
        m_perm = m[:, np.argsort(e.perm)]
        q_mat = signs @ m_perm @ signs.T / n
        mid = (1 - eta_t) ** 8 * (1 - 2 * dist / n)
        slack = (2 * eta_t) ** 4
        worst = max(worst, float(np.max(np.abs(q_mat - mid) - slack)))
    assert worst <= 1e-9


def test_bes_feasibility_k3_exhaustive():
    # every base inner product is a multiple of 2^-27, so the worst term of
    # all 8192^3 ordered triples is exactly 0 (the triple (a, a, a) attains it)
    _, _, inst, assign = kv_fixture(k=3, eta=0.3, eps=0.3)
    rep = check_bes_feasibility(inst, assign)
    assert rep.unit_norm_residual == 0.0
    assert rep.well_separatedness_residual == 0.0
    assert rep.balance_lhs == rep.balance_exact_value
    assert rep.balance_feasible()
    assert rep.triangle_violation == 0.0
    assert rep.triples_checked == 8192**3
    assert rep.adversarial_pairs == 0


def test_bes_feasibility_k3_budget_below_ten(tmp_path, capsys):
    # --budget-triples once sized build-bes's sampled triangle families (a
    # budget of 1-9 left none of the antipodal ones); the certificate now
    # covers every triple whatever the budget
    assert main(["build-bes", "--k", "3", "--eta", "0.3", "--epsilon", "0.3",
                 "--budget-triples", "5", "--budget-samples", "2000",
                 "--out", str(tmp_path)]) == 0
    assert "triangle=0 over 549755813888 checks" in capsys.readouterr().out


@pytest.mark.parametrize("eta", [0.15, 0.25, 0.3, 0.35, 0.45])
def test_triangle_certificate_matches_brute_force_k2(eta):
    _, _, inst, assign = kv_fixture(eta=eta)
    rep = check_bes_feasibility(inst, assign)
    assert rep.triples_checked == 64**3
    assert rep.triangle_violation == brute_force_triangle(assign) == 0.0


def test_triangle_certificate_matches_brute_force_planted_rows():
    violating = 0
    for seed in range(120):
        assign = planted_row_fixture(seed)
        worst = brute_force_triangle(assign)
        rep = check_bes_feasibility(assign.inst, assign)
        assert rep.triangle_violation == worst, seed
        assert rep.triples_checked == 80**3
        violating += worst > 0
    assert violating >= 30  # a quarter of the fixtures have a violation


def test_triangle_certificate_matches_brute_force_four_point_blocks():
    # the 6 pair orbits of a 4-point block are fewer than one sweep step
    # even for int64 numerators (two gathered rows of 4 entries a pair)
    assert TRIANGLE_STEP_BYTES // (2 * 4 * np.dtype(np.int64).itemsize) > 6
    violating = 0
    for seed in range(60):
        assign = planted_row_fixture(seed, m=8, n=2)
        worst = brute_force_triangle(assign)
        assert check_bes_feasibility(assign.inst, assign).triangle_violation == worst, seed
        violating += worst > 0
    assert violating >= 10


def test_triangle_certificate_int64_numerators_match_brute_force():
    # at l_in = 16 the numerators 4^17 g need int64 (3 * 2^34 > int32)
    assert np.min_scalar_type(-3 * 4**17) == np.int64
    violating = 0
    for seed in range(20):
        assign = planted_row_fixture(seed, l_in=16)
        worst = brute_force_triangle(assign)
        assert check_bes_feasibility(assign.inst, assign).triangle_violation == worst, seed
        violating += worst > 0
    assert violating >= 3


def test_triangle_certificate_rejects_inexact_gram():
    # 0.1 is no multiple of 4^-9, so the row's Gram has no integer numerators
    assign = planted_row_fixture(0)
    assign.cache.table[0, 1] = assign.cache.table[1, 0] = [0.5, 0.1, 0.0, 0.0]
    with pytest.raises(ValueError, match="not multiples of 4\\^-9"):
        check_bes_feasibility(assign.inst, assign)


def test_balance_claim_chain_on_random_cuts():
    # whenever a cut separates at least B/3 of the demand, Cauchy-Schwarz
    # forces piecewise balance <= sqrt((2n+1)/(3n)) < 5/6 (the finite-n form
    # of the sqrt(2/3) bound)
    _, _, inst, _ = kv_fixture()
    n = inst.block_size
    finite_bound = math.sqrt((2 * n + 1) / (3 * n))
    assert finite_bound < 5 / 6
    rng = np.random.default_rng(47)
    premise_hits = 0
    for _ in range(300):
        p_target = rng.uniform(0, 1, size=inst.num_blocks)
        cut = np.concatenate([
            np.where(rng.random(n) < p, 1, -1) for p in p_target
        ]).astype(np.int8)
        if demand_cut(inst, cut) >= inst.balance / 3.0:
            premise_hits += 1
            assert block_balance(inst, cut) <= finite_bound + 1e-12
    assert premise_hits > 50  # the premise fired often enough to mean something


def test_balanced_cut_search_feasibility_and_quality():
    u, _, inst, assign = kv_fixture()
    lam, _ = opt_exhaustive(u)
    res = balanced_cut_search(inst, seed=3, labelings=[lam])
    assert res.balance <= 5 / 6 + 1e-9
    dictator_weight = cut_edge_weight(inst, dictator_cut(inst, lam))
    assert res.edge_weight <= dictator_weight + 1e-12
    assert all(b <= 5 / 6 + 1e-9 for _, _, b in res.candidates)


def test_balanced_cut_search_rejects_out_of_range_labeling():
    # the labeling-matched dictator cut of [9, 9, 9, 9] at N = 4 used to be
    # all +1 blocks; the one dictator builder now refuses it
    _, _, inst, _ = kv_fixture()
    with pytest.raises(ValueError, match="label out of range"):
        balanced_cut_search(inst, labelings=[np.full(inst.num_blocks, 9)])


def test_cut_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    cut = rng.choice([-1, 1], size=64).astype(np.int8)
    text = cut_to_text(cut)
    assert np.array_equal(cut_from_text(text), cut)
    # entries are whitespace-separated integers, as before the line numbers
    assert cut_from_text("1 -1\n\n+1\n").tolist() == [1, -1, 1]
    assert cut_from_text("").tolist() == []
    # a bad entry names its line: not an integer, or an integer other than
    # +/-1 (300 does not fit the int8 result either)
    for text, line in (("1\nx\n", 2), ("1\n2\n", 2), ("-1\n\n1 0\n", 3),
                       ("1.0\n", 1), ("1\n-1\n300\n", 3)):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            cut_from_text(text)


def test_cut_text_is_one_entry_per_line_and_rejects_other_entries():
    _, _, inst, _ = kv_fixture(k=3)
    cut = random_balanced_cut_loop(inst, np.random.default_rng(3))
    text = "".join(f"{int(v)}\n" for v in cut)
    assert cut_to_text(cut) == cut_to_text(cut.astype(np.float64)) == text
    assert cut_to_text(np.array([], dtype=np.int8)) == "\n"
    for bad in ([1, 0, -1], [1, 2], [-1, 1.5], np.array([1, -128], dtype=np.int8)):
        with pytest.raises(ValueError, match="cut entries must be \\+/-1"):
            cut_to_text(bad)


def test_bes_export_expanded_mass():
    _, _, inst, _ = kv_fixture()
    text = bes_to_text(inst)
    lines = text.strip().splitlines()
    head = lines[0].split()
    assert head[0] == "BES" and head[1] == "4" and head[2] == "4"
    total = sum(float(ln.split()[4]) for ln in lines[1:])
    assert abs(total - 1.0) < 1e-9


def test_bes_export_params_mode():
    u, _, inst, _ = kv_fixture(k=3, eta=0.2, eps=0.2)
    text = bes_to_text(inst)
    assert text.splitlines()[0].endswith("params")
    assert "UG 8 32" in text


def test_build_bes_rejects_oversized_exact():
    u, _ = plant_instance(3, 9, 0.1, 1.0, seed=1)
    with pytest.raises(ValueError):
        build_bes(u, 0.2)


def _spectral_cut_weight(inst, cut):
    """One minus the acceptance of the cut's blocks by the float spectral
    route."""
    proof = Proof(inst.ug.num_labels, np.asarray(cut).reshape(inst.num_blocks, inst.block_size))
    return 1.0 - acceptance_exact_per_edge(inst.ug, proof, inst.epsilon)


@pytest.mark.parametrize("k", [2, 3])
def test_batched_cut_weight_matches_spectral_route(k):
    _, _, inst, _ = kv_fixture(k=k)
    rng = np.random.default_rng(23)
    lam = rng.integers(0, inst.ug.num_labels, size=inst.num_blocks)
    cuts = [dictator_cut(inst, np.zeros(inst.num_blocks, dtype=np.int64)),
            dictator_cut(inst, lam), _majority_cut(inst),
            rng.choice([-1, 1], size=inst.num_vertices)]
    for cut in cuts:
        assert abs(cut_edge_weight(inst, cut) - _spectral_cut_weight(inst, cut)) < FLOAT_ROUTE_TOL


def test_batched_cut_weight_matches_spectral_route_general_permutations():
    u, hidden = plant_instance(6, 4, 0.15, 0.9, seed=9)
    d = u.edge_distribution
    perm = d.perms[d.table_of]
    assert not np.array_equal(perm, np.arange(4) ^ perm[:, :1])  # not XOR shifts
    inst = build_bes(u, 0.2)
    rng = np.random.default_rng(29)
    for cut in (dictator_cut(inst, hidden), _majority_cut(inst),
                rng.choice([-1, 1], size=inst.num_vertices)):
        assert abs(cut_edge_weight(inst, cut) - _spectral_cut_weight(inst, cut)) < FLOAT_ROUTE_TOL


def test_edge_distribution_tables():
    # one reindex table per distinct permutation, at most N of them on the
    # quotient instance, each mapping z to y with bit i of y = bit pi(i) of z
    for k, n in ((2, 4), (3, 8)):
        u, _, _, _ = kv_fixture(k=k)
        dist = u.edge_distribution
        assert dist is u.edge_distribution  # built once per instance
        assert dist.tables.shape == (n, 1 << n)
        assert dist.perms.shape == (n, n)
        z = np.arange(1 << n)
        for e, p in zip(edge_rows(u), dist.table_of):
            y = sum(((z >> int(e.perm[i])) & 1) << i for i in range(n))
            assert np.array_equal(dist.tables[p], y)


def _instances_with_tables():
    """The k=2 and k=3 quotient instances and five planted instances with
    random permutations."""
    yield from (build_kv_instance(k, 0.3)[0] for k in (2, 3))
    for seed in range(5):
        yield plant_instance(6 + seed, 3 + seed % 3, 0.2, 0.9, seed=seed)[0]


def test_edge_distribution_is_the_edge_list_as_arrays():
    # the instance's edge columns: endpoints, weights and per-edge
    # permutations perms[table_of] in edge order, the distinct permutations
    # sorted and each used
    for u in _instances_with_tables():
        d = u.edge_distribution
        assert d.v is u.v and d.w is u.w and d.weight is u.weight
        assert np.array_equal(d.perms[d.table_of], u.perm)
        assert sorted(map(tuple, d.perms)) == [tuple(p) for p in d.perms]
        assert np.array_equal(np.unique(d.table_of), np.arange(len(d.perms)))


def test_set_image_oracle_equals_reindex_tables():
    # the verifier pulls spectra through tables[p]: as a map on subset
    # bitmasks it must send alpha to {pi^-1(i) : i in alpha}
    for u in _instances_with_tables():
        d = u.edge_distribution
        for perm, table in zip(d.perms, d.tables):
            assert np.array_equal(_set_image_table(perm), table)


def test_mc_cut_weight_pinned():
    # the (e, x, mu) draws for a seed are fixed; these counts were taken
    # before the sampler moved into the shared edge distribution
    _, _, inst, _ = kv_fixture()
    cut = np.random.default_rng(9).choice([-1, 1], size=inst.num_vertices)
    assert cut_edge_weight_mc(inst, cut, samples=30000, seed=11) == (
        0.4425, 0.002867599170037542, True)
    u, _ = plant_instance(6, 4, 0.15, 0.9, seed=9)
    tables = np.random.default_rng(11).choice([-1, 1], size=(6, 16)).astype(np.int8)
    assert cut_edge_weight_mc(build_bes(u, 0.2), tables.ravel(), samples=40000, seed=13) == (
        0.503275, 0.0024999463712997924, True)


@pytest.mark.parametrize("k, pinned", [(2, [34645, 34533, 34515]),
                                       (3, [35129, 35125, 35169])])
def test_mc_disagreements_match_the_product_form(k, pinned):
    # the product with narrow unsigned bit weights gives the same flip
    # patterns from the same draws; 70000 samples take two batches, and the
    # pinned counts are the int64-product sampler's
    _, _, inst, _ = kv_fixture(k=k)
    d = inst.ug.edge_distribution
    blocks = np.random.default_rng(5).choice([-1, 1], size=(inst.num_blocks, inst.block_size))
    counts = [d.sample_disagreements(blocks, 70000, seed, 0.3) for seed in (0, 1, 7)]
    assert counts == [sample_disagreements_choice(d, blocks, 70000, seed, 0.3)
                      for seed in (0, 1, 7)]
    assert counts == pinned


@pytest.mark.parametrize("eta", [0.15, 0.25, 0.35, 0.45])
def test_expanded_export_equals_the_pair_loop(eta):
    # every k=2 (eta, epsilon) pair of the benchmark's sweep grid: the array
    # export sums each pair's weights in the loop's (edge, x, y') order
    u, _, _ = build_kv_instance(2, eta)
    for eps in (0.15, 0.25, 0.35, 0.45):
        inst = build_bes(u, eps)
        assert bes_to_text(inst, expanded=True) == bes_expanded_text_loop(inst)


def test_within_block_grams_are_the_distance_formula_k3():
    # every block's Gram read from the table is 1 - 2 d(x, y) / N exactly,
    # which the well-separatedness and balance identities rely on
    _, _, inst, assign = kv_fixture(k=3)
    idx = np.arange(256, dtype=np.uint32)
    base = 1.0 - 2.0 * np.bitwise_count(idx[:, None] ^ idx[None, :]) / 8
    for v in range(inst.num_blocks):
        assert np.array_equal(assign.base_gram_block(v, v), base)


def test_within_block_sweep_reads_each_blocks_gram():
    # 6 blocks of 16 points with orthogonal blocks; block 2 gets the negated
    # Gram -(x . y)/N, whose worst triangle term is 2 at (x, x, -x). Its
    # diagonal row differs from the other blocks', so the check must sweep
    # that row's block triple to find it.
    u, _ = plant_instance(6, 4, 0.0, 0.9, seed=3)
    inst = build_bes(u, 0.2)
    table = np.zeros((6, 6, 4))
    table[np.arange(6), np.arange(6), 0] = 1.0
    table[2, 2, 0] = -1.0
    assign = BESVectorAssignment(inst, SimpleNamespace(table=table, N=4), 8, 1)
    rep = check_bes_feasibility(inst, assign)
    assert rep.triangle_violation == brute_force_triangle(assign) == 2.0
    assert rep.triples_checked == 96**3
    table[2, 2, 0] = 1.0
    rep = check_bes_feasibility(inst, assign)
    assert rep.triangle_violation == brute_force_triangle(assign) == 0.0


# the 16 (eta, epsilon) instances of the benchmark's k=2 grid (its t axis
# does not change the instance) and three k=3 instances
GRID_K2 = [(2, eta, eps) for eta in (0.15, 0.25, 0.35, 0.45)
           for eps in (0.15, 0.25, 0.35, 0.45)]
POINTS_K3 = [(3, 0.1, 0.2), (3, 0.3, 0.3), (3, 0.45, 0.45)]


def seeded_cuts(inst, seed, count=60):
    """The majority cut, then random balanced and random +/-1 cuts in turn;
    then cuts whose blocks repeat: the coordinate dictators, a labeling
    dictator with repeated labels and a random cut with two equal blocks."""
    rng = np.random.default_rng(seed)
    cuts = [_majority_cut(inst)]
    while len(cuts) < count:
        cuts.append(random_balanced_cut_loop(inst, rng) if len(cuts) % 2 else
                    rng.choice(np.array([-1, 1], dtype=np.int8), size=inst.num_vertices))
    m, n = inst.num_blocks, inst.ug.num_labels
    cuts += [dictator_cut(inst, np.full(m, i)) for i in range(n)]
    lam = rng.integers(0, n, size=m)
    lam[1] = lam[0]
    cuts.append(dictator_cut(inst, lam))
    blocks = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, inst.block_size))
    blocks[2] = blocks[0]
    cuts.append(blocks.ravel())
    return cuts


def assert_cut_weights_match_oracles(inst, cuts, float_only=()):
    """Each cut's weight is within FLOAT_ROUTE_TOL of the float route and,
    unless its index is in `float_only`, its level sums equal the one-gather
    oracle's; up to 4 labels its weight, and the acceptance of its blocks,
    are the enumeration's, correctly rounded."""
    d = inst.ug.edge_distribution
    for i, cut in enumerate(cuts):
        blocks = cut.reshape(inst.num_blocks, inst.block_size)
        weight = cut_edge_weight(inst, cut)
        if i not in float_only:
            assert np.array_equal(d.level_sums(blocks), level_sums_one_gather(d, blocks)), i
        assert abs(weight - disagreement_one_gather(d, blocks, inst.epsilon)) < FLOAT_ROUTE_TOL, i
        if inst.ug.num_labels <= 4:
            exact_weight, exact_acceptance = agreement_by_enumeration(d, blocks, inst.epsilon)
            assert weight == float(exact_weight), i
            proof = Proof(inst.ug.num_labels, blocks)
            assert acceptance_probability_exact(inst.ug, proof, inst.epsilon) == \
                float(exact_acceptance), i


@pytest.mark.parametrize("k, eta, eps", GRID_K2 + POINTS_K3)
def test_chunked_cut_weight_is_the_one_gather_bit_for_bit(k, eta, eps):
    # the exact weight sums one distinct row of v at a time, each over that
    # row's distinct keys; its integer level sums are the one gather's bit
    # for bit, and its weight is within FLOAT_ROUTE_TOL of the float route.
    # Every cut meets the float route. At k = 3 the random cuts past the
    # first 20 read the own-row plan as the 19 before them do, and skip the
    # int64 one-gather oracle, which takes about 15 ms a cut there
    inst = build_bes(build_kv_instance(k, eta)[0], eps)
    assert_cut_weights_match_oracles(inst, seeded_cuts(inst, seed=k * 100 + int(eta * 100)),
                                     float_only=range(20, 60) if k == 3 else ())


def test_row_keyed_cut_weight_general_permutations():
    # 345 edges over 342 distinct permutations, no two edges reading the
    # same pulled row of a cut whose blocks are all distinct
    u, hidden = plant_instance(30, 8, 0.1, 0.8, seed=1)
    assert len(u.edge_distribution.perms) > u.num_labels
    inst = build_bes(u, 0.3)
    assert_cut_weights_match_oracles(inst, seeded_cuts(inst, seed=5) + [dictator_cut(inst, hidden)])


def test_exact_routes_are_the_enumeration_on_general_permutations():
    # 4 labels with general permutations: weights and acceptances are the
    # correctly rounded rationals
    u, hidden = plant_instance(6, 4, 0.15, 0.9, seed=9)
    for eps in (0.2, 0.45):
        inst = build_bes(u, eps)
        assert_cut_weights_match_oracles(
            inst, seeded_cuts(inst, seed=7, count=30) + [dictator_cut(inst, hidden)])


def test_exact_routes_are_the_enumeration_on_every_k1_cut():
    inst = build_bes(build_kv_instance(1, 0.3)[0], 0.3)
    assert_cut_weights_match_oracles(inst, [np.array(c, dtype=np.int8) for c in
                                            itertools.product((-1, 1), repeat=inst.num_vertices)])


@pytest.mark.parametrize("entry", [0.0, -0.0, 0.5, np.nan, 2])
def test_cut_weight_rejects_entries_other_than_signs(entry):
    # the exact route reads the integer spectra of +/-1 rows only
    _, _, inst, _ = kv_fixture()
    cut = _majority_cut(inst).astype(np.float64 if isinstance(entry, float) else np.int64)
    cut[inst.block_size:2 * inst.block_size] = entry
    with pytest.raises(ValueError, match="entries must be \\+/-1"):
        cut_edge_weight(inst, cut)
    # one bad entry in otherwise distinct blocks, and a whole cut of it
    cut = np.random.default_rng(4).choice([-1.0, 1.0], size=inst.num_vertices)
    cut[5] = entry
    for bad in (cut, np.full(inst.num_vertices, entry)):
        with pytest.raises(ValueError, match="entries must be \\+/-1"):
            cut_edge_weight(inst, bad)


@pytest.mark.parametrize("k", [2, 3])
def test_dictator_cut_weight_is_the_completeness_identity(k):
    # the dictator cut of a labeling lam: a satisfied edge's queries
    # correlate by rho = 1 - 2 eps, any other edge's not at all, so its
    # weight is (sum_e wt(e) - rho val(lam)) / 2 and its acceptance
    # 1/2 + rho val(lam) / 2, in rationals
    for eta in (0.15, 0.3):
        u = build_kv_instance(k, eta)[0]
        d = u.edge_distribution
        total = sum(map(Fraction, u.weight.tolist()))
        rng = np.random.default_rng(k * 100 + int(eta * 100))
        for eps in (0.1, 0.3, 0.45):
            inst = build_bes(u, eps)
            rho = 1 - 2 * Fraction(eps)
            for _ in range(10):
                lam = rng.integers(0, u.num_labels, size=u.num_vertices)
                satisfied = lam[d.v] == d.perms[d.table_of, lam[d.w]]
                val = sum(map(Fraction, u.weight[satisfied].tolist()))
                cut = dictator_cut(inst, lam)
                assert cut_edge_weight(inst, cut) == float((total - rho * val) / 2), (eta, eps)
                proof = Proof(u.num_labels, cut.reshape(inst.num_blocks, inst.block_size))
                assert acceptance_probability_exact(u, proof, eps) == float((1 + rho * val) / 2)


def test_k3_search_cut_weight_is_pinned():
    # the k = 3 gap row's search cut is the majority cut: its weight and
    # acceptance are the exact values, correctly rounded, which the float
    # routes missed by 176 and 64 ulps
    u = build_kv_instance(3, 0.3)[0]
    inst = build_bes(u, 0.3)
    res = balanced_cut_search(inst, seed=0, local_search=False)
    assert np.array_equal(res.cut, _majority_cut(inst))
    assert res.edge_weight == cut_edge_weight(inst, res.cut) == 0.336063029296875
    proof = Proof(8, res.cut.reshape(inst.num_blocks, inst.block_size))
    assert acceptance_probability_exact(u, proof, 0.3) == 0.663936970703125


@pytest.mark.parametrize("k, eta, eps, window", [
    *(pytest.param(k, eta, eps, "typical", id=f"{k}-{eta}-{eps}")
      for k, eta, eps in GRID_K2 + POINTS_K3),
    *(pytest.param(k, eta, eps, "none", id=f"{k}-{eta}-{eps}-none")
      for k, eta, eps in [(2, 0.3, 0.3), (2, 0.15, 0.45), (3, 0.3, 0.3), (3, 0.1, 0.2)]),
])
def test_distinct_correlation_objective_is_the_per_row_loop_bit_for_bit(k, eta, eps, window):
    u, q, _ = build_kv_instance(k, eta, window=window)
    inst = build_bes(u, eps)
    sol = build_ug_sdp_solution(q)
    for l_in in (2, 8, 16):
        for t in (1, 3, 5):
            assign = assign_sdp_solution(inst, sol, l_in=l_in, t=t)
            assert sdp_objective(inst, assign) == sdp_objective_per_row(inst, assign), (l_in, t)


def assert_same_search(res, ref):
    assert np.array_equal(res.cut, ref.cut)
    assert res.edge_weight == ref.edge_weight
    assert res.balance == ref.balance
    assert res.demand == ref.demand
    assert res.candidates == ref.candidates


@pytest.mark.parametrize("k, eta, eps", GRID_K2)
def test_gain_search_is_the_per_trial_search_bit_for_bit(k, eta, eps):
    u = build_kv_instance(k, eta)[0]
    inst = build_bes(u, eps)
    lam, _ = opt_exhaustive(u)
    for seed in range(6):
        assert_same_search(balanced_cut_search(inst, seed=seed, labelings=[lam]),
                           balanced_cut_search_per_trial(inst, seed=seed, labelings=[lam]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_cuts_read_the_generator_as_one_permutation_per_block(k):
    # the one shuffle gives the cuts of a permutation per block and cut, as
    # int8 rows, and leaves the generator where those calls leave it, so
    # the local search that follows visits the points in the same order
    inst = build_bes(build_kv_instance(k, 0.3)[0], 0.3)
    for seed in range(4):
        for count in (1, 8):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            cuts = _random_balanced_cuts(inst, rng, count)
            want = np.stack([random_balanced_cut_loop(inst, ref) for _ in range(count)])
            assert cuts.dtype == want.dtype and np.array_equal(cuts, want), (seed, count)
            assert np.array_equal(rng.permutation(inst.num_vertices),
                                  ref.permutation(inst.num_vertices)), (seed, count)


def assert_gains_match_exact(inst, cut, gains, points):
    """Each point's gain against the exact weight difference of its flip."""
    base = cut_edge_weight(inst, cut)
    for v in points:
        a = int(cut[v])
        cut[v] = -a
        diff = cut_edge_weight(inst, cut) - base
        cut[v] = a
        assert abs(gains.gain(*divmod(int(v), inst.block_size), a) - diff) <= 1e-13, v


def flip(cut, gains, v, size):
    a = int(cut[v])
    cut[v] = -a
    gains.flip(*divmod(int(v), size), a)


@pytest.mark.parametrize("eta, eps", [(0.15, 0.15), (0.3, 0.3), (0.45, 0.45)])
def test_flip_gains_match_exact_differences_k2(eta, eps):
    inst = build_bes(build_kv_instance(2, eta)[0], eps)
    rng = np.random.default_rng(int(eta * 100))
    cut = random_balanced_cut_loop(inst, rng)
    gains = _FlipGains(inst, cut.reshape(inst.num_blocks, inst.block_size))
    everywhere = range(inst.num_vertices)
    assert_gains_match_exact(inst, cut, gains, everywhere)
    # and again after flips the bookkeeping followed, loop blocks included
    for v in rng.choice(inst.num_vertices, size=12, replace=False):
        flip(cut, gains, v, inst.block_size)
    assert_gains_match_exact(inst, cut, gains, everywhere)


def test_flip_gains_match_exact_differences_k3():
    inst = build_bes(build_kv_instance(3, 0.3)[0], 0.3)
    rng = np.random.default_rng(3)
    cut = random_balanced_cut_loop(inst, rng)
    gains = _FlipGains(inst, cut.reshape(inst.num_blocks, inst.block_size))
    weight = cut_edge_weight(inst, cut)
    # each flip is kept, so each gain is read after all the earlier updates
    for v in rng.integers(0, inst.num_vertices, size=60):
        gain = gains.gain(*divmod(int(v), inst.block_size), int(cut[v]))
        flip(cut, gains, v, inst.block_size)
        new_weight = cut_edge_weight(inst, cut)
        assert abs(gain - (new_weight - weight)) <= 1e-13, v
        weight = new_weight


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ug_instances(), CUT_EPSILONS, st.integers(0, 2**32 - 1))
def test_flip_gains_match_exact_differences_after_kept_flips(u, eps, seed):
    # loops, isolated vertices, repeated (other, point) pairs and weights
    # down to the least subnormal; the cut need not be balanced
    inst = build_bes(u, eps)
    rng = np.random.default_rng(seed)
    cut = rng.choice(np.array([-1, 1], dtype=np.int8), size=inst.num_vertices)
    gains = _FlipGains(inst, cut.reshape(inst.num_blocks, inst.block_size))
    for v in rng.integers(0, inst.num_vertices, size=12):
        flip(cut, gains, v, inst.block_size)
    assert_gains_match_exact(inst, cut, gains, range(inst.num_vertices))


def test_k3_local_search_is_pinned(monkeypatch):
    # the search `build-bes` runs at k = 3, eta = epsilon = 0.3, seed 0, with
    # local search on: sweep 1 tries 7971 flips that keep the balance and
    # keeps 2293, sweep 2 tries 7509 and keeps none; no gain falls in the band
    u = build_kv_instance(3, 0.3)[0]
    inst = build_bes(u, 0.3)
    lam, _ = opt_search(u, seed=derive_seed(0, "opt_search"), restarts=10)
    events = []
    gain, flip_, weight = _FlipGains.gain, _FlipGains.flip, sp.cut_edge_weight

    def recorded_gain(self, *args):
        g = gain(self, *args)
        events.append("b" if abs(g) < GAIN_BAND else "g")
        return g

    monkeypatch.setattr(_FlipGains, "gain", recorded_gain)
    monkeypatch.setattr(_FlipGains, "flip", lambda *args: events.append("f") or flip_(*args))
    monkeypatch.setattr(sp, "cut_edge_weight", lambda *args: events.append("w") or weight(*args))
    res = balanced_cut_search(inst, seed=derive_seed(0, "cut_search"), labelings=[lam])
    trials = "".join(events)
    candidates = len(trials) - len(trials.lstrip("w"))
    # each sweep that keeps a flip ends with one exact weight
    sweeps = trials[candidates:].split("w")
    assert [(s.count("g"), s.count("f")) for s in sweeps] == [(7971, 2293), (7509, 0)]
    assert "b" not in trials
    assert res.edge_weight == 0.13741213610451045
    assert res.candidates[-1] == ("local_search", res.edge_weight, res.balance)
    assert (hashlib.sha256(res.cut.tobytes()).hexdigest()
            == "a8d89aaca261fd0e6e6a0483b9fdbcbb2595658e08895cbfecdcfd7776003681")


def test_band_trials_take_the_exact_route(monkeypatch):
    # an isolated UG vertex (allowed by a loose regularity tolerance): every
    # flip in its block has gain exactly 0, inside the band
    u = kv_fixture()[0]
    lonely = UGInstance(u.num_vertices + 1, u.num_labels, u.v, u.w, u.weight, u.perm,
                        regularity_tol=1.0)
    inst = build_bes(lonely, 0.3)
    lam = np.append(opt_exhaustive(u)[0], 0)
    events = []
    gain = _FlipGains.gain

    def recorded_gain(self, block, x, a):
        g = gain(self, block, x, a)
        events.append(("gain", block * inst.block_size + x, g))
        return g

    def recorded_weight(inst_, cut):
        events.append(("exact", np.array(cut)))
        return cut_edge_weight(inst_, cut)

    monkeypatch.setattr(_FlipGains, "gain", recorded_gain)
    monkeypatch.setattr(sp, "cut_edge_weight", recorded_weight)
    res = balanced_cut_search(inst, seed=0, labelings=[lam])
    monkeypatch.undo()
    assert_same_search(res, balanced_cut_search_per_trial(inst, seed=0, labelings=[lam]))

    trials = [(i, e[1], e[2]) for i, e in enumerate(events) if e[0] == "gain"]
    band = [(i, v) for i, v, g in trials if abs(g) < GAIN_BAND]
    assert band and [v for _, v in band] == [v for _, v, _ in trials
                                             if v // inst.block_size == u.num_vertices]
    lonely_block = slice(u.num_vertices * inst.block_size, None)
    for i, v in band:
        (kind_a, current), (kind_b, flipped) = events[i + 1], events[i + 2]
        assert kind_a == kind_b == "exact"
        assert np.flatnonzero(current != flipped).tolist() == [v]
        # the exact weights are equal, so, as in the per-trial search, no
        # flip of the isolated block is kept
        assert np.array_equal(current[lonely_block], res.cut[lonely_block])


def test_local_search_makes_one_exact_call_per_sweep(monkeypatch):
    u, _, inst, _ = kv_fixture()
    lam, _ = opt_exhaustive(u)
    calls = []
    monkeypatch.setattr(sp, "cut_edge_weight",
                        lambda *args: calls.append(1) or cut_edge_weight(*args))
    off = balanced_cut_search(inst, seed=0, labelings=[lam], local_search=False)
    before = len(calls)
    on = balanced_cut_search(inst, seed=0, labelings=[lam])
    extra = len(calls) - 2 * before
    # local search kept flips, so it weighed at least one sweep; a weight per
    # trial would be up to 64 per sweep
    assert on.edge_weight < off.edge_weight
    assert 1 <= extra <= 8


def test_block_sum_imbalance_is_piecewise_balance():
    # the float local search compares with theta
    rng = np.random.default_rng(8)
    for m in (1, 3, 4, 7, 8, 9, 32, 129):
        for size in (16, 256):
            p = rng.random((m, 1))
            tables = np.where(rng.random((m, size)) < p, 1, -1).astype(np.int8)
            imbalance = int(np.abs(tables.sum(axis=1, dtype=np.int64)).sum())
            assert imbalance / size / m == piecewise_balance(tables), (m, size)


def sign_image(n_bits, images):
    """The point index of each +/-1 row of `images` (one row per point)."""
    return ((1 - images) // 2) @ (1 << np.arange(n_bits))


@pytest.mark.parametrize("n, orbits", [(1, 1), (2, 2), (4, 5), (8, 30)])
def test_orbit_representatives_cover_every_point_once(n, orbits):
    reps = _orbit_representatives(n)
    signs = signs_of_points(n).astype(np.int64)
    s = np.arange(n)
    # the orbit of x: its coordinates shifted by every c, and their negations
    covered = np.concatenate([np.unique(np.concatenate(
        [sign_image(n, sign * signs[[x]][:, s ^ c]) for c in range(n) for sign in (1, -1)]))
        for x in reps.tolist()])
    assert len(reps) == orbits
    assert np.array_equal(np.sort(covered), np.arange(1 << n))
    assert np.array_equal(reps, np.unique(reps))


def test_shift_correlations_are_kept_by_shifts_and_the_complement():
    n = 8
    corr = shift_correlations(n)
    spread = sp._distinct_correlations(n)[1]
    signs = signs_of_points(n).astype(np.int64)
    s = np.arange(n)
    for g in [sign_image(n, signs[:, s ^ c]) for c in range(n)] + [sign_image(n, -signs)]:
        assert np.array_equal(corr[np.ix_(g, g)], corr)
        assert np.array_equal(spread[np.ix_(g, g)], spread)


@pytest.mark.parametrize("n, vectors", [(1, 2), (2, 5), (4, 25), (8, 1425)])
def test_distinct_correlations_spread_to_the_dense_tensor(n, vectors):
    distinct, spread = sp._distinct_correlations(n)
    assert len(distinct) == vectors == len(np.unique(distinct, axis=0))
    assert np.array_equal(distinct[spread], shift_correlations(n))


def test_assignment_holds_no_dense_correlation_tensor():
    # the (2^N, 2^N, N) shift correlations are 4 MiB of float64 at k = 3;
    # the assignment and its Gram cache hold only m * m * N table entries
    _, _, inst, assign = kv_fixture(k=3)
    dense = inst.block_size**2 * inst.ug.num_labels
    held = [a for obj in (assign, assign.cache) for a in vars(obj).values()
            if isinstance(a, np.ndarray)]
    assert held and all(a.size < dense for a in held)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_orbit_sweep_is_the_half_sweep_on_random_integer_tables(n):
    # a Gram C . row of any integer rows is symmetric and kept by the orbit
    # group, so one pair per orbit finds the same worst term as half a
    # block, and one per swap orbit does when the first two rows are equal
    rng = np.random.default_rng(31 + n)
    corr = shift_correlations(n).astype(np.int64)
    pairs, swap_pairs = sp._pair_orbits(n)
    for trial in range(6):
        ac, bc, ab = (corr @ rng.integers(-9, 10, size=n) for _ in range(3))
        assert triangle_sweep(ac, bc, ab, pairs) == triangle_sweep_half(ac, bc, ab) > 0, trial
        assert triangle_sweep(ac, ac, ab, swap_pairs) == triangle_sweep_half(ac, ac, ab), trial


@pytest.mark.parametrize("n, count, swap_count", [(1, 2, 2), (2, 6, 5), (4, 44, 30),
                                                  (8, 4320, 2288)])
def test_pair_orbits_hold_one_pair_of_every_orbit(n, count, swap_count):
    # every ordered pair's orbit, as its least image (g a, g b) coded
    # g a * 2^N + g b, under the shifts and the complement written out
    signs = signs_of_points(n).astype(np.int64)
    s = np.arange(n)
    group = np.array([sign_image(n, sign * signs[:, s ^ c]) for c in range(n) for sign in (1, -1)])
    size = 1 << n
    a, b = np.divmod(np.arange(size * size), size)
    least = (group[:, a] * size + group[:, b]).min(axis=0)
    swapped = (group[:, b] * size + group[:, a]).min(axis=0)
    tables = sp._pair_orbits(n)
    for (first, second), orbits in zip(tables, (least, np.minimum(least, swapped))):
        assert np.array_equal(np.sort(first * size + second), np.unique(orbits))
    assert [len(first) for first, _ in tables] == [count, swap_count]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_correlation_classes_are_symmetric_and_keep_the_distance(n):
    # C[x, y, :] = C[y, x, :], so every Gram spread from the classes is
    # symmetric; and C[x, y, 0] = N - 2 |x xor y| gives each class one
    # noise weight
    distinct, spread = sp._distinct_correlations(n)
    assert np.array_equal(spread, spread.T)
    assert np.array_equal(((n - distinct[:, 0]) // 2)[spread], sp._distance_matrix(n))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(correlation_rows(), st.integers(1, 3000))
def test_pair_orbit_sweep_is_the_ordered_sweep_on_generated_grams(drawn, step):
    n, rows = drawn
    # each Gram C . row is symmetric and kept by the shifts and the complement
    ac, bc, ab = (shift_correlations(n).astype(np.int64) @ row for row in rows)
    pairs, swap_pairs = sp._pair_orbits(n)
    worst = triangle_sweep_ordered(ac, bc, ab)
    # `step` pairs per step, two gathered rows a pair
    with mock.patch.object(tensor, "TRIANGLE_STEP_BYTES", 2 * step * bc[0].nbytes):
        assert triangle_sweep(ac, bc, ab, pairs) == worst
        if np.array_equal(rows[0], rows[1]):
            assert triangle_sweep(ac, bc, ab, swap_pairs) == worst


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(repeated_rows(ROW_FLOATS) | repeated_rows(tuple(range(-3, 4))))
def test_sorted_rows_are_numpy_unique_on_generated_tables(values):
    # 0.0 and -0.0 compare equal, so both routes merge their rows
    rows, inverse = sp._sorted_rows(values)
    want_rows, want_inverse = np.unique(values, axis=0, return_inverse=True)
    assert rows.dtype == values.dtype
    assert np.array_equal(rows, want_rows) and np.array_equal(inverse, want_inverse.ravel())


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(CUT_EPSILONS, st.sampled_from((2, 8, 16)), st.sampled_from((1, 2, 3, 5)))
def test_per_class_objective_is_the_per_row_loop_on_generated_noise(eps, l_in, t):
    u, q, _ = build_kv_instance(2, 0.3)
    inst = build_bes(u, eps)
    assign = assign_sdp_solution(inst, build_ug_sdp_solution(q), l_in=l_in, t=t)
    assert sdp_objective(inst, assign) == sdp_objective_per_row(inst, assign)


def test_k3_check_sweeps_the_orbit_representatives_without_per_pair_grams(monkeypatch):
    # the N = 8 pair tables are built lean, from the (16, 256) action table
    for cached in (sp._orbit_action, sp._orbit_representatives, sp._pair_orbits):
        cached.cache_clear()
    tracemalloc.start()
    try:
        pairs, swap_pairs = sp._pair_orbits(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    _, _, inst, assign = kv_fixture(k=3, t=3)
    swept = []
    sweep = sp.triangle_sweep
    monkeypatch.setattr(sp, "triangle_sweep", lambda *args: swept.append(args) or sweep(*args))
    monkeypatch.setattr(BESVectorAssignment, "base_gram_block", None)
    rep = check_bes_feasibility(inst, assign)
    assert rep.triangle_violation == 0.0 and rep.triples_checked == 8192**3
    # three row triples, each taken with ac <= bc: one with two distinct rows
    # over the 4320 pair orbits, two with ac == bc over the 2288 swap orbits,
    # 8896 pairs against the 4 * 30 * 256 of one first point per orbit
    assert len(pairs[0]) == 4320 and len(swap_pairs[0]) == 2288
    assert sorted(args[0] is args[1] for args in swept) == [False, True, True]
    assert all(args[3] is (swap_pairs if args[0] is args[1] else pairs) for args in swept)
    assert sum(len(args[3][0]) for args in swept) == 8896


def assert_check_is_the_per_pair_oracle(assign):
    inst = assign.inst
    rep = check_bes_feasibility(inst, assign)
    assert rep == check_bes_feasibility_per_pair(inst, assign)
    # one block pair per distinct row (pairs that share a row share a Gram)
    m = inst.num_blocks
    _, first = np.unique(assign.cache.table.reshape(m * m, -1), axis=0, return_index=True)
    points = np.arange(inst.block_size)
    for v, w in (divmod(int(f), m) for f in first):
        gram = base_gram_block_per_pair(assign, v, w)
        assert np.array_equal(assign.base_gram_block(v, w), gram)
        # every point pair of the two blocks by flat id, with ==
        a_ids, b_ids = np.meshgrid(v * inst.block_size + points, w * inst.block_size + points,
                                   indexing="ij")
        flat = assign.base_inner_flat(a_ids.ravel(), b_ids.ravel())
        assert np.array_equal(flat.reshape(gram.shape), gram)
    return rep


@pytest.mark.parametrize("k, eta, eps", GRID_K2 + POINTS_K3)
def test_distinct_value_check_is_the_per_pair_oracle(k, eta, eps):
    u, q, _ = build_kv_instance(k, eta)
    inst = build_bes(u, eps)
    sol = build_ug_sdp_solution(q)
    for t in (1, 3):
        assert assert_check_is_the_per_pair_oracle(assign_sdp_solution(inst, sol, t=t)) \
            .triangle_violation == 0.0


@pytest.mark.parametrize("l_in", [2, 8, 16])
def test_distinct_value_check_is_the_per_pair_oracle_planted(l_in):
    # 4-point blocks from l_in = 8 on: at l_in = 2 their rows' steps of 1/16
    # are no multiples of 2^-3, and both routes raise
    violating = 0
    for seed in range(12):
        fixtures = [planted_row_fixture(seed, l_in=l_in)]
        if l_in > 2:
            fixtures.append(planted_row_fixture(seed, m=8, n=2, l_in=l_in))
        for assign in fixtures:
            violating += assert_check_is_the_per_pair_oracle(assign).triangle_violation > 0
    assert violating >= 4
