from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cutgap import quotient as qt
from cutgap.quotient import (
    basis_from_text,
    basis_to_text,
    build_kv_instance,
    build_quotient,
    build_ug_sdp_solution,
    check_ug_sdp_feasibility,
    ug_sdp_objective,
    verify_ulc_properties,
)
from cutgap.tensor import base_gram
from cutgap.unique_games import (
    label_extended_graph,
    labeling_set_expansion_identity,
    opt_exhaustive,
)

from fixtures import hamming
from oracles import edge_rows, quotient_partition_loop


def test_quotient_k1_by_hand():
    q = build_quotient(1)
    # 4 functions on {-1,1}; chi_{1} has code 2, so classes are {0,2}, {1,3}
    assert q.num_classes == 2
    assert [int(r) for r in q.reps] == [0, 1]
    assert int(q.reps[0] ^ q.masks[1]) == 2
    assert int(q.reps[1] ^ q.masks[1]) == 3


def test_quotient_class_sizes_and_orthogonality():
    for k in (1, 2, 3):
        q = build_quotient(k)
        n = q.N
        assert q.num_classes == (1 << n) // n
        # the partition oracle opens the classes in the same order, and
        # member s of class i is rep_i ^ masks[s]: N members per class,
        # every code in exactly one class
        reps, class_id, shift_id = quotient_partition_loop(q.masks)
        assert np.array_equal(q.reps, reps)
        members = q.reps[:, None] ^ q.masks
        assert np.array_equal(class_id[members], np.repeat(np.arange(q.num_classes), n)
                              .reshape(-1, n))
        assert np.array_equal(shift_id[members], np.tile(np.arange(n), (q.num_classes, 1)))
        # members of one class are mutually orthogonal as +/-1 vectors
        sol = build_ug_sdp_solution(q)
        for i in (0, q.num_classes - 1):
            g = sol.basis[i].astype(np.int64) @ sol.basis[i].T.astype(np.int64)
            assert np.array_equal(g, n * np.eye(n))


def test_quotient_closed_under_shifts():
    # chi_S chi_T = chi_(S xor T): shifting member s of a class by t lands
    # on its member s ^ t, so the class is closed under shifts
    q = build_quotient(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        i = int(rng.integers(0, q.num_classes))
        s, t = (int(x) for x in rng.integers(0, 8, size=2))
        assert q.reps[i] ^ q.masks[s] ^ q.masks[t] == q.reps[i] ^ q.masks[s ^ t]


def test_quotient_k5_is_gated_and_lazy():
    # k = 5 is past the cap; the largest quotient keeps only its
    # representatives, and a code still round-trips through (class, shift):
    # its orbit's minimum is its class's representative
    with pytest.raises(ValueError, match=r"^k=5 outside \[1, 3\]$"):
        build_quotient(5)
    q = build_quotient(qt.PIPELINE_MAX_K)
    assert [f.name for f in fields(q)] == ["k", "masks", "reps"]
    code = 123
    orbit = np.uint64(code) ^ q.masks
    s = int(np.argmin(orbit))
    cls = int(np.searchsorted(q.reps, orbit[s]))
    assert q.reps[cls] == orbit[s]
    assert int(q.reps[cls] ^ q.masks[s]) == code
    assert int(q.masks[0]) == 0  # a representative is its own shift 0


def test_quotient_rejects_out_of_range():
    # the quotient stops where the instance builder does: k = 4 would list
    # about 10^6 UG edges
    with pytest.raises(ValueError, match=r"^k=4 outside \[1, 3\]$"):
        build_quotient(qt.PIPELINE_MAX_K + 1)
    for k in (0, 5, 6):
        with pytest.raises(ValueError):
            build_quotient(k)


def test_kv_instance_k2_shape():
    u, q, cube = build_kv_instance(2, 0.3)
    assert u.num_vertices == 4 and u.num_labels == 4
    assert abs(sum(u.weight.tolist()) - 1.0) < 1e-9


def test_kv_window_degenerate_is_hard_error():
    with pytest.raises(ValueError):
        build_kv_instance(2, 0.1)


def test_parallel_pairs_define_one_edge():
    # every (f chi_S, g chi_S) pair lands in the same bundle: the edge list
    # has exactly one edge per (class pair, xor constant) with windowed distance
    u, q, cube = build_kv_instance(2, 0.3)
    seen = set()
    for e in edge_rows(u):
        c = int(e.perm[0])  # perm is XOR by c, so perm[0] = c
        assert np.array_equal(e.perm, np.arange(4) ^ c)
        key = (e.v, e.w, c)
        assert key not in seen
        seen.add(key)


def test_label_extended_graph_is_windowed_hypercube():
    for eta in (0.2, 0.3):  # without and with self-loop bundles
        u, q, cube = build_kv_instance(2, eta)
        lo, hi, weight = label_extended_graph(u)
        n = q.N
        code_of = {
            i * n + s: int(q.reps[i] ^ q.masks[s])
            for i in range(q.num_classes)
            for s in range(n)
        }
        profile = cube.weight_profile()
        remapped = {}
        for a, b, wt in zip(lo.tolist(), hi.tolist(), weight.tolist()):
            fa, fb = code_of[a], code_of[b]
            remapped[(min(fa, fb), max(fa, fb))] = wt
        expected = {}
        for f in range(16):
            for g in range(f + 1, 16):
                w = profile[hamming(f, g)]
                if w > 0:
                    expected[(f, g)] = n * w
        assert set(remapped) == set(expected)
        for key, wt in expected.items():
            assert abs(remapped[key] - wt) < 1e-12
        assert abs(sum(weight) - n) < 1e-9


def test_sdp_solution_entries_and_identities():
    u, q, cube = build_kv_instance(2, 0.3)
    sol = build_ug_sdp_solution(q)
    assert set(np.unique(sol.basis)) == {-1, 1}
    # squared-tensor identities: per-vertex norm sum N, shift orthogonality,
    # cross sums N (basis completeness)
    rep = check_ug_sdp_feasibility(sol)
    assert rep.max_residual() < 1e-12


def test_sdp_objective_matched_pair_terms():
    # every matched pair of an edge at bundle distance d contributes
    # (1 - 2d/N)^2; summing by hand reproduces ug_sdp_objective
    u, q, cube = build_kv_instance(3, 0.2)
    sol = build_ug_sdp_solution(q)
    expected = 0.0
    for e in edge_rows(u):
        f = int(q.reps[e.v])
        g = int(q.reps[e.w]) ^ int(q.masks[int(e.perm[0])])
        d = hamming(f, g)
        expected += e.weight * (1 - 2 * d / q.N) ** 2
    assert abs(ug_sdp_objective(u, sol) - expected) < 1e-12


def test_sdp_objective_bounds_small_eta():
    # for eta <= 1/4 every windowed distance satisfies (1-2d/N)^2 >= (1-4 eta)^2
    for k, eta in ((2, 0.2), (3, 0.2), (3, 0.25)):
        u, q, cube = build_kv_instance(k, eta)
        sol = build_ug_sdp_solution(q)
        obj = ug_sdp_objective(u, sol)
        assert obj >= (1 - 4 * eta) ** 2 - 1e-12
        assert obj >= 1 - 9 * eta - 1e-12


def test_ulc_properties_k2_exact():
    u, q, cube = build_kv_instance(2, 0.3)
    sol = build_ug_sdp_solution(q)
    rep = verify_ulc_properties(u, sol, 0.3)
    assert rep.basis_completeness_residual < 1e-12
    assert check_ug_sdp_feasibility(sol).triangle_violation == 0.0
    assert rep.matching_residual == 0.0
    assert rep.closeness_satisfied


def _triangle_oracle(gram):
    """Brute-force float64 max of g_ac + g_bc - g_ab - 1 over every ordered
    triple of the flat Gram, one first point a at a time."""
    m, n = gram.shape[:2]
    flat = gram.reshape(m * n, m * n)
    worst = -np.inf
    for a in range(m * n):
        term = flat[a][None, :] + flat - flat[a][:, None] - 1.0  # [b, c]
        worst = max(worst, float(np.max(term)))
    return worst


@pytest.mark.parametrize("k, eta", [(2, 0.15), (2, 0.25), (2, 0.3), (2, 0.35),
                                    (2, 0.45), (3, 0.3)])
def test_ug_triangle_sweep_is_exhaustive_and_exact(k, eta):
    u, q, cube = build_kv_instance(k, eta)
    sol = build_ug_sdp_solution(q)
    triples = (q.num_classes * q.N) ** 3  # 16^3 at k=2, 256^3 at k=3
    gram = base_gram(sol.basis)
    assert qt._triangle_violation(gram) == _triangle_oracle(gram) == 0.0
    feas = check_ug_sdp_feasibility(sol)
    ulc = verify_ulc_properties(u, sol, eta)
    assert feas.triangle_violation == 0.0
    assert feas.triples_checked == triples
    assert ulc.basis_completeness_residual == 0.0


def test_ug_triangle_sweep_finds_planted_violations():
    # no +/-1 basis violates the inequality (the term is
    # -(2/N)(d(a,c) + d(b,c) - d(a,b)) for Hamming distance d), so the
    # violating Grams are integer tables over N built by hand, at k=2 shape
    m, n = 16, 4
    for a in range(m * n):
        # with every other off-diagonal entry -n, (a, b, c) and its mirror
        # (b, a, c) violate by 1/n; T[b, a] = 1 - n clears the mirror, so
        # only first point a has a violating triple
        b, c = (a + 1) % (m * n), (a + m * n // 2) % (m * n)
        table = np.full((m * n, m * n), -n)
        np.fill_diagonal(table, n)
        table[a, c] = table[c, a] = 1
        table[b, c] = table[c, b] = 0
        table[b, a] = 1 - n
        gram = (table / n).reshape(m, n, m, n)
        assert qt._triangle_violation(gram) == _triangle_oracle(gram) == 1 / n
    rng = np.random.default_rng(17)
    for _ in range(20):
        half = np.triu(rng.integers(-n, n + 1, size=(m * n, m * n)))
        table = half + np.triu(half, 1).T
        np.fill_diagonal(table, n)
        gram = (table / n).reshape(m, n, m, n)
        assert qt._triangle_violation(gram) == _triangle_oracle(gram)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_ug_triangle_sweep_is_the_oracle_on_generated_symmetric_grams(data):
    # integer tables over N with the diagonal N, at m classes of N rows
    n = 1 << data.draw(st.integers(0, 3))
    m = data.draw(st.integers(1, 6))
    half = np.triu(data.draw(arrays(np.int64, (m * n, m * n),
                                    elements=st.sampled_from(tuple(range(-n, n + 1))))))
    table = half + np.triu(half, 1).T
    np.fill_diagonal(table, n)
    gram = (table / n).reshape(m, n, m, n)
    assert qt._triangle_violation(gram) == _triangle_oracle(gram)


def test_ug_triangle_sweep_rejects_dimensions_past_int8():
    with pytest.raises(ValueError, match="int8"):
        qt._triangle_violation(np.zeros((1, 64, 1, 64)))


def test_exact_completeness_flags_duplicated_row():
    u, q, cube = build_kv_instance(2, 0.3)
    sol = build_ug_sdp_solution(q)
    basis = sol.basis.copy()
    basis[1, 1] = basis[1, 0]
    rep = verify_ulc_properties(u, qt.UGVectorSolution(2, basis), 0.3)
    # B^T B - N I = r0 r0^T - r1 r1^T, whose largest entry is 2 for r0 != +/-r1
    assert rep.basis_completeness_residual == 2 / q.N


def test_opt_bound_against_reference_curve():
    # windowed optimum stays below N^-eta (checked exhaustively at k=2)
    for eta in (0.15, 0.2, 0.25, 0.3):
        u, q, cube = build_kv_instance(2, eta)
        _, opt = opt_exhaustive(u)
        assert opt <= q.N ** (-eta) + 1e-9


def test_expansion_identity_on_gap_instance_with_loops():
    # val = 1 - Phi(S_lam) must survive the self-loop bundles (eta = 0.3
    # windows in the within-class distance N/2)
    u, q, cube = build_kv_instance(2, 0.3)
    rng = np.random.default_rng(71)
    graph = label_extended_graph(u)
    for _ in range(200):
        lam = rng.integers(0, 4, size=4)
        val, ome = labeling_set_expansion_identity(u, lam, graph)
        assert abs(val - ome) < 1e-9


def test_basis_export_round_trip():
    u, q, cube = build_kv_instance(2, 0.25)
    sol = build_ug_sdp_solution(q)
    back = basis_from_text(basis_to_text(sol))
    assert np.array_equal(back.basis, sol.basis)


def test_instance_builder_capped_at_k3():
    with pytest.raises(ValueError):
        build_kv_instance(4, 0.2)


def test_window_disabled_degenerate_regime():
    # below the windowable range the instance is still well formed with
    # window="none"; the objective is computable, no bound is asserted
    u, q, cube = build_kv_instance(2, 0.05, window="none")
    assert abs(sum(u.weight.tolist()) - 1.0) < 1e-9
    sol = build_ug_sdp_solution(q)
    obj = ug_sdp_objective(u, sol)
    assert 0.0 <= obj <= 1.0
    _, opt = opt_exhaustive(u)
    assert 0.0 <= opt <= 1.0
