import hashlib

import numpy as np
import pytest

from cutgap import metrics as mt
from cutgap.metrics import (
    FiniteMetric,
    best_xor_cut,
    export_distortion_lp,
    farthest_point_sample,
    graph_from_text,
    is_negative_type,
    l1_distortion_lp,
    local_search_sparsest_cut,
    metric_from_gram,
    metric_from_text,
    metric_to_text,
    round_to_balanced_cut,
)
from cutgap.quotient import build_kv_instance
from cutgap.separator import build_bes
from fixtures import cut_metric_combination, graph_to_text, induced, lp_cuts
from oracles import (
    distortion_lp_data_cut_major,
    local_search_sparsest_cut_mask_per_sum,
    local_search_sparsest_cut_via_sparsity,
    sparsity,
)
from test_golden_outputs import k2_graph


def hamming_metric(k):
    idx = np.arange(1 << k, dtype=np.uint32)
    return FiniteMetric(np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(float))


def k23_path_metric():
    # complete bipartite K_{2,3} shortest paths: the classic PSD violator
    d = np.full((5, 5), 2.0)
    np.fill_diagonal(d, 0.0)
    for a in (0, 1):
        for b in (2, 3, 4):
            d[a, b] = d[b, a] = 1.0
    return FiniteMetric(d)


def test_metric_validation():
    with pytest.raises(ValueError):
        FiniteMetric(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetric(np.array([[0, 5, 1], [5, 0, 1], [1, 1, 0]], dtype=float))  # triangle
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            FiniteMetric(np.array([[0, 1, bad], [1, 0, 1], [bad, 1, 0]]))


def test_hamming_metric_is_negative_type():
    ok, witness = is_negative_type(hamming_metric(3))
    assert ok
    emb = witness.embedding
    d = hamming_metric(3).d
    got = np.sum((emb[:, None, :] - emb[None, :, :]) ** 2, axis=2)
    assert np.max(np.abs(got - d)) < 1e-8


def test_k23_violates_negative_type():
    ok, witness = is_negative_type(k23_path_metric())
    assert not ok
    assert witness.min_eigenvalue < -1e-3
    # the eigenvector certifies: v^T G v = min eigenvalue * |v|^2 < 0
    assert witness.eigenvector is not None


def test_negative_type_base_point_independent():
    for metric in (hamming_metric(3), k23_path_metric()):
        a, _ = is_negative_type(metric, base_point=0)
        b, _ = is_negative_type(metric, base_point=1)
        assert a == b


def test_negative_type_on_random_psd_instances():
    # squared distances of +/-1/sqrt(N) sign vectors are scaled Hamming
    # distances: an l1 metric, hence negative type
    rng = np.random.default_rng(0)
    for _ in range(9000):
        signs = rng.choice([-1.0, 1.0], size=(6, 16)) / 4.0
        metric = metric_from_gram(signs @ signs.T)
        ok, _ = is_negative_type(metric)
        assert ok
    # Euclidean (unsquared) distances of random points are negative type too
    for _ in range(1000):
        pts = rng.normal(size=(6, 3))
        d = np.sqrt(np.sum((pts[:, None] - pts[None, :]) ** 2, axis=2))
        ok, _ = is_negative_type(FiniteMetric(d))
        assert ok


def test_negative_type_rejects_perturbed_violators():
    # blends of K_{2,m} path metrics toward the equilateral stay violating
    # for small blend weight; relabelings must not change the verdict
    rng = np.random.default_rng(1)
    for m in (3, 4, 5):
        n = 2 + m
        base = np.full((n, n), 2.0)
        np.fill_diagonal(base, 0.0)
        for a in (0, 1):
            for b in range(2, n):
                base[a, b] = base[b, a] = 1.0
        equil = np.ones((n, n)) - np.eye(n)
        for s in (0.0, 0.1, 0.2):
            d = (1 - s) * base + s * equil
            perm = rng.permutation(n)
            metric = FiniteMetric(d[np.ix_(perm, perm)])
            ok, witness = is_negative_type(metric)
            assert not ok
            assert witness.min_eigenvalue < -1e-3


def test_distortion_four_cycle_is_isometric():
    # 4-cycle shortest paths = Hamming on the 2-cube
    d = np.array(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float
    )
    res = l1_distortion_lp(FiniteMetric(d))
    assert abs(res.gamma - 1.0) < 1e-7
    assert max(res.certificate.values()) < 1e-7


def test_distortion_on_random_cut_combinations():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(4, 9))
        n_cuts = int(rng.integers(2, 6))
        cuts = []
        for _ in range(n_cuts):
            members = frozenset(
                int(i) for i in np.flatnonzero(rng.random(n) < 0.5) if i > 0
            )
            if members:
                cuts.append((members, float(rng.uniform(0.2, 2.0))))
        if not cuts:
            continue
        metric = cut_metric_combination(n, cuts)
        if np.max(metric.d) == 0.0:
            continue
        res = l1_distortion_lp(metric)
        assert abs(res.gamma - 1.0) < 1e-7, trial
        assert max(res.certificate.values()) < 1e-7
        assert np.max(np.abs(induced(lp_cuts(metric, res.lp.x), n) - metric.d)) < 1e-6


def test_distortion_k23_exceeds_one():
    res = l1_distortion_lp(k23_path_metric())
    # K_{2,3} path metric is l1-embeddable (it is a tree-like bipartite
    # metric? -- the LP decides); whatever the value, the certificate holds
    assert res.gamma >= 1.0 - 1e-9
    assert max(res.certificate.values()) < 1e-7


def test_distortion_size_guard_and_export():
    metric = hamming_metric(2)
    with pytest.raises(ValueError):
        l1_distortion_lp(hamming_metric(4))
    text = export_distortion_lp(metric)
    assert text.startswith("OBJECTIVE min")
    assert "CONSTRAINTS" in text and "BOUNDS" in text
    assert "gamma" in text


def test_lp_data_matches_cut_major_build():
    """The pair-major separation matrix gives the cut-major build's c, A
    and b byte for byte, so every -0.0 of the contraction rows too, on l1
    metrics of random points (with a repeated point) at every size the LP
    takes."""
    rng = np.random.default_rng(34)
    for n in range(1, mt.LP_POINT_LIMIT + 1):
        x = rng.random((n, 3))
        x[-1] = x[0]
        metric = FiniteMetric(np.abs(x[:, None] - x[None, :]).sum(axis=2))
        got = mt._distortion_lp_data(metric)[2:]
        want = distortion_lp_data_cut_major(metric)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], n
        assert [a.shape for a in got] == [a.shape for a in want], n


def test_export_text_pinned():
    # sha256 of the export text of the per-cut loop that built the LP before
    # it was vectorised
    pinned = {
        "k23": "706b40366c88c85542d800c7b8a3ad7dad6cee9a3b0d9058c8081f06d0d9deb0",
        "hamming3": "402495222bf826fc7f0a8db2d021ecb5b022ef4ce9364aa81d8ed1569a720b37",
    }
    for name, metric in (("k23", k23_path_metric()), ("hamming3", hamming_metric(3))):
        text = export_distortion_lp(metric)
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[name], name


def test_metric_text_round_trip():
    metric = k23_path_metric()
    back = metric_from_text(metric_to_text(metric))
    assert np.array_equal(back.d, metric.d)


@pytest.mark.parametrize("text, line", [
    ("METRIC 3\n1\n", "line 3: missing row 2 of 2"),
    ("METRIC 2\n1\n5 5 5\n", "line 3: extra row"),
    ("METRIC 3\n1\n\n1 1 1\n", "line 4: expected 2 distances, got 3"),
    ("METRIC 3\n1\nx 1\n", "line 3: could not convert"),
    # 17 points at unit distance: valid rows, one point past the cap
    (metric_to_text(FiniteMetric(1 - np.eye(17))), "line 1: 17 points exceed the limit 16"),
])
def test_metric_parser_names_the_bad_line(text, line):
    with pytest.raises(ValueError, match=line):
        metric_from_text(text)


def test_farthest_point_sample_deterministic():
    metric = hamming_metric(3)
    a = farthest_point_sample(metric, 4)
    b = farthest_point_sample(metric, 4)
    assert a == b and len(a) == 4
    assert 0 in a


def test_sparsity_dictator_cut_on_hypercube_demands():
    # hypercube with unit demands on all pairs, weights on cube edges:
    # a coordinate cut separates 2^(k-1) * 2^(k-1) demand pairs and
    # 2^(k-1) edges
    k = 3
    n = 1 << k
    idx = np.arange(n, dtype=np.uint32)
    dist = np.bitwise_count(idx[:, None] ^ idx[None, :])
    weights = (dist == 1).astype(float)
    demands = np.ones((n, n)) - np.eye(n)
    cut = (idx & 1).astype(bool)
    got = sparsity(weights, demands, cut)
    assert abs(got - (n // 2) / ((n // 2) ** 2)) < 1e-12
    with pytest.raises(ValueError):
        sparsity(weights, demands, np.ones(n, dtype=bool))
    with pytest.raises(ValueError):
        sparsity(weights, np.zeros((n, n)), cut)


def test_sparsity_scale_invariance():
    rng = np.random.default_rng(3)
    n = 6
    weights = rng.random((n, n))
    weights = (weights + weights.T) / 2
    np.fill_diagonal(weights, 0.0)
    demands = np.ones((n, n)) - np.eye(n)
    cut = np.array([True, True, False, False, True, False])
    assert abs(
        sparsity(3.7 * weights, demands, cut) - 3.7 * sparsity(weights, demands, cut)
    ) < 1e-12


def test_best_xor_cut_two_disjoint_half_demand_cuts():
    # points {0,1,2,3}; demands on (0,1) and (2,3); phi1 = {0}, phi2 = {2}.
    # B = D/2: the xor of both cuts separates all demand, and the expected
    # demand over the 4 subsets is exactly B/3 * ... >= B/3.
    weights = np.zeros((4, 4))
    demands = np.zeros((4, 4))
    demands[0, 1] = demands[1, 0] = 1.0
    demands[2, 3] = demands[3, 2] = 1.0
    cuts = [np.array([1, 0, 0, 0], bool), np.array([0, 0, 1, 0], bool)]
    B = 1.0  # D = 2
    phi, dem, wt = best_xor_cut(cuts, weights, demands, B)
    assert dem >= B / 3.0
    # exhaustive enumeration of the 4 subsets: demands cut are 0, 1, 1, 2,
    # so the full xor separates everything and the expectation is D/2 >= B/3
    by_subset = []
    for code in range(4):
        phi_a = np.zeros(4, dtype=bool)
        for i in (0, 1):
            if code >> i & 1:
                phi_a ^= cuts[i]
        sep = phi_a[:, None] != phi_a[None, :]
        by_subset.append(float(np.sum(demands * sep) / 2))
    assert sorted(by_subset) == [0.0, 1.0, 1.0, 2.0]
    assert sum(by_subset) / 4 >= B / 3 - 1e-12


def test_rounding_early_exit_returns_first_cut():
    weights = np.zeros((4, 4))
    demands = np.ones((4, 4)) - np.eye(4)
    prescribed = np.array([True, True, False, False])
    res = round_to_balanced_cut(
        weights, demands, lambda w, d: prescribed, B=3.0, seed=0
    )
    assert np.array_equal(res.cut, prescribed)
    assert not res.flagged_partial
    assert res.rounds == 1


def test_rounding_erase_then_xor_three_cuts():
    # three demand groups, three disjoint prescribed cuts each separating
    # D/3 < B/3; erasure accumulates to D >= 2B/3 and the xor stage returns
    # a >= B/3 cut
    n = 6
    weights = np.zeros((n, n))
    demands = np.zeros((n, n))
    for a, b in ((0, 1), (2, 3), (4, 5)):
        demands[a, b] = demands[b, a] = 1.0
    cuts = iter(
        [
            np.array([1, 0, 0, 0, 0, 0], bool),
            np.array([0, 0, 1, 0, 0, 0], bool),
            np.array([0, 0, 0, 0, 1, 0], bool),
        ]
    )
    B = 1.2 * 3.0  # per-cut demand 1 < B/3 = 1.2; 2B/3 = 2.4 needs all three
    res = round_to_balanced_cut(weights, demands, lambda w, d: next(cuts), B=B, seed=1)
    assert res.demand >= B / 3.0
    assert not res.flagged_partial
    assert res.rounds == 3


def test_rounding_erased_demand_never_recounted():
    n = 6
    weights = np.zeros((n, n))
    demands = np.ones((n, n)) - np.eye(n)
    total = np.sum(demands) / 2
    seen = []

    def oracle(w, d):
        seen.append(np.sum(d) / 2)
        cut = np.zeros(n, dtype=bool)
        cut[len(seen) % n] = True
        return cut

    round_to_balanced_cut(weights, demands, oracle, B=100.0, seed=2, max_rounds=5)
    assert all(b <= a + 1e-12 for a, b in zip(seen, seen[1:]))
    assert all(s <= total for s in seen)


def test_rounding_stagnation_flagged():
    n = 4
    weights = np.zeros((n, n))
    demands = np.zeros((n, n))
    demands[0, 1] = demands[1, 0] = 1.0
    trivialish = np.array([False, False, True, True])  # never cuts the demand
    res = round_to_balanced_cut(
        weights, demands, lambda w, d: trivialish, B=30.0, seed=3, patience=2
    )
    assert res.flagged_partial


def test_local_search_oracle_finds_sparse_cut():
    # two cliques joined by one edge, demands across: the sparse cut is the
    # clique separation
    n = 8
    weights = np.zeros((n, n))
    for i in range(4):
        for j in range(i + 1, 4):
            weights[i, j] = weights[j, i] = 1.0
            weights[i + 4, j + 4] = weights[j + 4, i + 4] = 1.0
    weights[0, 4] = weights[4, 0] = 0.1
    demands = np.zeros((n, n))
    for i in range(4):
        for j in range(4, 8):
            demands[i, j] = demands[j, i] = 1.0
    cut = local_search_sparsest_cut(weights, demands, seed=4, restarts=6)
    assert abs(sparsity(weights, demands, cut) - 0.1 / 16) < 1e-12


def test_local_search_matches_sparsity_oracle():
    """One separation mask per trial, read by both sums through one kept
    product buffer, gives the cuts of the search that judged each trial
    through `sparsity` and of the one that built a mask and a product array
    per sum, on the certify GRAPH (the expanded k=2 separator instance),
    that graph with demands partly erased as `round` erases them, and
    seeded random weighted graphs, some with sparse demands that leave many
    trial cuts separating none; and `round` the same result through either
    search on the two k=2 graphs."""
    inst = build_bes(build_kv_instance(2, 0.3)[0], 0.3)
    weights, demands = k2_graph(inst)
    # the matrices `round` reads back from the GRAPH file
    parsed = graph_from_text(graph_to_text(weights, demands))
    assert np.array_equal(parsed[0], weights) and np.array_equal(parsed[1], demands)
    erased = demands.copy()
    erased[:8, :] = erased[:, :8] = 0.0
    graphs = [(weights, demands, range(5)), (weights, erased, range(3))]
    rng = np.random.default_rng(31)
    n = 14
    w = np.triu(rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    d = np.triu(rng.random((n, n)) < 0.1, 1).astype(np.float64)
    graphs.append((w + w.T, d + d.T, range(20)))
    rng = np.random.default_rng(34)
    for n, density in ((12, 0.5), (20, 0.1), (33, 0.3)):
        w = np.triu(rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        d = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density), 1)
        graphs.append((w + w.T, d + d.T, range(6)))
    searches = (local_search_sparsest_cut, local_search_sparsest_cut_via_sparsity,
                local_search_sparsest_cut_mask_per_sum)
    for weights, demands, seeds in graphs:
        for seed in seeds:
            got, *want = (search(weights, demands, seed=seed).tolist() for search in searches)
            assert want == [got, got], seed
    for weights, demands, _ in graphs[:2]:
        B = float(np.sum(demands) / 2) / 2
        for seed in range(2):
            results = [round_to_balanced_cut(weights, demands,
                                             lambda w, d: search(w, d, seed=seed), B, seed=seed)
                       for search in (searches[0], searches[2])]
            got, want = ((r.cut.tolist(), r.edge_weight.hex(), r.demand.hex(), r.rounds,
                          r.flagged_partial) for r in results)
            assert got == want, seed


def test_graph_text_round_trip():
    rng = np.random.default_rng(5)
    w = np.triu(rng.random((6, 6)) * (rng.random((6, 6)) < 0.5), 1)
    d = np.triu(rng.random((6, 6)) * (rng.random((6, 6)) < 0.5), 1)
    weights, demands = graph_from_text(graph_to_text(w + w.T, d + d.T))
    assert np.array_equal(weights, w + w.T)
    assert np.array_equal(demands, d + d.T)


@pytest.mark.parametrize("text, line", [
    ("", "line 1"),
    ("GRAPH\n0 1 1.0 0.0\n", "line 1"),
    ("GRAF 4\n", "line 1"),
    ("GRAPH -4\n", "line 1"),
    ("GRAPH 10000000\n0 1 1.0 0.0\n", "line 1"),
    ("GRAPH 4\n0 1 1.0 0.0\n\n1 2 1.0\n", "line 4"),
    ("GRAPH 4\n0 x 1.0 0.0\n", "line 2"),
    ("GRAPH 4\n0 9 1.0 0.0\n", "line 2"),
    ("GRAPH 4\n0 1 1.0 0.0\n-1 2 1.0 0.0\n", "line 3"),
    ("GRAPH 4\n0 1 nan 1.0\n", "line 2"),
    ("GRAPH 4\n0 1 1.0 0.0\n2 3 1.0 inf\n", "line 3"),
    ("GRAPH 4\n0 1 -1.0 1.0\n", "line 2"),
    ("GRAPH 4\n0 1 1.0 0.0\n2 3 1.0 -0.5\n", "line 3"),
])
def test_graph_parser_names_the_bad_line(text, line):
    with pytest.raises(ValueError, match=line):
        graph_from_text(text)
