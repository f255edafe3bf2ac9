import re

import numpy as np
import pytest

from cutgap import unique_games as ug
from cutgap.separator import balanced_cut_search, build_bes
from cutgap.unique_games import (
    BudgetExceededError,
    UGInstance,
    label_extended_graph,
    labeling_set_expansion_identity,
    opt_exhaustive,
    opt_search,
    plant_instance,
    ug_from_text,
    ug_to_text,
    value,
)
from cutgap.quotient import build_kv_instance

from oracles import (
    edge_rows,
    incidence,
    label_extended_graph_loop,
    labeling_set_expansion_identity_loop,
    opt_exhaustive_loop,
    opt_search_loop,
)


def single_edge_instance(n_labels=2, perm=None):
    perm = np.arange(n_labels) if perm is None else np.asarray(perm)
    return UGInstance(2, n_labels, [0], [1], [1.0], [perm])


def test_value_identity_edge():
    u = single_edge_instance()
    assert value(u, [1, 1]) == 1.0
    assert value(u, [0, 1]) == 0.0


def test_value_respects_direction():
    # lam[v] = perm[lam[w]] with perm = (1 0): satisfied by lam = (1, 0).
    u = single_edge_instance(perm=[1, 0])
    assert value(u, [1, 0]) == 1.0
    assert value(u, [0, 0]) == 0.0


def test_value_is_the_sequential_sum_over_satisfied_edges():
    # value reads the edge distribution's arrays; its digits are those of
    # the per-edge Python sum in edge order
    from cutgap.quotient import build_kv_instance

    instances = [build_kv_instance(k, 0.3)[0] for k in (2, 3)]
    instances += [plant_instance(8, 4, 0.2, 0.9, seed=s)[0] for s in range(3)]
    rng = np.random.default_rng(3)
    for u in instances:
        for _ in range(20):
            lam = rng.integers(0, u.num_labels, size=u.num_vertices)
            expected = sum(e.weight for e in edge_rows(u) if lam[e.v] == e.perm[lam[e.w]])
            assert value(u, lam) == float(expected)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        UGInstance(2, 2, [0], [1], [0.5], [np.arange(2)])


def test_degree_regularity_enforced():
    with pytest.raises(ValueError):
        UGInstance(3, 2, [0, 1, 0], [1, 2, 2], [0.7, 0.2, 0.1], np.tile(np.arange(2), (3, 1)))


def test_perm_must_be_bijection():
    with pytest.raises(ValueError):
        UGInstance(2, 2, [0], [1], [1.0], [[0, 0]])


def test_opt_exhaustive_tiny():
    u = single_edge_instance()
    lam, val = opt_exhaustive(u)
    assert val == 1.0
    assert lam[0] == u.perm[0, lam[1]]


def test_opt_exhaustive_budget_refusal():
    u = single_edge_instance(n_labels=4)
    with pytest.raises(BudgetExceededError) as exc:
        opt_exhaustive(u, budget=15)
    assert exc.value.count == 16


def test_opt_bounds_random_labeling():
    u, hidden = plant_instance(8, 3, 0.2, 0.8, seed=0)
    rng = np.random.default_rng(1)
    _, opt = opt_exhaustive(u, budget=10**5)
    for _ in range(20):
        lam = rng.integers(0, 3, size=8)
        assert value(u, lam) <= opt + 1e-12


def test_planted_value_exact():
    for eta in (0.0, 0.1, 0.3):
        u, hidden = plant_instance(10, 4, eta, 0.7, seed=3)
        n_edges = u.num_edges
        expected = 1.0 - np.floor(eta * n_edges) / n_edges
        assert abs(value(u, hidden) - expected) < 1e-12
        assert value(u, hidden) >= 1 - eta - 1e-12


def test_planted_single_label_degenerate():
    u, hidden = plant_instance(6, 1, 0.5, 1.0, seed=5)
    assert abs(value(u, np.zeros(6, dtype=int)) - 1.0) < 1e-12


def test_search_is_lower_bound_and_deterministic():
    u, _ = plant_instance(7, 3, 0.15, 0.9, seed=11)
    _, opt = opt_exhaustive(u, budget=10**5)
    lam_a, val_a = opt_search(u, seed=2, restarts=5)
    lam_b, val_b = opt_search(u, seed=2, restarts=5)
    assert val_a <= opt + 1e-12
    assert val_a == val_b and np.array_equal(lam_a, lam_b)


def test_search_recovers_planted_near_optimum():
    u, hidden = plant_instance(12, 4, 0.05, 0.9, seed=13)
    _, val = opt_search(u, seed=3, restarts=20)
    assert val >= value(u, hidden) - 0.05


def test_search_monotone_in_restarts():
    u, _ = plant_instance(9, 4, 0.3, 0.8, seed=17)
    vals = [opt_search(u, seed=5, restarts=r)[1] for r in (1, 3, 6, 10)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_label_extended_graph_single_edge():
    u = single_edge_instance()
    lo, hi, weight = label_extended_graph(u)
    assert len(weight) == 2
    assert all(abs(wt - 1.0) < 1e-15 for wt in weight)
    assert sum(weight) == 2.0  # total weight N


def test_label_extended_total_weight_and_regularity():
    u, _ = plant_instance(6, 4, 0.2, 0.8, seed=19)
    lo, hi, weight = label_extended_graph(u)
    assert abs(sum(weight) - 4.0) < 1e-9
    degs = np.bincount(np.concatenate([lo, hi]), weights=np.tile(weight, 2))
    assert len(degs) == 24 and degs.max() - degs.min() < 1e-9


# the planted fixtures of the tests above and below, as (arguments, seed)
PLANTED = [((8, 4, 0.2, 0.9), s) for s in range(3)] + [
    ((8, 3, 0.2, 0.8), 0), ((10, 4, 0.0, 0.7), 3), ((10, 4, 0.1, 0.7), 3),
    ((10, 4, 0.3, 0.7), 3), ((6, 1, 0.5, 1.0), 5), ((7, 3, 0.15, 0.9), 11),
    ((12, 4, 0.05, 0.9), 13), ((9, 4, 0.3, 0.8), 17), ((6, 4, 0.2, 0.8), 19),
    ((8, 3, 0.0, 0.8), 23), ((9, 4, 0.25, 0.9), 29), ((8, 4, 0.2, 0.8), 37),
    ((7, 3, 0.2, 0.9), 43), ((14, 2, 0.3, 1.0), 1), ((14, 2, 0.3, 1.0), 3),
] + [((6, 3, 0.2, 0.8), s) for s in range(3)]


def _label_extended_instances():
    """The quotient instances at k=2 (without and with self-loop bundles)
    and k=3, and the planted fixtures of this file."""
    yield from (build_kv_instance(k, eta)[0] for k, eta in
                ((2, 0.2), (2, 0.3), (3, 0.1), (3, 0.3)))
    for args, seed in PLANTED:
        yield plant_instance(*args, seed=seed)[0]


def test_label_extended_graph_equals_the_dict_loop():
    # the same label edges, each weight the dict's sum bit for bit: the
    # bincount adds a key's terms in (edge, label) order, as the loop does
    for u in _label_extended_instances():
        lo, hi, weight = label_extended_graph(u)
        expected = label_extended_graph_loop(u)
        keys = list(zip(lo.tolist(), hi.tolist()))
        assert keys == sorted(expected)
        assert weight.tolist() == [expected[key] for key in keys]


def test_expansion_identity_equals_the_dict_loop():
    rng = np.random.default_rng(47)
    for u in _label_extended_instances():
        for _ in range(20):
            lam = rng.integers(0, u.num_labels, size=u.num_vertices)
            val, ome = labeling_set_expansion_identity(u, lam)
            val_loop, ome_loop = labeling_set_expansion_identity_loop(u, lam)
            assert val == val_loop and abs(ome - ome_loop) < 1e-12


def test_expansion_identity_planted_perfect():
    u, hidden = plant_instance(8, 3, 0.0, 0.8, seed=23)
    val, ome = labeling_set_expansion_identity(u, hidden)
    assert abs(val - 1.0) < 1e-12 and abs(ome - 1.0) < 1e-12


def test_expansion_identity_fully_unsatisfied():
    u = single_edge_instance(perm=[1, 0])
    val, ome = labeling_set_expansion_identity(u, [0, 0])
    assert val == 0.0 and ome == 0.0


def test_expansion_identity_random_labelings():
    u, _ = plant_instance(9, 4, 0.25, 0.9, seed=29)
    rng = np.random.default_rng(31)
    for _ in range(50):
        lam = rng.integers(0, 4, size=9)
        val, ome = labeling_set_expansion_identity(u, lam)
        assert abs(val - ome) < 1e-9


def test_value_invariant_under_global_relabeling():
    u, _ = plant_instance(8, 4, 0.2, 0.8, seed=37)
    rng = np.random.default_rng(41)
    sigma = rng.permutation(4)
    inv = np.argsort(sigma)
    relabeled = UGInstance(
        u.num_vertices, u.num_labels, u.v, u.w, u.weight, sigma[u.perm[:, inv]],
        regularity_tol=1e-6,
    )
    for _ in range(20):
        lam = rng.integers(0, 4, size=8)
        assert abs(value(u, lam) - value(relabeled, sigma[lam])) < 1e-12


def test_serialization_round_trip():
    u, _ = plant_instance(7, 3, 0.2, 0.9, seed=43)
    text = ug_to_text(u)
    back = ug_from_text(text, regularity_tol=1e-6)
    assert back.num_vertices == u.num_vertices
    assert back.num_labels == u.num_labels
    assert back.num_edges == u.num_edges
    assert np.array_equal(back.v, u.v) and np.array_equal(back.w, u.w)
    assert np.array_equal(back.weight, u.weight)  # 17 significant digits are lossless
    assert np.array_equal(back.perm, u.perm)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        ug_from_text("XX 2 2 1\n0 1 1.0 0 1\n")


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("UG 2 2\n0 1 1.0 0 1\n", 1),
    ("\nUG 2 2 1\n0 1\n", 3),
])
def test_from_text_names_the_bad_line(text, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        ug_from_text(text)


@pytest.mark.parametrize("k, eta", [(3, 0.1), (3, 0.3), (2, 0.15), (2, 0.3)])
def test_opt_search_equals_the_per_edge_loop(k, eta):
    # per-vertex incidence arrays and one bincount per vertex give the
    # loop's gains, summed in the same edge order
    u, _, _ = build_kv_instance(k, eta)
    for seed in (0, 1, 7):
        lam, val = opt_search(u, seed=seed)
        lam_loop, val_loop = opt_search_loop(u, seed=seed)
        assert np.array_equal(lam, lam_loop) and val == val_loop


def with_isolated_vertex():
    u = build_kv_instance(2, 0.3)[0]
    return UGInstance(u.num_vertices + 1, u.num_labels, u.v, u.w, u.weight, u.perm,
                      regularity_tol=1.0)


@pytest.mark.parametrize("make", [
    lambda: build_kv_instance(2, 0.3)[0],
    lambda: build_kv_instance(3, 0.3)[0],
    lambda: plant_instance(12, 5, 0.3, 1.0, seed=4)[0],  # general permutations
    with_isolated_vertex,
], ids=["k2", "k3", "planted", "isolated"])
def test_incidence_is_the_oracle_plus_adjacent_loop_ends(make):
    u = make()
    d = u.edge_distribution
    inc = d.incidence
    maps = np.concatenate([d.perms, np.argsort(d.perms, axis=1)])
    assert len(inc.vertex) == 2 * u.num_edges and len(inc.bounds) == u.num_vertices + 1
    want = incidence(u)
    for v in range(u.num_vertices):
        ends = range(inc.bounds[v], inc.bounds[v + 1])
        assert all(inc.vertex[i] == v for i in ends)
        # end by end, in edge order, once the loop ends are set aside
        got = [i for i in ends if inc.other[i] != v]
        assert len(got) == len(want[v])
        for i, (other, weight, mapping) in zip(got, want[v]):
            assert inc.other[i] == other and inc.weight[i] == weight
            assert np.array_equal(maps[inc.row[i]], mapping)
    # each loop gives two adjacent ends, its v end (row p) and then its w
    # end (row P + p), the loops in edge order within a vertex
    loops = np.flatnonzero(d.v == d.w)
    loops = loops[np.argsort(d.v[loops], kind="stable")]
    loop_ends = np.flatnonzero(inc.other == inc.vertex)
    first = loop_ends[::2]
    assert len(loop_ends) == 2 * len(loops) and np.array_equal(loop_ends[1::2], first + 1)
    assert np.array_equal(inc.vertex[first], d.v[loops])
    assert np.array_equal(inc.row[first], d.table_of[loops])
    assert np.array_equal(inc.row[first + 1], d.table_of[loops] + len(d.perms))
    assert np.array_equal(inc.weight[first], d.weight[loops])
    if make is with_isolated_vertex:
        assert inc.bounds[-2] == inc.bounds[-1] == 2 * u.num_edges


def test_incidence_is_built_once_and_read_by_both_searches(monkeypatch):
    u = with_isolated_vertex()  # a fresh instance, so nothing is cached yet
    built, reads = [], []
    make = ug.Incidence
    cached = ug.EdgeDistribution.__dict__["incidence"]
    monkeypatch.setattr(ug, "Incidence", lambda *cols: built.append(1) or make(*cols))
    monkeypatch.setattr(ug.EdgeDistribution, "incidence", property(
        lambda d: reads.append(cached.__get__(d, type(d))) or reads[-1]))
    opt_search(u, seed=0, restarts=1)
    assert len(built) == 1 and len(reads) == 1
    balanced_cut_search(build_bes(u, 0.3), seed=0)  # local search builds the flip gains
    assert len(built) == 1 and len(reads) == 2 and reads[1] is reads[0]


@pytest.mark.parametrize("seed", [1, 3])
def test_opt_exhaustive_equals_the_labeling_scan(seed):
    # at 2 labels swapping both labels everywhere keeps every edge's
    # verdict, so each optimum ties with its complement; with 91 edges a
    # chunk holds 2^20 // 91 labelings, fewer than the 2^14 in all, and at
    # these seeds the two tied labelings fall in different chunks
    u, _ = plant_instance(14, 2, 0.3, 1.0, seed=seed)
    chunk = (1 << 20) // u.num_edges
    lam, val = opt_exhaustive(u)
    lam_loop, val_loop = opt_exhaustive_loop(u)
    assert np.array_equal(lam, lam_loop) and val == val_loop
    code = int(lam @ 2 ** np.arange(14))
    assert value(u, 1 - lam) == val and code < 2**14 - 1 - code
    assert 2**14 > chunk and code // chunk != (2**14 - 1 - code) // chunk


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_opt_exhaustive_equals_the_labeling_scan_planted(seed):
    u, _ = plant_instance(6, 3, 0.2, 0.8, seed=seed)
    lam, val = opt_exhaustive(u)
    lam_loop, val_loop = opt_exhaustive_loop(u)
    assert np.array_equal(lam, lam_loop) and val == val_loop


@pytest.mark.parametrize("edges, message", [
    (([0, 0], [1, 5], [0.5, 0.5], [[0, 0, 1], [0, 1, 2]]),
     "perm on edge (0,1) is not a bijection"),
    (([0, -1], [1, 1], [0.5, 0.5], [[0, 1, 2], [0, 0, 1]]),
     "edge endpoint out of range: -1,1"),
    (([0, 0], [1, 1], [0.5, float("inf")], [[0, 1, 2], [2, 2, 2]]),
     "edge (0,1) weight inf is not finite and nonnegative"),
    # one permutation array holds every edge's, so a width other than N is
    # a shape error, raised before any edge is checked
    (([0], [1], [1.0], [[0, 1]]),
     "edge columns of lengths 1, 1, 1 and permutations of shape (1, 2): "
     "need one row of width N = 3 per edge"),
    (([2**70], [1], [1.0], [[0, 1, 2]]), f"edge endpoint out of range: {2**70},1"),
])
def test_instance_checks_name_the_first_bad_edge(edges, message):
    # the checks run on whole arrays; the error is the one a scan over the
    # edges meets first (endpoints, then weight, then permutation per edge)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        UGInstance(2, 3, *edges)
