import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cutgap import unique_games as ug
from cutgap.cli import main
from cutgap.separator import balanced_cut_search, build_bes, cut_edge_weight
from cutgap.unique_games import (
    EXACT_LABEL_LIMIT,
    BudgetExceededError,
    UGInstance,
    label_extended_graph,
    labeling_set_expansion_identity,
    opt_exhaustive,
    opt_search,
    ug_from_text,
    ug_to_text,
    value,
)
from cutgap.quotient import build_kv_instance
from cutgap.verifier import Proof, acceptance_probability_exact, dictator_tables

from fixtures import plant_instance
from oracles import (
    agreement_by_enumeration,
    edge_rows,
    incidence,
    label_extended_graph_loop,
    labeling_set_expansion_identity_loop,
    level_sums_one_gather,
    opt_exhaustive_loop,
    opt_search_loop,
    pack_rows_matmul,
    sample_disagreements_choice,
    ug_text_per_edge,
)
from strategies import (
    CUT_EPSILONS,
    TEST_EPSILONS,
    search_instances,
    sign_tables,
    slab_inputs,
    ug_instances,
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
            val, ome = labeling_set_expansion_identity(u, lam, label_extended_graph(u))
            val_loop, ome_loop = labeling_set_expansion_identity_loop(u, lam)
            assert val == val_loop and abs(ome - ome_loop) < 1e-12


def test_expansion_identity_planted_perfect():
    u, hidden = plant_instance(8, 3, 0.0, 0.8, seed=23)
    val, ome = labeling_set_expansion_identity(u, hidden, label_extended_graph(u))
    assert abs(val - 1.0) < 1e-12 and abs(ome - 1.0) < 1e-12


def test_expansion_identity_fully_unsatisfied():
    u = single_edge_instance(perm=[1, 0])
    val, ome = labeling_set_expansion_identity(u, [0, 0], label_extended_graph(u))
    assert val == 0.0 and ome == 0.0


def test_expansion_identity_random_labelings():
    u, _ = plant_instance(9, 4, 0.25, 0.9, seed=29)
    rng = np.random.default_rng(31)
    graph = label_extended_graph(u)
    for _ in range(50):
        lam = rng.integers(0, 4, size=9)
        val, ome = labeling_set_expansion_identity(u, lam, graph)
        assert abs(val - ome) < 1e-9


def test_value_invariant_under_global_relabeling():
    u, _ = plant_instance(8, 4, 0.2, 0.8, seed=37)
    rng = np.random.default_rng(41)
    sigma = rng.permutation(4)
    inv = np.argsort(sigma)
    relabeled = UGInstance(
        u.num_vertices, u.num_labels, u.v, u.w, u.weight, sigma[u.perm[:, inv]],
    )
    for _ in range(20):
        lam = rng.integers(0, 4, size=8)
        assert abs(value(u, lam) - value(relabeled, sigma[lam])) < 1e-12


def test_serialization_round_trip():
    u, _ = plant_instance(7, 3, 0.2, 0.9, seed=43)
    text = ug_to_text(u)
    back = ug_from_text(text)
    assert back.num_vertices == u.num_vertices
    assert back.num_labels == u.num_labels
    assert back.num_edges == u.num_edges
    assert np.array_equal(back.v, u.v) and np.array_equal(back.w, u.w)
    assert np.array_equal(back.weight, u.weight)  # 17 significant digits are lossless
    assert np.array_equal(back.perm, u.perm)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 40), st.integers(1, 8), st.floats(0.0, 0.9), st.floats(0.1, 1.0),
       st.integers(0, 4))
def test_planted_instances_are_exactly_regular(num_vertices, num_labels, eta, density, seed):
    """Every vertex of a planted instance has the same weighted degree to
    the last bit, so it passes the readers' default tolerance unchanged."""
    u, _ = plant_instance(num_vertices, num_labels, eta, density, seed=seed)
    degree = np.bincount(np.concatenate([u.v, u.w]), weights=np.tile(u.weight, 2),
                         minlength=num_vertices)
    assert degree.max() - degree.min() == 0.0
    text = ug_to_text(u)
    assert text == ug_text_per_edge(u)
    back = ug_from_text(text)
    assert np.array_equal(back.v, u.v) and np.array_equal(back.w, u.w)
    assert np.array_equal(back.weight, u.weight) and np.array_equal(back.perm, u.perm)


@pytest.mark.parametrize("k, eta, window", [
    (1, 0.3, "typical"), (1, 0.3, "none"), (2, 0.2, "typical"), (2, 0.3, "typical"),
    (2, 0.3, "none"), (3, 0.1, "typical"), (3, 0.3, "typical"), (3, 0.3, "none"),
])
def test_text_formats_each_weight_as_the_per_edge_loop(k, eta, window):
    u = build_kv_instance(k, eta, window=window)[0]
    assert ug_to_text(u) == ug_text_per_edge(u)


def test_text_keeps_the_sign_of_a_zero_weight():
    # 0.0 and -0.0 are equal floats but print as "0" and "-0"
    u = UGInstance(2, 2, [0, 1, 0, 1], [1, 0, 1, 0], [0.5, 0.5, 0.0, -0.0],
                   [[0, 1], [1, 0], [0, 1], [1, 0]])
    assert ug_to_text(u) == ug_text_per_edge(u) == \
        "UG 2 2 4\n0 1 0.5 0 1\n1 0 0.5 1 0\n0 1 0 0 1\n1 0 -0 1 0\n"


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


@pytest.mark.parametrize("restarts", [0, 1, 10])
@pytest.mark.parametrize("num_labels", range(1, EXACT_LABEL_LIMIT + 1))
@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_lockstep_search_is_the_loop_on_generated_instances(num_labels, restarts, data, seed):
    # loops, tied weights and an isolated vertex: the restarts in lockstep
    # give each restart's own labeling, gain for gain (and no labeling,
    # value -1.0, without restarts)
    u = data.draw(search_instances(num_labels))
    lam, val = opt_search(u, seed=seed, restarts=restarts)
    lam_loop, val_loop = opt_search_loop(u, seed=seed, restarts=restarts)
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


def test_pulls_and_the_own_row_plan_are_built_once_per_instance(monkeypatch):
    u = build_kv_instance(3, 0.3)[0]  # a fresh instance, so nothing is cached yet
    built, reads, plans = [], [], []
    make = ug.Pulls
    cached = ug.EdgeDistribution.__dict__["pulls"]
    row_keys = ug.EdgeDistribution.row_keys
    monkeypatch.setattr(ug, "Pulls", lambda *cols: built.append(1) or make(*cols))
    monkeypatch.setattr(ug.EdgeDistribution, "pulls", property(
        lambda d: reads.append(cached.__get__(d, type(d))) or reads[-1]))
    monkeypatch.setattr(ug.EdgeDistribution, "row_keys",
                        lambda d, row_of: plans.append(row_keys(d, row_of)) or plans[-1])
    inst = build_bes(u, 0.3)
    rng = np.random.default_rng(7)
    for _ in range(3):  # 32 distinct blocks each: one own-row map
        cut_edge_weight(inst, rng.choice(np.array([-1, 1], dtype=np.int8), size=inst.num_vertices))
    assert len(built) == 1 and len(reads) == 1
    assert len(plans) == 3 and all(keys is plans[0] for keys in plans)
    # blocks that repeat merge the same pairs again, into a plan of their own
    cut_edge_weight(inst, dictator_tables(rng.integers(0, 8, size=32), 8).ravel())
    assert len(built) == 1 and len(reads) == 2 and reads[1] is reads[0]
    assert len(plans) == 4 and plans[3] is not plans[0]
    # one row per distinct (other endpoint, table) pair, fewer than the edges
    d, pulls = u.edge_distribution, reads[0]
    pairs = np.stack([pulls.other, pulls.table], axis=1)
    assert len(pairs) == len(np.unique(pairs, axis=0)) == 254 < u.num_edges == 2576
    assert np.array_equal(pulls.other[pulls.pair], d.w)
    assert np.array_equal(pulls.table[pulls.pair], d.table_of)


def plan_arrays(keys):
    """Every array of a `RowKeys` plan, its slabs' included."""
    return [keys.key_pull, keys.key_of,
            *(a for slab in keys.slabs for a in (slab.v_row, slab.gather, slab.cell))]


def assert_slab_plan(d, keys, row_of, rng):
    """The slabs split the keys in order, by v-row: each holds the keys of
    ROW_SLAB v-rows (the last of at most that many), the v-rows increase
    across them, and no v-row's keys span two slabs; every pull a slab
    gathers is read by one of its keys, and each key's cell names its v-row
    and, among level-sorted rows, the pulled row (row of w)[tables[p]] of
    an edge (v, w) with table p that has the key. Returns each key's v-row."""
    stops = [slab.keys.stop for slab in keys.slabs]
    assert [slab.keys.start for slab in keys.slabs] == [0] + stops[:-1]
    assert stops[-1] == len(keys.key_pull)
    assert np.all(np.diff(np.concatenate([slab.v_row for slab in keys.slabs])) > 0)
    assert all(len(slab.v_row) == ug.ROW_SLAB for slab in keys.slabs[:-1])
    assert np.array_equal(np.unique(keys.key_of), np.arange(len(keys.key_pull)))
    edge = np.empty(len(keys.key_pull), dtype=np.int64)
    edge[keys.key_of] = np.arange(len(keys.key_of))  # one edge of each key
    values = rng.integers(-99, 99, size=(row_of.max() + 1, 1 << d.num_labels))
    sorted_values = values[:, d.levels.order]
    key_row = []
    for slab in keys.slabs:
        assert 0 < len(slab.v_row) <= ug.ROW_SLAB
        row, read = np.divmod(slab.cell, len(slab.gather))
        assert np.all(np.diff(row) >= 0) and np.array_equal(np.unique(row), np.arange(len(slab.v_row)))
        assert np.array_equal(np.unique(read), np.arange(len(slab.gather)))
        e = edge[slab.keys]
        pulled = values[row_of[d.w[e], None], d.tables[d.table_of[e]]]
        assert np.array_equal(sorted_values.take(slab.gather)[read], pulled[:, d.levels.order])
        key_row.append(slab.v_row[row])
    return np.concatenate(key_row)


def test_row_keys_name_each_distinct_read_once():
    # an edge (v, w) with table p reads row row_of[v] and the pulled row
    # (row row_of[w])[tables[p]]: each key and each pull is one distinct read
    rng = np.random.default_rng(11)
    instances = [build_kv_instance(k, 0.3)[0] for k in (2, 3)]
    instances += [plant_instance(9, 4, 0.2, 0.9, seed=2)[0], plant_instance(30, 8, 0.1, 0.8, seed=1)[0]]
    for u in instances:
        d, m = u.edge_distribution, u.num_vertices
        for row_of in (np.zeros(m, dtype=np.int64), np.arange(m), rng.permutation(m),
                       rng.integers(0, 3, size=m)):
            keys = d.row_keys(row_of)
            key_row = assert_slab_plan(d, keys, row_of, rng)
            assert np.array_equal(key_row[keys.key_of], row_of[d.v])
            # the pulls are the distinct (row of w, p) reads, in their order
            _, read_of = np.unique(np.stack([row_of[d.w], d.table_of], axis=1), axis=0,
                                   return_inverse=True)
            assert np.array_equal(keys.key_pull[keys.key_of], read_of.ravel())
            assert len(set(zip(key_row.tolist(), keys.key_pull.tolist()))) == len(key_row)
        # a map's plan is kept: an equal map of another type reads it, and
        # a fresh build of the map is equal to it
        for row_of in (np.arange(m), np.zeros(m, dtype=np.int64)):
            got = d.row_keys(row_of)
            assert d.row_keys(row_of.tolist()) is got
            d.plans.clear()
            want = d.row_keys(row_of)
            assert want is not got and len(d.plans) == 1
            assert [slab.keys for slab in got.slabs] == [slab.keys for slab in want.slabs]
            for a, b in zip(plan_arrays(got), plan_arrays(want), strict=True):
                assert np.array_equal(a, b) and not a.flags.writeable


def test_row_plans_are_keyed_by_the_whole_row_map(monkeypatch):
    # two labeling cuts of 4 distinct rows each, under different row maps:
    # a plan looked up by less than the whole map would weigh the second
    # cut's edges by the first cut's keys
    u = build_kv_instance(3, 0.3)[0]  # a fresh instance, so nothing is cached yet
    d = u.edge_distribution
    built = []
    make = ug.RowKeys
    monkeypatch.setattr(ug, "RowKeys", lambda *fields: built.append(1) or make(*fields))
    first, second = dictator_tables(np.arange(32) % 4, 8), dictator_tables(np.arange(32) // 8, 8)
    maps = [ug.distinct_rows(tables)[1] for tables in (first, second)]
    assert maps[0].max() == maps[1].max() == 3 and not np.array_equal(*maps)
    want = [level_sums_one_gather(d, tables) for tables in (first, second)]
    assert not np.array_equal(*want)
    for tables, sums in ((first, want[0]), (second, want[1]), (first, want[0])):
        assert (d.level_sums(tables) == sums).all()
    assert len(built) == 2 and len(d.plans) == 2


def test_the_sampler_builds_no_slab_plan(monkeypatch):
    # the Monte Carlo count reads the pulls alone: no plan, no slab
    u = build_kv_instance(3, 0.3)[0]  # a fresh instance, so nothing is cached yet
    built = []
    make = ug.Slab
    monkeypatch.setattr(ug, "Slab", lambda *fields: built.append(1) or make(*fields))
    d = u.edge_distribution
    blocks = np.random.default_rng(3).choice(np.array([-1, 1], dtype=np.int8), size=(32, 256))
    got = d.sample_disagreements(blocks, 5000, seed=4, epsilon=0.3)
    assert got == sample_disagreements_choice(d, blocks, 5000, 4, 0.3)
    assert built == [] and d.plans == {}


def test_every_kept_plan_is_read_only():
    u = build_kv_instance(3, 0.3)[0]
    d = u.edge_distribution
    rng = np.random.default_rng(9)
    cuts = [rng.choice(np.array([-1, 1], dtype=np.int8), size=(32, 256)),
            dictator_tables(rng.integers(0, 8, size=32), 8), dictator_tables(np.zeros(32), 8)]
    for tables in cuts:
        d.level_sums(tables)
    assert len(d.plans) == 3
    for keys in d.plans.values():
        for a in plan_arrays(keys):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]


def test_a_k3_build_row_keeps_at_most_three_plans(tmp_path, monkeypatch):
    # the exact cut weights of one build-bes row (coordinate, majority,
    # labeling and random candidates and the best cut) read few row maps
    seen = {}
    row_keys = ug.EdgeDistribution.row_keys

    def spy(d, row_of):
        seen[id(d)] = d
        return row_keys(d, row_of)
    monkeypatch.setattr(ug.EdgeDistribution, "row_keys", spy)
    assert main(["build-bes", "--k", "3", "--eta", "0.3", "--epsilon", "0.3",
                 "--out", str(tmp_path)]) == 0
    assert len(seen) == 1
    assert 1 <= len(next(iter(seen.values())).plans) <= 3


def test_slab_plans_of_the_fixed_keys_are_built_once_per_instance(monkeypatch):
    # a cut of 32 distinct blocks reads the own-row map, a coordinate cut
    # the one-row map: each plan (one slab of 32 v-rows, one of one) is
    # built on the first call only, while a labeling cut's map is its own
    u = build_kv_instance(3, 0.3)[0]  # a fresh instance, so nothing is cached yet
    built = []
    make = ug.Slab
    monkeypatch.setattr(ug, "Slab", lambda *fields: built.append(len(fields[0])) or make(*fields))
    inst = build_bes(u, 0.3)
    rng = np.random.default_rng(5)
    for i in range(3):
        cut_edge_weight(inst, rng.choice(np.array([-1, 1], dtype=np.int8), size=inst.num_vertices))
        cut_edge_weight(inst, dictator_tables(np.full(32, i), 8).ravel())
    assert built == [32, 1]
    cut_edge_weight(inst, dictator_tables(rng.integers(0, 8, size=32), 8).ravel())
    cut_edge_weight(inst, dictator_tables(rng.integers(0, 8, size=32), 8).ravel())
    assert len(built) == 4 and built[:2] == [32, 1]


def test_distinct_rows_are_equal_bytes():
    rng = np.random.default_rng(13)
    floats = rng.normal(size=(6, 4))
    floats[1], floats[3], floats[4] = 0.0, -0.0, floats[0]
    tables = rng.choice(np.array([-1, 1], dtype=np.int8), size=(40, 4))
    for values, count in ((floats, 5), (tables, len(np.unique(tables, axis=0))),
                          (np.ones((3, 8)), 1)):
        rows, row_of = ug.distinct_rows(values)
        assert len(rows) == count and rows.dtype == values.dtype
        assert rows[row_of].tobytes() == values.tobytes()
    # 0.0 and -0.0 compare equal but keep their own rows
    rows, row_of = ug.distinct_rows(floats)
    assert row_of[1] != row_of[3] and row_of[4] == row_of[0]
    assert np.signbit(rows[row_of[3]]).all() and not np.signbit(rows[row_of[1]]).any()


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


def test_edge_distribution_reads_the_label_cap():
    # its tables take 2^N entries per distinct permutation
    u = single_edge_instance(n_labels=EXACT_LABEL_LIMIT + 1)
    with pytest.raises(ValueError, match="9 labels exceed the limit 8"):
        value(u, [0, 0])


def many_scales_instance(num_labels=8, num_edges=3000, seed=0):
    """Random permutations on random endpoints with weights 10^-U(0, 15),
    50 of them zero: many guide buckets hold a cdf step, some hold many and
    some steps are flat. The sampler needs no regular degrees."""
    rng = np.random.default_rng(seed)
    weight = 10.0 ** -rng.uniform(0, 15, size=num_edges)
    weight[rng.choice(num_edges, 50, replace=False)] = 0.0
    perm = rng.permuted(np.tile(np.arange(num_labels), (num_edges, 1)), axis=1)
    ends = rng.integers(0, 40, size=(2, num_edges))
    return UGInstance(40, num_labels, *ends, weight / weight.sum(), perm, regularity_tol=2.0)


def dyadic_instance(num_edges=1024):
    """Equal weights 2^-10: every cdf entry sits exactly on a bucket bound."""
    rng = np.random.default_rng(1)
    perm = rng.permuted(np.tile(np.arange(4), (num_edges, 1)), axis=1)
    ends = rng.integers(0, 16, size=(2, num_edges))
    return UGInstance(16, 4, *ends, np.full(num_edges, 1.0 / num_edges), perm,
                      regularity_tol=2.0)


@functools.cache
def sampler_instance(name):
    if name.startswith("kv"):
        return build_kv_instance(int(name[2:]), 0.3)[0]
    if name == "planted":
        return plant_instance(12, 8, 0.3, 0.9, seed=5)[0]
    return {"many_scales": many_scales_instance, "dyadic": dyadic_instance}[name]()


SAMPLER_INSTANCES = ["kv2", "kv3", "planted", "many_scales", "dyadic"]


@pytest.mark.parametrize("name", ["kv1"] + SAMPLER_INSTANCES)
def test_distinct_permutations_are_the_unique_rows(name):
    # the base-N row codes sort as the rows do, so the distinct permutations
    # and each edge's index among them are np.unique's over the rows
    u = sampler_instance(name)
    d = u.edge_distribution
    perms, table_of = np.unique(u.perm, axis=0, return_inverse=True)
    assert d.perms.dtype == perms.dtype and np.array_equal(d.perms, perms)
    assert np.array_equal(d.table_of, table_of.ravel())
    assert not d.perms.flags.writeable and not d.table_of.flags.writeable


@pytest.mark.parametrize("name", SAMPLER_INSTANCES)
def test_guide_bounds_are_the_cdf_searches(name):
    d = sampler_instance(name).edge_distribution
    guide = d.guide
    assert d.guide is guide  # built once
    p = d.weight / d.weight.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    assert np.array_equal(guide.cdf, cdf)
    j = np.arange(1 << ug.GUIDE_BITS)
    lo = cdf.searchsorted(j / (1 << ug.GUIDE_BITS), "right")
    hi = cdf.searchsorted((j + 1) / (1 << ug.GUIDE_BITS), "left")
    assert guide.edge.dtype == np.intp
    assert np.array_equal(guide.edge, np.where(lo == hi, lo, -1))
    assert not any(a.flags.writeable for a in guide)


@pytest.mark.parametrize("name", ["kv3", "many_scales", "dyadic"])
def test_edge_draws_on_a_cdf_entry_or_a_bucket_bound_are_choices(name):
    # a uniform equal to a cdf entry finds the edge after it, as choice's
    # searchsorted(side="right") does, both where the bucket names the
    # edge and where the draw is searched
    d = sampler_instance(name).edge_distribution
    cdf = d.guide.cdf
    u = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 1),
                        np.arange(1 << ug.GUIDE_BITS) / (1 << ug.GUIDE_BITS)])
    u = u[u < 1]

    class Uniforms:
        def random(self, size):
            assert size == len(u)
            return u

    assert np.array_equal(d._draw_edges(Uniforms(), len(u)), cdf.searchsorted(u, "right"))


@pytest.fixture
def generators(monkeypatch):
    """Every generator np.random.default_rng makes from here on, with the
    names of the methods called on it and the shapes of their `out` arrays."""
    made = []
    make = np.random.default_rng

    class Recorded:
        def __init__(self, seed):
            self.gen, self.calls, self.outs = make(seed), [], []
            made.append(self)

        def __getattr__(self, name):
            method = getattr(self.gen, name)

            def call(*args, **kwargs):
                self.calls.append(name)
                if "out" in kwargs:
                    self.outs.append(kwargs["out"].shape)
                return method(*args, **kwargs)
            return call

    monkeypatch.setattr(np.random, "default_rng", Recorded)
    return made


@pytest.mark.parametrize("name", SAMPLER_INSTANCES)
def test_sampler_draws_what_choice_draws(name, generators):
    # the same count, with the generator left where choice leaves it, over
    # one draw, a partial flip block either side of a whole one, one whole
    # batch and a partial one after it
    u = sampler_instance(name)
    d = u.edge_distribution
    blocks = np.random.default_rng(5).choice(np.array([-1, 1], dtype=np.int8),
                                             size=(u.num_vertices, 1 << u.num_labels))
    for epsilon in (0.05, 0.3, 0.45):
        for samples in (1, 4095, 4097, 65536, 65537, 100000):
            count = d.sample_disagreements(blocks, samples, samples, epsilon)
            sampler = generators[-1]
            assert count == sample_disagreements_choice(d, blocks, samples, samples, epsilon)
            oracle = generators[-1]
            assert "choice" not in sampler.calls
            assert sampler.gen.bit_generator.state == oracle.gen.bit_generator.state


@pytest.mark.parametrize("num_labels", range(1, EXACT_LABEL_LIMIT + 1))
def test_sampler_draws_what_choice_draws_on_planted_instances(num_labels):
    # every label count the sampler takes, no flips to half of them flipped,
    # and int8 and float tables (the pulled table keeps their dtype)
    u = plant_instance(12, num_labels, 0.3, 0.9, seed=num_labels)[0]
    d = u.edge_distribution
    signs = np.random.default_rng(num_labels).choice(
        np.array([-1, 1], dtype=np.int8), size=(u.num_vertices, 1 << num_labels))
    for blocks in (signs, signs * 0.5):
        for epsilon in (0.0, 0.1, 0.3, 0.5):
            for seed, samples in ((0, 1), (1, 5000), (2, 70000)):
                assert (d.sample_disagreements(blocks, samples, seed, epsilon)
                        == sample_disagreements_choice(d, blocks, samples, seed, epsilon))


def test_sampler_holds_no_full_flip_array(generators):
    # a batch of 65536 draws and one of 4464: each draws its edges' and
    # its points' uniforms, then its flips FLIP_ROWS = 4096 rows at a time
    # into one buffer
    u = sampler_instance("kv3")
    blocks = np.ones((u.num_vertices, 1 << u.num_labels))
    u.edge_distribution.sample_disagreements(blocks, 70000, 0, 0.3)
    rec = generators[-1]
    assert rec.calls == (["random", "integers"] + ["random"] * 16
                         + ["random", "integers"] + ["random"] * 2)
    assert rec.outs == [(4096, 8)] * 17 + [(368, 8)]


@pytest.mark.parametrize("n", range(1, EXACT_LABEL_LIMIT + 1))
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_packed_flips_are_the_matmul_on_every_row_pattern(n, data):
    # all 2^N rows of N bits in a drawn order, then drawn spare bytes: at
    # N = 3, 5, 6 and 7 each row is read in a word of 4 or 8 bytes that
    # reaches into the next row or the spare bytes, which the mask drops;
    # a drawn prefix of the rows is packed, as for a partial flip block
    patterns = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    rows = patterns[data.draw(st.permutations(range(1 << n)))]
    spare = data.draw(arrays(bool, (1 << (n - 1).bit_length()) - n))
    count = data.draw(st.integers(1, 1 << n))
    out = np.empty(count, dtype=np.uint8)
    assert ug._pack_rows(np.concatenate([rows.ravel(), spare]), n, out) is out
    assert np.array_equal(out, pack_rows_matmul(rows[:count]))
    assert np.array_equal(out, np.packbits(rows[:count], axis=-1, bitorder="little")[:, 0])
    if count == 1 << n:
        assert np.array_equal(np.sort(out), np.arange(1 << n))


@pytest.mark.parametrize("shape", [(32, 255), (32, 257), (31, 256), (256, 32), (32 * 256,)])
def test_sampler_rejects_tables_of_another_shape(shape):
    # the gathers read flat indices, which a wrongly shaped table would
    # answer from the wrong entries
    d = sampler_instance("kv3").edge_distribution
    with pytest.raises(ValueError, match="need one row of 2\\^8 values for each of 32"):
        d.sample_disagreements(np.ones(shape), 100, 0, 0.3)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_agreement_is_the_enumeration_on_generated_instances(data):
    # the integer level sums are the one gather's, and a cut weight and an
    # acceptance, each rounded once, are the enumeration's rationals
    u = data.draw(ug_instances())
    tables = data.draw(sign_tables(u.num_vertices, u.num_labels))
    d = u.edge_distribution
    assert np.array_equal(d.level_sums(tables), level_sums_one_gather(d, tables))
    eps = data.draw(CUT_EPSILONS)
    weight, _ = agreement_by_enumeration(d, tables, eps)
    assert cut_edge_weight(build_bes(u, eps), tables.ravel()) == float(weight)
    eps = data.draw(TEST_EPSILONS)
    _, acceptance = agreement_by_enumeration(d, tables, eps)
    assert acceptance_probability_exact(u, Proof(u.num_labels, tables), eps) == float(acceptance)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(slab_inputs(ug.ROW_SLAB))
def test_slab_level_sums_are_the_one_gather_on_generated_instances(inputs):
    # more v-rows than one slab holds as often as not, repeated rows,
    # loops and several weight classes: the slab products are the one
    # gather's integers, and a v-row count past ROW_SLAB takes more slabs
    u, tables = inputs
    d = u.edge_distribution
    assert np.array_equal(d.level_sums(tables), level_sums_one_gather(d, tables))
    row_of = ug.distinct_rows(tables)[1]
    keys = d.row_keys(row_of)
    v_rows = len(np.unique(row_of[d.v]))
    assert len(keys.slabs) == -(-v_rows // ug.ROW_SLAB)


def test_slab_plans_are_linear_in_the_keys_past_many_slabs(monkeypatch):
    # 4000 vertices of their own rows, 8000 edges: over a hundred slabs of
    # v-rows, each finding the pulls it reads from its own keys. The arrays
    # that numpy's functions return while the plans are built add up to a
    # few times the edges, where a pass over every pull per slab would take
    # about twice the pulls per slab
    rng = np.random.default_rng(17)
    m, e = 4000, 8000
    perm = np.array([[0, 1], [1, 0]])[rng.integers(0, 2, size=e)]
    raw = rng.random(e)
    u = UGInstance(m, 2, rng.integers(0, m, size=e), rng.integers(0, m, size=e),
                   raw / raw.sum(), perm, regularity_tol=np.inf)
    d = u.edge_distribution
    d.levels, d.pulls  # built once, outside the count

    class Counted:
        elements = 0

        def __getattr__(self, name):
            attr = getattr(np, name)
            if not callable(attr) or isinstance(attr, type):
                return attr

            def call(*args, **kwargs):
                out = attr(*args, **kwargs)
                Counted.elements += sum(a.size for a in (out if isinstance(out, tuple) else (out,))
                                        if isinstance(a, np.ndarray))
                return out
            return call

    monkeypatch.setattr(ug, "np", Counted())
    keys = d.row_keys(np.arange(m))
    monkeypatch.undo()
    assert len(keys.slabs) > 100 and len(np.unique(keys.key_pull)) > 5000
    assert Counted.elements <= 16 * e
    assert_slab_plan(d, keys, np.arange(m), rng)


def test_level_sums_are_linear_in_the_edges_when_every_weight_differs():
    # 3000 edges of 4 labels, no two of one weight, under a proof whose 200
    # rows all differ: about 3000 classes by 3000 keys, whose float64 table
    # alone would take 72 MB. The route stays linear in |E|, and its values
    # are the one gather's and the enumeration's
    rng = np.random.default_rng(11)
    e = 3000
    perm = np.array(list(itertools.permutations(range(4))))[rng.integers(0, 24, size=e)]
    raw = rng.random(e)
    u = UGInstance(200, 4, rng.integers(0, 200, size=e), rng.integers(0, 200, size=e),
                   raw / raw.sum(), perm, regularity_tol=np.inf)
    d = u.edge_distribution
    assert len(np.unique(d.weight)) == e
    tables = rng.choice(np.array([-1, 1], dtype=np.int8), size=(200, 16))
    tracemalloc.start()
    try:
        sums = d.level_sums(tables)
        weight, acceptance = d.probabilities(tables, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert np.array_equal(sums, level_sums_one_gather(d, tables))
    exact_weight, exact_acceptance = agreement_by_enumeration(d, tables, 0.3)
    assert (weight, acceptance) == (float(exact_weight), float(exact_acceptance))
