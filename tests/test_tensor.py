from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgap.quotient import build_kv_instance, build_ug_sdp_solution
from cutgap import tensor
from cutgap.tensor import (
    REFERENCE_OUTER_POWER,
    GramCache,
    base_gram,
    shift_covariance_residual,
    triangle_sweep,
    triangle_sweep_upper,
)
from oracles import (
    BESVectorHandle,
    bes_inner,
    materialize_tensor_power,
    odd_power_triangle_transfer,
    tensor_inner,
    triangle_sweep_ordered,
)
from strategies import int8_tables


def orthonormal_basis(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def test_tensor_inner_orthogonal_and_unit():
    x = np.array([1.0, 0.0, 0.0])
    z = np.array([0.0, 1.0, 0.0])
    for l in (1, 2, 5):
        assert tensor_inner(x, z, l) == 0.0
        assert tensor_inner(x, x, l) == 1.0


def test_tensor_inner_matches_materialized():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=4)
        z = rng.normal(size=4)
        lhs = tensor_inner(x, z, 3)
        rhs = float(
            materialize_tensor_power(x, 3) @ materialize_tensor_power(z, 3)
        )
        assert abs(lhs - rhs) < 1e-12


def test_tensor_inner_rejects_mismatch():
    with pytest.raises(ValueError):
        tensor_inner([1.0, 0.0], [1.0, 0.0, 0.0], 2)


def test_reference_outer_power_is_odd_and_huge():
    assert REFERENCE_OUTER_POWER % 2 == 1
    assert REFERENCE_OUTER_POWER.bit_length() == 241


def make_cache(k=2, eta=0.3, l_in=8):
    u, q, cube = build_kv_instance(k, eta)
    sol = build_ug_sdp_solution(q)
    return u, q, GramCache(sol.basis, l_in=l_in)


def test_unit_norm_exact():
    _, q, cache = make_cache()
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = int(rng.integers(q.num_classes))
        x = rng.choice([-1, 1], size=q.N)
        h = BESVectorHandle(v, x, l_in=8, t=3)
        assert bes_inner(h, h, cache) == 1.0


def test_antipode_is_minus_one_for_odd_t():
    _, q, cache = make_cache()
    x = np.array([1, -1, 1, 1], dtype=np.int8)
    a = BESVectorHandle(0, x, l_in=8, t=3)
    b = BESVectorHandle(0, -x, l_in=8, t=3)
    assert bes_inner(a, b, cache) == -1.0


def test_symmetry_and_magnitude_bound():
    _, q, cache = make_cache()
    rng = np.random.default_rng(2)
    for _ in range(50):
        va, vb = rng.integers(0, q.num_classes, size=2)
        ha = BESVectorHandle(int(va), rng.choice([-1, 1], size=4), l_in=8, t=3)
        hb = BESVectorHandle(int(vb), rng.choice([-1, 1], size=4), l_in=8, t=3)
        ab = bes_inner(ha, hb, cache)
        assert abs(ab - bes_inner(hb, ha, cache)) < 1e-15
        assert abs(ab) <= 1.0 + 1e-12


def test_powering_shrinks_magnitude_preserving_sign():
    _, q, cache = make_cache()
    rng = np.random.default_rng(3)
    for _ in range(50):
        va, vb = rng.integers(0, q.num_classes, size=2)
        xa = rng.choice([-1, 1], size=4)
        xb = rng.choice([-1, 1], size=4)
        v1 = bes_inner(
            BESVectorHandle(int(va), xa, t=1), BESVectorHandle(int(vb), xb, t=1), cache
        )
        v3 = bes_inner(
            BESVectorHandle(int(va), xa, t=3), BESVectorHandle(int(vb), xb, t=3), cache
        )
        assert abs(v3) <= abs(v1) + 1e-15
        assert v1 * v3 >= -1e-15


def test_bes_inner_matches_materialized_tensors():
    # two-stage materialization oracle at N=4: inner power then outer power
    rng = np.random.default_rng(4)
    h4 = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=np.int8
    )
    basis = np.stack([h4, h4 * np.array([1, -1, 1, -1], dtype=np.int8)])
    for l_in, t in ((2, 1), (2, 3), (4, 1)):
        cache = GramCache(basis, l_in=l_in)
        for _ in range(5):
            xa = rng.choice([-1, 1], size=4)
            xb = rng.choice([-1, 1], size=4)
            ha = BESVectorHandle(0, xa, l_in=l_in, t=t)
            hb = BESVectorHandle(1, xb, l_in=l_in, t=t)
            fast = bes_inner(ha, hb, cache)
            va = sum(
                xa[i] * materialize_tensor_power(basis[0, i] / 2.0, l_in)
                for i in range(4)
            ) / 2.0
            vb = sum(
                xb[i] * materialize_tensor_power(basis[1, i] / 2.0, l_in)
                for i in range(4)
            ) / 2.0
            slow = float(
                materialize_tensor_power(va, t) @ materialize_tensor_power(vb, t)
            )
            assert abs(fast - slow) < 1e-10, (l_in, t, fast, slow)


def test_gram_cache_transpose():
    _, q, cache = make_cache()
    g = cache.gram(1, 0)
    assert np.array_equal(g, cache.gram(0, 1).T)


def test_gram_table_matches_base_gram_blocks():
    # every block of the powered base Gram is read off one table row; the
    # reference is the per-pair product of the two bases
    for k in (2, 3):
        _, q, cache = make_cache(k=k)
        basis = cache.basis.astype(np.float64)
        for v in range(q.num_classes):
            for w in (0, v, q.num_classes - 1):
                block = (basis[v] @ basis[w].T / q.N) ** 8
                assert np.array_equal(cache.gram(v, w), block)


def test_gram_cache_rejects_non_covariant_basis():
    # two rows of one class swapped: still orthonormal, no longer a function
    # of s xor t, so the table would misread it
    _, q, cache = make_cache()
    basis = cache.basis.copy()
    basis[1, [0, 1]] = basis[1, [1, 0]]
    assert shift_covariance_residual(base_gram(basis)) > 0.0
    with pytest.raises(ValueError):
        GramCache(basis, l_in=8)


def test_handle_validation():
    with pytest.raises(ValueError):
        BESVectorHandle(0, [1, 1, 0, 1])
    with pytest.raises(ValueError):
        BESVectorHandle(0, [1, 1, 1, 1], t=2)
    with pytest.raises(ValueError):
        BESVectorHandle(0, [1, 1, 1, 1], l_in=3)


def test_odd_power_transfer_hand_case():
    # a=0.5, b=0.9, c=0.6, t=3: 1.125 >= 0.945
    assert odd_power_triangle_transfer(0.5, 0.9, 0.6, 3)
    assert odd_power_triangle_transfer(1.0, 1.0, 1.0, 7)  # equality boundary


def test_odd_power_transfer_rejects_bad_inputs():
    with pytest.raises(ValueError):
        odd_power_triangle_transfer(0.0, 0.9, 0.9, 3)  # precondition fails
    with pytest.raises(ValueError):
        odd_power_triangle_transfer(0.5, 0.2, 0.1, 2)  # even t
    with pytest.raises(ValueError):
        odd_power_triangle_transfer(1.5, 0.2, 0.1, 3)  # out of range


def test_odd_power_transfer_fuzz():
    rng = np.random.default_rng(5)
    ts = np.arange(3, 43, 2)
    checked = 0
    while checked < 200000:
        vals = rng.uniform(-1, 1, size=(4096, 3))
        ok = 1 + vals[:, 0] >= vals[:, 1] + vals[:, 2]
        vals = vals[ok]
        t = int(rng.choice(ts))
        lhs = 1 + vals[:, 0] ** t
        rhs = vals[:, 1] ** t + vals[:, 2] ** t
        assert np.all(lhs >= rhs - 1e-12)
        checked += len(vals)


def brute_force_terms(ac, bc, ab, first, second):
    """ac[a, c] + bc[b, c] - ab[a, b] as exact integers, [pair, c]."""
    return (ac[first].astype(object) + bc[second].astype(object)
            - ab[first, second].astype(object)[:, None])


@pytest.mark.parametrize("dtype, bound", [(np.int8, 42), (np.int32, 2**29), (np.int64, 2**60)])
def test_triangle_sweep_is_the_brute_force_max(monkeypatch, dtype, bound):
    rng = np.random.default_rng(23)
    ac, bc, ab = (rng.integers(-bound, bound + 1, size=shape).astype(dtype)
                  for shape in ((13, 9), (7, 9), (13, 7)))
    # three pairs per step (two gathered rows a pair): first points 2..12
    # with every second point are 77 pairs, so the last step holds two
    monkeypatch.setattr(tensor, "TRIANGLE_STEP_BYTES", 2 * 3 * bc[0].nbytes)
    first, second = (a.ravel() for a in np.meshgrid(np.arange(2, 13), np.arange(7),
                                                    indexing="ij"))
    terms = brute_force_terms(ac, bc, ab, first, second)
    assert triangle_sweep(ac, bc, ab, (first, second)) == max(terms.ravel())


def test_triangle_sweep_takes_an_index_array_of_first_points(monkeypatch):
    rng = np.random.default_rng(29)
    ac, bc, ab = (rng.integers(-2**29, 2**29 + 1, size=shape).astype(np.int32)
                  for shape in ((13, 9), (7, 9), (13, 7)))
    monkeypatch.setattr(tensor, "TRIANGLE_STEP_BYTES", 2 * 3 * bc[0].nbytes)
    # five pairs, first points out of order and repeated: a step of three,
    # then one of two; only the listed pairs count
    first, second = np.array([12, 2, 7, 12, 9]), np.array([0, 6, 3, 5, 5])
    terms = brute_force_terms(ac, bc, ab, first, second)
    assert triangle_sweep(ac, bc, ab, (first, second)) == max(terms.ravel())
    every = brute_force_terms(ac, bc, ab, *np.divmod(np.arange(13 * 7), 7))
    assert max(terms.ravel()) < max(every.ravel())


@pytest.mark.parametrize("symmetric", [True, False])
def test_upper_triangle_sweep_is_the_brute_force_max(monkeypatch, symmetric):
    # 11 rows, two first points per step; a table that is not symmetric is
    # covered by subtracting the lesser of g[a, b] and g[b, a]
    rng = np.random.default_rng(37)
    monkeypatch.setattr(tensor, "TRIANGLE_STEP_BYTES", 2 * 11 * 11)
    first, second = np.divmod(np.arange(11 * 11), 11)
    for trial in range(20):
        g = rng.integers(-40, 41, size=(11, 11)).astype(np.int8)
        if symmetric:
            g = np.triu(g) + np.triu(g, 1).T
        terms = brute_force_terms(g, g, g, first, second)
        assert triangle_sweep_upper(g) == max(terms.ravel()), trial


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(int8_tables(), st.integers(1, 24))
def test_upper_triangle_sweep_is_the_ordered_sweep_on_generated_tables(g, step):
    # `step` first points per step
    with mock.patch.object(tensor, "TRIANGLE_STEP_BYTES", step * g.nbytes):
        assert triangle_sweep_upper(g) == triangle_sweep_ordered(g, g, g)
