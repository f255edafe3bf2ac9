import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cutgap.fourier import walsh_hadamard, wht_matrix
from fixtures import apply_noise_operator, bonami_beckner_check, junta_diagnostics, lp_norm
from oracles import character_table, fwht_inplace, naive_wht


def dictator(k, j):
    """Truth table of x -> x_j."""
    idx = np.arange(1 << k)
    return 1 - 2 * ((idx >> j) & 1)


def parity(k):
    idx = np.arange(1 << k, dtype=np.uint32)
    return np.where(np.bitwise_count(idx) % 2 == 0, 1, -1)


def majority(k):
    """Majority of the k coordinates (k odd so there are no ties)."""
    assert k % 2 == 1
    idx = np.arange(1 << k, dtype=np.uint32)
    minus_ones = np.bitwise_count(idx)
    return np.where(minus_ones <= k // 2, 1, -1)


def random_pm1(rng, k):
    return rng.choice([-1, 1], size=1 << k)


def test_dictator_spectrum_is_point_mass():
    coeffs = wht_matrix(dictator(2, 0))
    expected = np.zeros(4)
    expected[0b01] = 1.0
    assert np.array_equal(coeffs, expected)


def test_constant_spectrum():
    coeffs = wht_matrix(np.ones(4, dtype=np.int8))
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] == 0.0)


def test_wht_matches_naive_on_random_functions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = random_pm1(rng, 4)
        fast = wht_matrix(f)
        slow = naive_wht(f)
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_wht_matches_naive_exhaustively_small_k():
    # Every +/-1 function at k <= 3 (4096 + 16 + 4 tables), all at once.
    for k in (1, 2, 3):
        n = 1 << k
        codes = np.arange(1 << n, dtype=np.uint32)
        tables = 1 - 2 * ((codes[:, None] >> np.arange(n)) & 1).astype(np.float64)
        fast = wht_matrix(tables)
        slow = tables @ character_table(k).T.astype(np.float64) / n
        assert np.array_equal(fast, slow)


def test_wht_matches_naive_randomized_large_k():
    rng = np.random.default_rng(37)
    for k in (5, 6, 7, 8):
        for _ in range(10):
            f = random_pm1(rng, k)
            assert np.array_equal(wht_matrix(f), naive_wht(f))


def test_wht_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        wht_matrix([1.0] * 3)


@pytest.mark.parametrize("k", range(9))
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_kronecker_transform_is_the_butterfly_byte_for_byte(k, data):
    # H X H over the low k // 2 and high k - k // 2 bits gives the
    # butterfly's floats on +/-1 tables (no -0.0 either), batched, one
    # table alone, and normalized
    tables = data.draw(arrays(np.int8, (data.draw(st.integers(1, 5)), 1 << k),
                              elements=st.sampled_from((-1, 1))))
    want = fwht_inplace(tables.astype(np.float64))
    assert walsh_hadamard(tables).tobytes() == want.tobytes()
    assert walsh_hadamard(tables[0]).tobytes() == want[0].tobytes()
    assert wht_matrix(tables).tobytes() == (want / (1 << k)).tobytes()


def test_round_trip_is_exact_on_pm1_tables():
    rng = np.random.default_rng(11)
    for k in range(1, 9):
        f = random_pm1(rng, k)
        back = fwht_inplace(wht_matrix(f))  # the inverse is the unnormalized butterfly
        assert np.array_equal(back, f.astype(np.float64))


def test_parseval_random_sample():
    rng = np.random.default_rng(3)
    for k in (2, 5, 8):
        tables = rng.choice([-1.0, 1.0], size=(200, 1 << k))
        masses = np.sum(wht_matrix(tables) ** 2, axis=1)
        assert np.max(np.abs(masses - 1.0)) < 1e-9


def test_noise_operator_scales_single_character():
    out = apply_noise_operator(parity(3), 0.5)
    coeffs = wht_matrix(out)
    expected = np.zeros(8)
    expected[0b111] = 0.125
    assert np.max(np.abs(coeffs - expected)) < 1e-15


def test_noise_operator_identity_at_rho_one():
    rng = np.random.default_rng(5)
    f = random_pm1(rng, 4)
    out = apply_noise_operator(f, 1.0)
    assert np.max(np.abs(out - f)) < 1e-12


def test_noise_operator_on_majority_matches_scaled_spectrum():
    f = majority(3)
    base = wht_matrix(f)
    sizes = np.bitwise_count(np.arange(8, dtype=np.uint32)).astype(float)
    out = apply_noise_operator(f, 0.5)
    assert np.max(np.abs(wht_matrix(out) - base * 0.5**sizes)) < 1e-12


def test_noise_operator_composition_and_linearity():
    rng = np.random.default_rng(13)
    f = rng.normal(size=16)
    g = rng.normal(size=16)
    once = apply_noise_operator(apply_noise_operator(f, 0.8), 0.5)
    combined = apply_noise_operator(f, 0.4)
    assert np.max(np.abs(once - combined)) < 1e-12
    lin = apply_noise_operator(2 * f + 3 * g, 0.6)
    parts = 2 * apply_noise_operator(f, 0.6) + 3 * apply_noise_operator(g, 0.6)
    assert np.max(np.abs(lin - parts)) < 1e-12


def test_lp_norm_of_pm1_function_is_one():
    rng = np.random.default_rng(17)
    f = random_pm1(rng, 5)
    for p in (1.0, 2.0, 3.5, 7.0):
        assert abs(lp_norm(f, p) - 1.0) < 1e-12


def test_lp_norm_scaling_and_hand_example():
    two_dict = 2.0 * dictator(3, 1)
    assert abs(lp_norm(two_dict, 2) - 2.0) < 1e-12
    # f(x) = x_1 + x_2 on k=2 takes values {2, 0, 0, -2}; mean |f| = 1.
    f = dictator(2, 0) + dictator(2, 1).astype(np.float64)
    assert abs(lp_norm(f, 1) - 1.0) < 1e-12


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_norm(dictator(2, 0), 0.5)


def test_norm_monotone_in_p():
    rng = np.random.default_rng(19)
    for _ in range(50):
        f = rng.normal(size=16)
        ps = sorted(rng.uniform(1.0, 8.0, size=3))
        norms = [lp_norm(f, p) for p in ps]
        assert norms[0] <= norms[1] + 1e-12 <= norms[2] + 2e-12


def test_bonami_beckner_trivial_constant():
    f = np.ones(8, dtype=np.int8)
    lhs, rhs, holds = bonami_beckner_check(f, 1.5, 2.0, 0.5)
    assert holds and abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12


def test_bonami_beckner_rejects_bad_rho():
    f = np.ones(8, dtype=np.int8)
    with pytest.raises(ValueError):
        bonami_beckner_check(f, 1.5, 2.0, 0.9)
    with pytest.raises(ValueError):
        bonami_beckner_check(f, 2.0, 1.5, 0.1)


def test_bonami_beckner_density_indicator_chain():
    # Indicator of a random density-1/n set in {-1,1}^n at n = 8:
    # with p = 2-2*eta, q = 2, rho = sqrt(1-2*eta) the inequality chains to
    # the small-set expansion bound n * ||T_rho f||_2^2 <= n^-(eta+eta^2).
    n = 8
    rng = np.random.default_rng(23)
    for eta in (0.1, 0.25):
        p, q, rho = 2 - 2 * eta, 2.0, (1 - 2 * eta) ** 0.5
        for _ in range(25):
            members = rng.choice(1 << n, size=(1 << n) // n, replace=False)
            values = np.zeros(1 << n)
            values[members] = 1.0
            lhs, rhs, holds = bonami_beckner_check(values, p, q, rho)
            assert holds
            assert n * lhs**2 <= n * rhs**2 + 1e-12
            assert n * rhs**2 <= n ** (-(eta + eta**2)) + 1e-12


def test_bonami_beckner_random_fuzz():
    rng = np.random.default_rng(29)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        f = rng.normal(size=1 << k)
        p = float(rng.uniform(1.01, 3.0))
        q = float(rng.uniform(p + 0.01, p + 3.0))
        rho = float(rng.uniform(0, ((p - 1) / (q - 1)) ** 0.5))
        lhs, rhs, holds = bonami_beckner_check(f, p, q, rho)
        assert holds, (k, p, q, rho, lhs, rhs)


def test_junta_diagnostics_dictator():
    tail, small = junta_diagnostics(dictator(4, 2), 1, 3.9)
    assert tail == 0.0 and small == 0.0


def test_junta_diagnostics_parity_tail():
    tail, _ = junta_diagnostics(parity(5), 2, 1.0)
    assert abs(tail - 1.0) < 1e-12


def test_junta_diagnostics_majority_from_spectrum():
    f = majority(5)
    sq = wht_matrix(f) ** 2
    sizes = np.bitwise_count(np.arange(32, dtype=np.uint32))
    expected_tail = float(np.sum(sq[sizes > 1]))
    tail, _ = junta_diagnostics(f, 1, 1.0)
    assert abs(tail - expected_tail) < 1e-12


def test_boolean_function_rejects_bad_tables():
    with pytest.raises(ValueError):
        junta_diagnostics([1, 1, 1], 1, 1.0)
    with pytest.raises(ValueError):
        junta_diagnostics([2, 1], 1, 1.0)
