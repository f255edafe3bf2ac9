import numpy as np
import pytest

from cutgap.fourier import (
    BooleanFunction,
    RealFunction,
    apply_noise_operator,
    bonami_beckner_check,
    format_spectrum,
    inverse_wht,
    junta_diagnostics,
    lp_norm,
    wht,
    wht_matrix,
)
from oracles import character_table, naive_wht


def dictator(k, j):
    """Truth table of x -> x_j."""
    idx = np.arange(1 << k)
    return BooleanFunction(k, 1 - 2 * ((idx >> j) & 1))


def parity(k):
    idx = np.arange(1 << k, dtype=np.uint32)
    return BooleanFunction(k, np.where(np.bitwise_count(idx) % 2 == 0, 1, -1))


def majority(k):
    """Majority of the k coordinates (k odd so there are no ties)."""
    assert k % 2 == 1
    idx = np.arange(1 << k, dtype=np.uint32)
    minus_ones = np.bitwise_count(idx)
    return BooleanFunction(k, np.where(minus_ones <= k // 2, 1, -1))


def random_pm1(rng, k):
    return BooleanFunction(k, rng.choice([-1, 1], size=1 << k))


def test_dictator_spectrum_is_point_mass():
    spec = wht(dictator(2, 0))
    expected = np.zeros(4)
    expected[0b01] = 1.0
    assert np.array_equal(spec.coeffs, expected)


def test_constant_spectrum():
    spec = wht(BooleanFunction(2, np.ones(4, dtype=np.int8)))
    assert spec.coeffs[0] == 1.0
    assert np.all(spec.coeffs[1:] == 0.0)


def test_wht_matches_naive_on_random_functions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = random_pm1(rng, 4)
        fast = wht(f).coeffs
        slow = naive_wht(f).coeffs
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
            assert np.array_equal(wht(f).coeffs, naive_wht(f).coeffs)


def test_wht_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        wht(RealFunction(1, [1.0, 1.0]).values[:1].tolist() * 3)


def test_round_trip_is_exact_on_pm1_tables():
    rng = np.random.default_rng(11)
    for k in range(1, 9):
        f = random_pm1(rng, k)
        back = inverse_wht(wht(f))
        assert np.array_equal(back.values, f.table.astype(np.float64))


def test_parseval_random_sample():
    rng = np.random.default_rng(3)
    for k in (2, 5, 8):
        tables = rng.choice([-1.0, 1.0], size=(200, 1 << k))
        masses = np.sum(wht_matrix(tables) ** 2, axis=1)
        assert np.max(np.abs(masses - 1.0)) < 1e-9


def test_noise_operator_scales_single_character():
    out = apply_noise_operator(parity(3), 0.5)
    spec = wht(out)
    expected = np.zeros(8)
    expected[0b111] = 0.125
    assert np.max(np.abs(spec.coeffs - expected)) < 1e-15


def test_noise_operator_identity_at_rho_one():
    rng = np.random.default_rng(5)
    f = random_pm1(rng, 4)
    out = apply_noise_operator(f, 1.0)
    assert np.max(np.abs(out.values - f.table)) < 1e-12


def test_noise_operator_on_majority_matches_scaled_spectrum():
    f = majority(3)
    base = wht(f).coeffs
    sizes = np.bitwise_count(np.arange(8, dtype=np.uint32)).astype(float)
    out = apply_noise_operator(f, 0.5)
    assert np.max(np.abs(wht(out).coeffs - base * 0.5**sizes)) < 1e-12


def test_noise_operator_composition_and_linearity():
    rng = np.random.default_rng(13)
    f = RealFunction(4, rng.normal(size=16))
    g = RealFunction(4, rng.normal(size=16))
    once = apply_noise_operator(apply_noise_operator(f, 0.8), 0.5)
    combined = apply_noise_operator(f, 0.4)
    assert np.max(np.abs(once.values - combined.values)) < 1e-12
    lin = apply_noise_operator(RealFunction(4, 2 * f.values + 3 * g.values), 0.6)
    parts = 2 * apply_noise_operator(f, 0.6).values + 3 * apply_noise_operator(g, 0.6).values
    assert np.max(np.abs(lin.values - parts)) < 1e-12


def test_lp_norm_of_pm1_function_is_one():
    rng = np.random.default_rng(17)
    f = random_pm1(rng, 5)
    for p in (1.0, 2.0, 3.5, 7.0):
        assert abs(lp_norm(f, p) - 1.0) < 1e-12


def test_lp_norm_scaling_and_hand_example():
    two_dict = RealFunction(3, 2.0 * dictator(3, 1).table)
    assert abs(lp_norm(two_dict, 2) - 2.0) < 1e-12
    # f(x) = x_1 + x_2 on k=2 takes values {2, 0, 0, -2}; mean |f| = 1.
    f = RealFunction(2, dictator(2, 0).table + dictator(2, 1).table.astype(np.float64))
    assert abs(lp_norm(f, 1) - 1.0) < 1e-12


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_norm(dictator(2, 0), 0.5)


def test_norm_monotone_in_p():
    rng = np.random.default_rng(19)
    for _ in range(50):
        f = RealFunction(4, rng.normal(size=16))
        ps = sorted(rng.uniform(1.0, 8.0, size=3))
        norms = [lp_norm(f, p) for p in ps]
        assert norms[0] <= norms[1] + 1e-12 <= norms[2] + 2e-12


def test_bonami_beckner_trivial_constant():
    f = BooleanFunction(3, np.ones(8, dtype=np.int8))
    lhs, rhs, holds = bonami_beckner_check(f, 1.5, 2.0, 0.5)
    assert holds and abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12


def test_bonami_beckner_rejects_bad_rho():
    f = BooleanFunction(3, np.ones(8, dtype=np.int8))
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
            f = RealFunction(n, values)
            lhs, rhs, holds = bonami_beckner_check(f, p, q, rho)
            assert holds
            assert n * lhs**2 <= n * rhs**2 + 1e-12
            assert n * rhs**2 <= n ** (-(eta + eta**2)) + 1e-12


def test_bonami_beckner_random_fuzz():
    rng = np.random.default_rng(29)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        f = RealFunction(k, rng.normal(size=1 << k))
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
    sq = wht(f).coeffs ** 2
    sizes = np.bitwise_count(np.arange(32, dtype=np.uint32))
    expected_tail = float(np.sum(sq[sizes > 1]))
    tail, _ = junta_diagnostics(f, 1, 1.0)
    assert abs(tail - expected_tail) < 1e-12


def test_format_spectrum_lines():
    text = format_spectrum(wht(dictator(2, 1)))
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0b10].startswith("S_10 ")


def test_boolean_function_rejects_bad_tables():
    with pytest.raises(ValueError):
        BooleanFunction(2, [1, 1, 1])
    with pytest.raises(ValueError):
        BooleanFunction(1, [2, 1])


def test_code_round_trip():
    rng = np.random.default_rng(31)
    for k in (1, 3, 4):
        f = random_pm1(rng, k)
        assert np.array_equal(BooleanFunction.from_code(k, f.code()).table, f.table)
