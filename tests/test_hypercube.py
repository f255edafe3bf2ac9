import math

import numpy as np
import pytest

from cutgap.hypercube import NoisyHypercube, typical_window
from fixtures import degree, expansion, hamming, pair_weight


def enumerate_expansion(h, members):
    """Independent oracle: brute-force over every pair in S x complement."""
    members = sorted(set(int(m) for m in members))
    inside = set(members)
    profile = [
        2.0 * 2.0 ** (-h.N) * h.eta**d * (1 - h.eta) ** (h.N - d)
        if (d > 0 and (h.window is None or h.window[0] <= d <= h.window[1]))
        else 0.0
        for d in range(h.N + 1)
    ]
    total = sum(
        math.comb(h.N, d) * h.eta**d * (1 - h.eta) ** (h.N - d)
        for d in range(1, h.N + 1)
        if h.window is None or h.window[0] <= d <= h.window[1]
    )
    profile = [w / total for w in profile]
    deg = sum(math.comb(h.N, d) * profile[d] for d in range(h.N + 1))
    leave = 0.0
    for f in members:
        for g in range(1 << h.N):
            if g not in inside and g != f:
                leave += profile[hamming(f, g)]
    return leave / (len(members) * deg)


def test_pair_weight_hand_value():
    h = NoisyHypercube(2, 0.25)
    # raw weight at d = 1: 2 * 2^-2 * (1/4) * (3/4) = 3/32
    assert abs(pair_weight(h, 0b00, 0b01) * h.retained_mass() - 3 / 32) < 1e-15


def test_pair_weight_outside_window_is_zero():
    h = NoisyHypercube(4, 0.3, window=(1, 2))
    assert pair_weight(h, 0b0000, 0b0111) == 0.0


def test_pair_weight_rejects_self_loop():
    h = NoisyHypercube(3, 0.1)
    with pytest.raises(ValueError):
        pair_weight(h, 5, 5)


def test_total_weight_binomial_sum():
    # Raw weights, no window: all pairs sum to 1 - (1-eta)^N.
    h = NoisyHypercube(3, 0.1)
    total = sum(
        pair_weight(h, f, g) for f in range(8) for g in range(8) if f < g
    ) * h.retained_mass()
    assert abs(total - (1 - 0.9**3)) < 1e-12


def test_renormalized_total_weight_is_one():
    for window in (None, (1, 2)):
        h = NoisyHypercube(4, 0.3, window=window)
        total = sum(
            pair_weight(h, f, g) for f in range(16) for g in range(16) if f < g
        )
        assert abs(total - 1.0) < 1e-9


def test_weight_symmetry_and_character_shift_invariance():
    rng = np.random.default_rng(2)
    h = NoisyHypercube(6, 0.2, window=(1, 3))
    for _ in range(100):
        f, g = rng.integers(0, 1 << 6, size=2)
        if f == g:
            continue
        mask = int(rng.integers(0, 1 << 6))
        assert pair_weight(h, int(f), int(g)) == pair_weight(h, int(g), int(f))
        # multiplying both endpoints by a character is XOR by its code
        assert (
            pair_weight(h, int(f), int(g))
            == pair_weight(h, int(f) ^ mask, int(g) ^ mask)
        )


def test_weight_regularity():
    h = NoisyHypercube(5, 0.3, window=(1, 3))
    degs = []
    profile = h.weight_profile()
    for f in range(32):
        d = np.bitwise_count(np.uint64(f) ^ np.arange(32, dtype=np.uint64))
        degs.append(float(np.sum(profile[d])))
    assert max(degs) - min(degs) < 1e-12
    assert abs(degs[0] - degree(h)) < 1e-15


def test_typical_window_values():
    assert typical_window(8, 0.25) == (1, 4)
    assert typical_window(4, 0.05) is None
    assert typical_window(256, 0.1) == (13, 51)


def test_expansion_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    for window in (None, (1, 2)):
        h = NoisyHypercube(6, 0.25, window=window)
        for _ in range(5):
            size = int(rng.integers(2, 20))
            members = rng.choice(1 << 6, size=size, replace=False)
            assert abs(expansion(h, members) - enumerate_expansion(h, members)) < 1e-12


def test_half_cube_closed_form():
    # S = {x : coordinate 1 = +1} = {x : bit 0 of index = 0}. With self-pairs
    # excluded the exact stay probability is ((1-eta) - (1-eta)^N)/(1 - (1-eta)^N),
    # which approaches the single-coordinate value 1-eta as N grows.
    for N, eta in ((6, 0.3), (8, 0.2), (10, 0.25)):
        h = NoisyHypercube(N, eta)
        members = [x for x in range(1 << N) if not x & 1]
        one_minus_phi = 1 - expansion(h, members)
        c = (1 - eta) ** N
        closed = ((1 - eta) - c) / (1 - c)
        assert abs(one_minus_phi - closed) < 1e-12
        assert abs(one_minus_phi - (1 - eta)) <= c / (1 - c) + 1e-12


def test_singleton_has_full_expansion():
    h = NoisyHypercube(5, 0.2)
    assert abs(1 - expansion(h, [7]) - 0.0) < 1e-15


def test_expansion_rejects_trivial_sets():
    h = NoisyHypercube(3, 0.2)
    with pytest.raises(ValueError):
        expansion(h, [])
    with pytest.raises(ValueError):
        expansion(h, list(range(8)))


def test_small_set_expansion_bound():
    # Density-1/N sets: 1 - Phi(S) <= N^-(eta+eta^2), exact enumeration.
    N = 8
    rng = np.random.default_rng(5)
    for eta in (0.1, 0.25):
        h = NoisyHypercube(N, eta)
        bound = N ** (-(eta + eta**2))
        for _ in range(100):
            members = rng.choice(1 << N, size=(1 << N) // N, replace=False)
            assert 1 - expansion(h, members) <= bound + 1e-9


def test_windowed_small_set_expansion_bound():
    # After deleting atypical edges the bound degrades to N^-eta (the deleted
    # mass is only negligible asymptotically; 0.05 covers the N=8 finite-size
    # correction, measured headroom is larger).
    N = 8
    rng = np.random.default_rng(7)
    for eta in (0.1, 0.25):
        window = typical_window(N, eta)
        h = NoisyHypercube(N, eta, window=window)
        bound = N ** (-eta)
        worst = 0.0
        for _ in range(100):
            members = rng.choice(1 << N, size=(1 << N) // N, replace=False)
            worst = max(worst, 1 - expansion(h, members))
        assert worst <= bound + 0.05
