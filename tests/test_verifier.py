import numpy as np
import pytest

from cutgap.fourier import wht_matrix
from cutgap.quotient import build_kv_instance
from cutgap.unique_games import opt_exhaustive, value
from cutgap.verifier import (
    Proof,
    acceptance_probability_exact,
    acceptance_probability_mc,
    decode_labeling,
    dictator_tables,
    piecewise_balance,
    proof_from_text,
    proof_to_text,
)
from fixtures import plant_instance
from oracles import (
    FLOAT_ROUTE_TOL,
    _noise_factors,
    _set_image_table,
    acceptance_exact_per_edge,
    agreement_by_enumeration,
    decode_labeling_choice,
    edge_rows,
    level_sums_one_gather,
)


def test_long_code_tables_are_dictators():
    tables = dictator_tables([0, 2, 3], 4)
    assert tables.shape == (3, 16) and tables.dtype == np.int8
    x = np.arange(16)
    for row, j in zip(tables, (0, 2, 3)):
        assert np.array_equal(row, 1 - 2 * ((x >> j) & 1))
    assert piecewise_balance(tables) == 0.0


@pytest.mark.parametrize("lam", [[9, 9, 9, 9], [4, 0, 1, 2], [0, -1, 2, 3]])
def test_dictator_tables_reject_out_of_range_labels(lam):
    # an out-of-range label used to give an all-+1 separator block
    with pytest.raises(ValueError, match="label out of range"):
        dictator_tables(lam, 4)


def test_constant_proof_always_accepts():
    u, _ = plant_instance(6, 4, 0.3, 0.8, seed=0)
    proof = Proof(4, np.ones((6, 16), dtype=np.int8))
    assert abs(acceptance_probability_exact(u, proof, 0.25) - 1.0) < 1e-12


def test_completeness_exact_formula_on_planted():
    # acceptance of the Long Code proof of a hidden labeling:
    # val (1-eps) + (1-val)/2 >= (1-eta)(1-eps)
    for eta, eps in ((0.0, 0.2), (0.1, 0.15), (0.2, 0.3)):
        u, hidden = plant_instance(8, 4, eta, 0.7, seed=3)
        proof = Proof(4, dictator_tables(hidden, 4))
        val = value(u, hidden)
        got = acceptance_probability_exact(u, proof, eps)
        expected = val * (1 - eps) + (1 - val) * 0.5
        assert abs(got - expected) < 1e-12
        assert got >= (1 - eta) * (1 - eps) - 1e-9


def test_perfect_labeling_identity_instance_acceptance():
    u, hidden = plant_instance(8, 4, 0.0, 0.7, seed=5)
    proof = Proof(4, dictator_tables(hidden, 4))
    for eps in (0.1, 0.3):
        got = acceptance_probability_exact(u, proof, eps)
        assert abs(got - (1 - eps)) < 1e-12


def test_dictator_proof_eps_zero_accepts_whenever_satisfied():
    u, hidden = plant_instance(8, 3, 0.25, 0.8, seed=7)
    proof = Proof(3, dictator_tables(hidden, 3))
    got = acceptance_probability_exact(u, proof, 0.0)
    val = value(u, hidden)
    assert abs(got - (val + (1 - val) * 0.5)) < 1e-12
    est, se = acceptance_probability_mc(u, proof, 20000, seed=1, epsilon=0.0)
    assert abs(est - got) < 4 * se + 1e-9


def test_dictator_proof_eps_zero_perfect_instance_is_exact_one():
    u, hidden = plant_instance(8, 3, 0.0, 0.8, seed=7)
    proof = Proof(3, dictator_tables(hidden, 3))
    est, _ = acceptance_probability_mc(u, proof, 5000, seed=3, epsilon=0.0)
    assert est == 1.0


def test_exact_vs_mc_on_fixture_corpus():
    u, hidden = plant_instance(6, 4, 0.15, 0.9, seed=9)
    rng = np.random.default_rng(11)
    fixtures = {
        "longcode": dictator_tables(hidden, 4),
        "constant": np.ones((6, 16), dtype=np.int8),
        "anti": -dictator_tables(hidden, 4),
        "random": rng.choice([-1, 1], size=(6, 16)).astype(np.int8),
        "majority_style": np.where(
            np.bitwise_count(np.arange(16, dtype=np.uint32))[None, :] <= 2, 1, -1
        ).repeat(6, axis=0).astype(np.int8),
    }
    for name, tables in fixtures.items():
        proof = Proof(4, tables)
        exact = acceptance_probability_exact(u, proof, 0.2)
        est, se = acceptance_probability_mc(u, proof, 40000, seed=13, epsilon=0.2)
        assert abs(est - exact) < 4 * se + 1e-9, name


def test_acceptance_on_kv_instance_with_self_loops():
    u, q, _ = build_kv_instance(2, 0.3)
    lam, opt = opt_exhaustive(u)
    proof = Proof(4, dictator_tables(lam, 4))
    got = acceptance_probability_exact(u, proof, 0.3)
    expected = opt * 0.7 + (1 - opt) * 0.5
    assert abs(got - expected) < 1e-12


def test_soundness_direction_on_gap_instance():
    # on the gap instance every balanced fixture proof leaves an
    # eps-dependent acceptance margin, and decoding never beats the optimum
    u, q, _ = build_kv_instance(2, 0.3)
    lam, opt = opt_exhaustive(u)
    rng = np.random.default_rng(33)
    fixtures = [
        dictator_tables(lam, 4),
        rng.choice([-1, 1], size=(4, 16)).astype(np.int8),
        np.where(
            np.bitwise_count(np.arange(16, dtype=np.uint32))[None, :] <= 2, 1, -1
        ).repeat(4, axis=0).astype(np.int8),
    ]
    eps = 0.3
    worst_acceptance = 0.0
    for tables in fixtures:
        proof = Proof(4, tables)
        if piecewise_balance(proof.tables) > 5 / 6:
            continue
        worst_acceptance = max(
            worst_acceptance, acceptance_probability_exact(u, proof, eps)
        )
        decoded = decode_labeling(u, proof, seed=7, rounds=10)
        assert decoded.value <= opt + 1e-12
    margin = 1.0 - worst_acceptance
    assert margin > 0.0


def test_decoder_recovers_perfect_long_code():
    u, hidden = plant_instance(8, 4, 0.0, 0.8, seed=15)
    proof = Proof(4, dictator_tables(hidden, 4))
    for seed in range(5):
        res = decode_labeling(u, proof, seed=seed, rounds=1)
        assert np.array_equal(res.labeling, hidden)
        assert res.fallback_vertices == ()


def test_decoder_on_random_proof_is_near_baseline():
    u, _ = plant_instance(8, 4, 0.1, 0.8, seed=17)
    rng = np.random.default_rng(19)
    proof = Proof(4, rng.choice([-1, 1], size=(8, 16)).astype(np.int8))
    res = decode_labeling(u, proof, seed=21, rounds=20)
    _, opt = opt_exhaustive(u, budget=10**6)
    assert res.value <= opt + 1e-12
    # with 20 best-of rounds the decoded value clears the uniform baseline
    assert res.value >= 0.25 - 0.2


def test_decoder_with_corrupted_long_codes():
    u, hidden = plant_instance(10, 4, 0.0, 0.9, seed=23)
    tables = dictator_tables(hidden, 4).copy()
    tables[0] = 1  # one vertex corrupted to a constant
    res = decode_labeling(u, Proof(4, tables), seed=25, rounds=10)
    assert res.fallback_vertices == (0,)
    planted_val = value(u, hidden)
    assert res.value >= 0.9 * planted_val - 0.25


@pytest.mark.parametrize("case", ["k2", "k3", "planted"])
def test_decoder_draws_as_choice_oracle(case):
    """The cdf lookups give the labelings of `Generator.choice` for seeds
    0-19; vertex 0 takes the fallback and vertex 1 is a dictator, whose
    alpha has one member."""
    if case == "planted":
        u, hidden = plant_instance(10, 4, 0.0, 0.9, seed=23)
        tables = dictator_tables(hidden, 4).copy()
    else:
        u = build_kv_instance(int(case[1]), 0.3)[0]
        rng = np.random.default_rng(3)
        tables = rng.choice([-1, 1], size=(u.num_vertices, 1 << u.num_labels)).astype(np.int8)
        tables[1] = dictator_tables([1], u.num_labels)[0]
    tables[0] = 1
    proof = Proof(u.num_labels, tables)
    for seed in range(20):
        got = decode_labeling(u, proof, seed=seed)
        want = decode_labeling_choice(u, proof, seed=seed)
        assert got.labeling.tolist() == want.labeling.tolist(), seed
        assert got.value == want.value
        assert got.fallback_vertices == want.fallback_vertices == (0,)


def test_exact_acceptance_handles_large_epsilon():
    # the test is defined for eps in (0,1); above 1/2 the per-level factor
    # (1-2 eps)^|alpha| alternates sign
    u, hidden = plant_instance(6, 3, 0.1, 0.8, seed=41)
    proof = Proof(3, dictator_tables(hidden, 3))
    for eps in (0.5, 0.7, 0.9):
        exact = acceptance_probability_exact(u, proof, eps)
        est, se = acceptance_probability_mc(u, proof, 60000, seed=43, epsilon=eps)
        assert abs(est - exact) < 4 * se + 1e-9, eps
    # closed form on a satisfied-heavy instance: val (1-eps) + (1-val)/2
    val = value(u, hidden)
    got = acceptance_probability_exact(u, proof, 0.7)
    assert abs(got - (val * 0.3 + (1 - val) * 0.5)) < 1e-12


def test_exact_acceptance_equals_per_edge_sum():
    # one spectral term per edge, each pulled through the bit-by-bit
    # set-image table and summed in floats, within FLOAT_ROUTE_TOL; the
    # enumeration's rational, correctly rounded, exactly
    u, _ = plant_instance(8, 4, 0.2, 0.9, seed=5)
    assert len({tuple(p) for p in u.perm.tolist()}) > 1
    tables = np.random.default_rng(6).choice([-1, 1], size=(8, 16)).astype(np.int8)
    spectra = wht_matrix(tables.astype(np.float64))
    factors = _noise_factors(4, 0.25)
    corr = 0.0
    for e in edge_rows(u):
        pulled = spectra[e.w][_set_image_table(e.perm)]
        corr += e.weight * float(np.sum(spectra[e.v] * pulled * factors))
    got = acceptance_probability_exact(u, Proof(4, tables), 0.25)
    assert abs(got - (0.5 + 0.5 * corr)) < FLOAT_ROUTE_TOL
    assert got == float(agreement_by_enumeration(u.edge_distribution, tables, 0.25)[1])


@pytest.mark.parametrize("k", [2, 3])
def test_exact_acceptance_is_the_per_edge_form_bit_for_bit(k):
    # the spectra of the distinct rows only, one term per distinct key:
    # proofs with no row repeated, some rows repeated and one row in all.
    # Their integer level sums are the one gather's; the acceptance is
    # within FLOAT_ROUTE_TOL of the float per-edge form and, at k = 2, the
    # enumeration's rational correctly rounded, for every epsilon in [0, 1]
    u = build_kv_instance(k, 0.3)[0]
    d = u.edge_distribution
    m, n = u.num_vertices, u.num_labels
    rng = np.random.default_rng(17 + k)
    lam = rng.integers(0, n, size=m)
    lam[1] = lam[0]
    paired = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, 1 << n))
    paired[3] = paired[2]
    majority = np.where(dictator_tables(np.arange(n), n).sum(axis=0) >= 0, 1, -1)
    proofs = [rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, 1 << n)), paired,
              dictator_tables(lam, n), dictator_tables(np.full(m, n - 1), n),
              np.tile(majority, (m, 1))]
    for tables in proofs:
        proof = Proof(n, tables)
        assert np.array_equal(d.level_sums(proof.tables), level_sums_one_gather(d, proof.tables))
        for eps in (0.0, 0.1, 0.3, 0.5, 0.77, 1.0):
            got = acceptance_probability_exact(u, proof, eps)
            assert abs(got - acceptance_exact_per_edge(u, proof, eps)) < FLOAT_ROUTE_TOL, eps
            if k == 2:
                assert got == float(agreement_by_enumeration(d, proof.tables, eps)[1]), eps
    # general permutations, 342 distinct among 345 edges
    u, hidden = plant_instance(30, 8, 0.1, 0.8, seed=1)
    d = u.edge_distribution
    for tables in (dictator_tables(hidden, 8), rng.choice(np.array([-1, 1], dtype=np.int8),
                                                          size=(30, 256))):
        proof = Proof(8, tables)
        assert np.array_equal(d.level_sums(proof.tables), level_sums_one_gather(d, proof.tables))
        assert abs(acceptance_probability_exact(u, proof, 0.3) -
                   acceptance_exact_per_edge(u, proof, 0.3)) < FLOAT_ROUTE_TOL


def test_proof_text_round_trip():
    proof = Proof(4, dictator_tables([1, 0, 3], 4))
    back = proof_from_text(proof_to_text(proof))
    assert back.num_labels == 4
    assert np.array_equal(back.tables, proof.tables)


def test_proof_from_text_rejects_empty_and_bad_header():
    with pytest.raises(ValueError, match="line 1: empty PROOF file"):
        proof_from_text("")
    with pytest.raises(ValueError, match="line 2: expected header"):
        proof_from_text("\nPROOF 3\n1 -1\n")


def test_proof_validation():
    with pytest.raises(ValueError):
        Proof(2, np.array([[1, 1, 1]]))
    with pytest.raises(ValueError):
        Proof(1, np.array([[1, 2]]))


def test_mc_acceptance_pinned():
    # the (e, x, mu) draws for a seed are fixed; this estimate was taken
    # before the sampler moved into the shared edge distribution, and it is
    # one minus the separator's MC cut weight of the same tables and seed
    u, _ = plant_instance(6, 4, 0.15, 0.9, seed=9)
    tables = np.random.default_rng(11).choice([-1, 1], size=(6, 16)).astype(np.int8)
    est, se = acceptance_probability_mc(u, Proof(4, tables), 40000, seed=13, epsilon=0.2)
    assert (est, se) == (0.496725, 0.0024999463712997924)


@pytest.mark.parametrize("epsilon", [float("nan"), 1.5, -0.1])
def test_acceptance_rejects_epsilon_outside_probabilities(epsilon):
    u, hidden = plant_instance(6, 3, 0.1, 0.8, seed=41)
    proof = Proof(3, dictator_tables(hidden, 3))
    with pytest.raises(ValueError, match="not a probability"):
        acceptance_probability_exact(u, proof, epsilon)
    with pytest.raises(ValueError, match="not a probability"):
        acceptance_probability_mc(u, proof, 100, seed=0, epsilon=epsilon)


def test_acceptance_mc_rejects_no_samples_and_tables_of_another_shape():
    # the sampler's one input check: a table per UG vertex, 2^N values
    # each, and at least one sample
    u, hidden = plant_instance(6, 3, 0.1, 0.8, seed=41)
    with pytest.raises(ValueError, match="at least one sample"):
        acceptance_probability_mc(u, Proof(3, dictator_tables(hidden, 3)), 0, seed=0,
                                  epsilon=0.1)
    for proof in (Proof(3, dictator_tables(hidden[:-1], 3)),
                  Proof(3, dictator_tables(np.append(hidden, 0), 3)),
                  Proof(4, dictator_tables(hidden, 4))):
        with pytest.raises(ValueError, match="need one row of 2\\^3 values for each of 6"):
            acceptance_probability_mc(u, proof, 100, seed=0, epsilon=0.1)
