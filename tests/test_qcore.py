"""State vectors, measurements, sampling, and entropy primitives."""

import math

import numpy as np
import pytest

from exclab.qcore import (
    MATRIX_TOL,
    VECTOR_TOL,
    ProbabilityDistribution,
    RankOneMeasurement,
    StateVector,
    binary_entropy,
    born_measure,
    conditional_entropy,
    inner_product,
    make_rng,
    shannon_entropy,
    tensor_product,
)


def basis_measurement(dim: int) -> RankOneMeasurement:
    return RankOneMeasurement(np.eye(dim), tuple(range(dim)))


def test_state_vector_requires_unit_norm():
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([1.0, 1.0]), 1)
    # Norm errors inside the tolerance are accepted.
    StateVector(np.array([1.0 + 4e-13, 0.0]), 1)


def test_state_vector_rejects_bad_shapes():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]), 1)
    with pytest.raises(ValueError):
        StateVector(np.eye(2), 1)
    with pytest.raises(ValueError, match="does not match"):
        StateVector(np.array([0.0, 0.0, 0.0, 1.0]), 1)
    with pytest.raises(ValueError):
        StateVector(np.array([1.0]), -1)


def test_state_vector_dim_follows_qubit_count():
    state = StateVector([0.0, 0.0, 0.0, 1.0], 2)
    assert state.qubit_count == 2
    assert state.dim == 4


def test_state_vector_amplitudes_immutable():
    state = StateVector([1.0, 0.0], 1)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.5


def test_tensor_product_index_layout():
    a = StateVector([0.6, 0.8], 1)
    b = StateVector([0.0, 1.0], 1)
    combined = tensor_product(a, b)
    assert combined.qubit_count == 2
    # amplitude at i * dim(b) + j is a[i] * b[j]
    expected = np.array([0.0, 0.6, 0.0, 0.8])
    assert np.allclose(combined.amplitudes, expected, atol=VECTOR_TOL)


def test_inner_product_conjugate_linear_in_first_argument():
    a = StateVector([1.0 / math.sqrt(2), 1j / math.sqrt(2)], 1)
    b = StateVector([1.0, 0.0], 1)
    assert inner_product(a, b) == pytest.approx(1.0 / math.sqrt(2))
    assert inner_product(b, a) == pytest.approx(1.0 / math.sqrt(2))
    c = StateVector([0.0, 1.0], 1)
    assert inner_product(a, c) == pytest.approx(-1j / math.sqrt(2))


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        inner_product(StateVector([1.0, 0.0], 1), StateVector([1.0, 0, 0, 0], 2))


def test_inner_product_bounded_for_unit_vectors():
    rng = make_rng(11)
    for _ in range(50):
        raw_a = rng.normal(size=8) + 1j * rng.normal(size=8)
        raw_b = rng.normal(size=8) + 1j * rng.normal(size=8)
        a = StateVector(raw_a / np.linalg.norm(raw_a), 3)
        b = StateVector(raw_b / np.linalg.norm(raw_b), 3)
        assert abs(inner_product(a, b)) <= 1.0 + VECTOR_TOL


def test_measurement_rejects_incomplete_family():
    with pytest.raises(ValueError, match="identity"):
        RankOneMeasurement(np.array([[1.0, 0.0]]), (0,))


def test_measurement_rejects_mismatched_labels_and_dims():
    with pytest.raises(ValueError, match="length"):
        RankOneMeasurement(np.array([[1.0, 0.0]]), (0, 1))
    with pytest.raises(ValueError, match="dimension"):
        RankOneMeasurement(np.eye(3), (0, 1, 2))
    with pytest.raises(ValueError, match="two-dimensional"):
        RankOneMeasurement(np.array([1.0, 0.0]), (0,))


def test_measurement_rejects_non_unit_kets():
    with pytest.raises(ValueError, match="unit norm"):
        RankOneMeasurement(np.array([[1.0, 1.0], [1.0, -1.0]]), (0, 1))
    with pytest.raises(ValueError, match="unit norm"):
        RankOneMeasurement(np.array([[np.nan, 0.0], [0.0, 1.0]]), (0, 1))
    # Norm errors inside the tolerance are accepted.
    RankOneMeasurement(np.array([[1.0 + 4e-13, 0.0], [0.0, 1.0]]), (0, 1))


def test_measurement_probabilities_match_overlaps_for_complex_kets():
    # The stored kets and the state both have nonzero imaginary parts, so a
    # missing or misplaced conjugation would change the probabilities.
    rng = make_rng(23)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    unitary, _ = np.linalg.qr(raw)
    measurement = RankOneMeasurement(unitary, tuple(range(8)))
    assert measurement.kets.dtype == np.complex128
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(amps / np.linalg.norm(amps), 3)
    expected = [abs(np.vdot(ket, state.amplitudes)) ** 2 for ket in unitary]
    assert np.allclose(measurement.outcome_probabilities(state), expected,
                       rtol=0.0, atol=VECTOR_TOL)


def test_born_measure_deterministic_on_eigenstate():
    measurement = basis_measurement(2)
    state = StateVector([0.0, 1.0], 1)
    rng = make_rng(0)
    for _ in range(100):
        assert born_measure(state, measurement, rng) == 1


def test_born_measure_frequencies_match_born_rule():
    p = 0.3
    state = StateVector([math.sqrt(p), math.sqrt(1 - p)], 1)
    measurement = basis_measurement(2)
    rng = make_rng(42)
    trials = 20000
    ones = sum(born_measure(state, measurement, rng) for _ in range(trials))
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(ones / trials - (1 - p)) <= 3 * sigma


def test_born_measure_reproducible_per_seed():
    state = StateVector(np.full(4, 0.5), 2)
    measurement = basis_measurement(4)
    runs = [
        [born_measure(state, measurement, make_rng(7)) for _ in range(64)]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_born_measure_checks_the_total_and_draws_one_variate(monkeypatch):
    # Born probabilities (0.2, 0, 0.8, 0): one variate against their
    # cumulative sum, and side="right" never picks a zero-probability outcome.
    state = StateVector([math.sqrt(0.2), 0.0, math.sqrt(0.8), 0.0], 2)
    measurement = basis_measurement(4)
    rng, twin = make_rng(3), make_rng(3)
    for _ in range(200):
        assert born_measure(state, measurement, rng) == (
            0 if twin.random() < 0.2 else 2)
    monkeypatch.setattr(RankOneMeasurement, "outcome_probabilities",
                        lambda self, state: np.array([0.5, 0.25]))
    with pytest.raises(ValueError, match="sum to"):
        born_measure(StateVector([1.0, 0.0], 1), basis_measurement(2),
                     make_rng(0))


def test_born_measure_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        born_measure(StateVector([1.0, 0.0], 1), basis_measurement(4), make_rng(0))


def test_probability_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        ProbabilityDistribution(np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ProbabilityDistribution(np.array([-0.1, 1.1]))
    dist = ProbabilityDistribution.from_counts([1, 3])
    assert dist.weights.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError, match="positive"):
        ProbabilityDistribution.from_counts([0, 0])


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-14)
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-14)


def test_binary_entropy_domain():
    for bad in (-0.1, 1.0001):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def test_shannon_entropy_uniform_and_point_mass():
    uniform = ProbabilityDistribution(np.full(8, 0.125))
    assert shannon_entropy(uniform) == pytest.approx(3.0, abs=1e-12)
    point = ProbabilityDistribution(np.array([1.0, 0.0, 0.0]))
    assert shannon_entropy(point) == 0.0


def test_conditional_entropy_independent_and_deterministic():
    # Independent: H(X|M) = H(X).
    joint = ProbabilityDistribution(np.full((4, 2), 0.125))
    assert conditional_entropy(joint) == pytest.approx(2.0, abs=1e-12)
    # Deterministic X given M: H(X|M) = 0.
    deterministic = ProbabilityDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert conditional_entropy(deterministic) == 0.0


def test_conditional_entropy_requires_two_dims():
    with pytest.raises(ValueError, match="two-dimensional"):
        conditional_entropy(ProbabilityDistribution(np.array([0.5, 0.5])))


def test_conditional_entropy_chain_rule_spot_check():
    rng = make_rng(5)
    raw = rng.random((5, 3))
    joint = ProbabilityDistribution(raw / raw.sum())
    marginal = ProbabilityDistribution(joint.weights.sum(axis=0))
    chain = shannon_entropy(joint) - shannon_entropy(marginal)
    assert conditional_entropy(joint) == pytest.approx(chain, abs=MATRIX_TOL)


def test_make_rng_accepts_seed_sequence_and_splits():
    root = np.random.SeedSequence(9)
    a = make_rng(root.spawn(2)[0])
    b = make_rng(np.random.SeedSequence(9, spawn_key=(0,)))
    assert a.random(5).tolist() == b.random(5).tolist()
    # Distinct children give distinct streams.
    c = make_rng(np.random.SeedSequence(9, spawn_key=(1,)))
    assert a.random(5).tolist() != c.random(5).tolist()
