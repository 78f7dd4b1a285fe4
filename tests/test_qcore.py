"""The transform, state vectors, measurements, sampling, and entropies."""

import concurrent.futures
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclab.qcore import (
    MATRIX_TOL,
    VECTOR_TOL,
    StateVector,
    binary_entropy,
    born_measure,
    conditional_entropy,
    fwht,
    make_rng,
    pool_map,
    tensor_product,
    usable_workers,
)


def sylvester(m: int) -> np.ndarray:
    """The m-th Kronecker power of [[1, 1], [1, -1]], built densely."""
    matrix = np.ones((1, 1))
    for _ in range(m):
        matrix = np.kron(matrix, [[1.0, 1.0], [1.0, -1.0]])
    return matrix


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_fwht_is_the_sylvester_product_and_self_inverse(m, rows, seed):
    vectors = make_rng(seed).normal(size=(rows, 1 << m))
    transformed = fwht(vectors)
    assert transformed.shape == vectors.shape
    scale = 1 << m
    assert np.allclose(transformed, vectors @ sylvester(m).T,
                       rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(fwht(transformed) / scale, vectors,
                       rtol=0.0, atol=1e-12 * scale)
    # One row transforms as it does inside a batch, and the input is kept.
    assert np.array_equal(fwht(vectors[0]), transformed[0])
    assert np.array_equal(vectors, make_rng(seed).normal(size=(rows, 1 << m)))


def butterfly(vec) -> np.ndarray:
    """The in-place Walsh-Hadamard butterfly (Fino and Algazi 1976), the
    reference of ``fwht``: stage h = 1, 2, 4, ... replaces each pair (a, b)
    h apart on a (-1, 2, h) view by (a + b, a - b)."""
    v = np.array(vec, dtype=np.float64)
    diff = np.empty(v.size // 2)
    h = 1
    while h < v.shape[-1]:
        pairs = v.reshape(-1, 2, h)
        np.subtract(pairs[:, 0], pairs[:, 1], out=diff.reshape(-1, h))
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = diff.reshape(-1, h)
        h *= 2
    return v


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(1, 3),
       st.sampled_from(("float", "bool", "int")), st.integers(0, 2**32 - 1))
def test_fwht_equals_the_in_place_butterfly_bit_for_bit(m, rows, kind, seed):
    rng = make_rng(seed)
    shape = (rows, 1 << m)
    if kind == "float":
        # Magnitudes spread over 2**+-40, so that most sums round.
        vectors = rng.normal(size=shape) * 2.0 ** rng.integers(-40, 41, shape)
    elif kind == "bool":
        vectors = rng.random(shape) < 0.5
    else:
        vectors = rng.integers(-2**62, 2**62, size=shape)
    expected = butterfly(vectors)
    assert np.array_equal(fwht(vectors), expected)
    assert np.array_equal(fwht(vectors[-1]), expected[-1])


def test_fwht_refuses_a_length_that_is_not_a_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        fwht(np.ones(6))


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


def test_measurement_rejects_incomplete_family():
    # A single ket leaves |1> with no outcome: the Born total is 0, not 1.
    with pytest.raises(ValueError, match="sum to"):
        born_measure(StateVector([0.0, 1.0], 1), np.array([[1.0, 0.0]]),
                     make_rng(0))


def test_measurement_rejects_non_unit_kets():
    state = StateVector([1.0, 0.0], 1)
    with pytest.raises(ValueError, match="sum to"):
        born_measure(state, np.array([[1.0, 1.0], [1.0, -1.0]]), make_rng(0))
    with pytest.raises(ValueError, match="sum to"):
        born_measure(state, np.array([[np.nan, 0.0], [0.0, 1.0]]), make_rng(0))
    # Norm errors inside the tolerance are accepted.
    assert born_measure(state, np.array([[1.0 + 4e-13, 0.0], [0.0, 1.0]]),
                        make_rng(0)) == 0


def test_measurement_probabilities_match_overlaps_for_complex_kets():
    # The kets and the state both have nonzero imaginary parts, so a missing
    # or misplaced conjugation would change the outcome frequencies.
    rng = make_rng(23)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    unitary, _ = np.linalg.qr(raw)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = StateVector(amps / np.linalg.norm(amps), 2)
    expected = np.array([abs(np.vdot(ket, state.amplitudes)) ** 2
                         for ket in unitary])
    trials = 20000
    counts = np.bincount([born_measure(state, unitary, rng)
                          for _ in range(trials)], minlength=4)
    sigma = np.sqrt(expected * (1.0 - expected) / trials)
    assert (np.abs(counts / trials - expected) <= 3 * sigma).all()


def test_born_measure_deterministic_on_eigenstate():
    measurement = np.eye(2)
    state = StateVector([0.0, 1.0], 1)
    rng = make_rng(0)
    for _ in range(100):
        assert born_measure(state, measurement, rng) == 1


def test_born_measure_frequencies_match_born_rule():
    p = 0.3
    state = StateVector([math.sqrt(p), math.sqrt(1 - p)], 1)
    measurement = np.eye(2)
    rng = make_rng(42)
    trials = 20000
    ones = sum(born_measure(state, measurement, rng) for _ in range(trials))
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(ones / trials - (1 - p)) <= 3 * sigma


def test_born_measure_reproducible_per_seed():
    state = StateVector(np.full(4, 0.5), 2)
    measurement = np.eye(4)
    runs = [
        [born_measure(state, measurement, make_rng(7)) for _ in range(64)]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_born_measure_checks_the_total_and_draws_one_variate():
    # Born probabilities (0.2, 0, 0.8, 0): one variate against their
    # cumulative sum, and side="right" never picks a zero-probability outcome.
    state = StateVector([math.sqrt(0.2), 0.0, math.sqrt(0.8), 0.0], 2)
    measurement = np.eye(4)
    rng, twin = make_rng(3), make_rng(3)
    for _ in range(200):
        assert born_measure(state, measurement, rng) == (
            0 if twin.random() < 0.2 else 2)
    with pytest.raises(ValueError, match="sum to"):
        born_measure(StateVector([1.0, 0.0], 1),
                     np.diag([math.sqrt(0.5), 0.5]), make_rng(0))


def test_born_measure_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        born_measure(StateVector([1.0, 0.0], 1), np.eye(4), make_rng(0))


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


def shannon_entropy(counts) -> float:
    """Entropy in bits of the distribution proportional to ``counts``."""
    p = np.asarray(counts, dtype=float) / np.sum(counts)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def test_shannon_entropy_uniform_and_point_mass():
    # Under one label, H(X | f(X)) is the Shannon entropy of X.
    assert conditional_entropy(np.full(8, 3.0), np.zeros(8, int)) == (
        pytest.approx(3.0, abs=1e-12))
    assert conditional_entropy([5, 0, 0], [0, 0, 0]) == 0.0
    assert shannon_entropy([1, 1, 2]) == pytest.approx(1.5, abs=1e-15)


def test_conditional_entropy_independent_and_deterministic():
    # Labels that split X into two equal halves of uniform weight leave
    # H(X|M) = H(X) - 1.
    assert conditional_entropy(np.ones(4), [0, 1, 0, 1]) == pytest.approx(
        1.0, abs=1e-12)
    # Deterministic X given M: H(X|M) = 0, returned as +0.0.
    value = conditional_entropy([2, 6], [1, 0])
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    # Unseen values carry no weight.
    assert conditional_entropy([1, 0, 1, 0], [0, 0, 1, 1]) == 0.0


def test_conditional_entropy_requires_one_label_per_count():
    with pytest.raises(ValueError, match="one label per count"):
        conditional_entropy(np.full((2, 2), 0.25), np.zeros((2, 2), int))
    with pytest.raises(ValueError, match="one label per count"):
        conditional_entropy([1, 1, 1], [0, 1])
    with pytest.raises(ValueError, match="nonnegative"):
        conditional_entropy([1, -1], [0, 1])
    with pytest.raises(ValueError, match="positive total"):
        conditional_entropy([0, 0], [0, 1])


def test_conditional_entropy_chain_rule_spot_check():
    # M = f(X), so H(X|M) = H(X, M) - H(M) = H(X) - H(M).
    rng = make_rng(5)
    counts = rng.random(12)
    labels = rng.integers(0, 4, size=12)
    chain = (shannon_entropy(counts)
             - shannon_entropy(np.bincount(labels, weights=counts)))
    assert conditional_entropy(counts, labels) == pytest.approx(
        chain, abs=MATRIX_TOL)


def test_make_rng_accepts_seed_sequence_and_splits():
    root = np.random.SeedSequence(9)
    a = make_rng(root.spawn(2)[0])
    b = make_rng(np.random.SeedSequence(9, spawn_key=(0,)))
    assert a.random(5).tolist() == b.random(5).tolist()
    # Distinct children give distinct streams.
    c = make_rng(np.random.SeedSequence(9, spawn_key=(1,)))
    assert a.random(5).tolist() != c.random(5).tolist()


def test_pool_map_keeps_input_order_and_one_worker_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one worker must not construct a pool")

    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert pool_map(1, pow, [2, 3, 5], [3, 2, 1]) == [8, 9, 5]
        assert pool_map(1, pow, [], []) == []
    squares = pool_map(2, pow, range(40), itertools.repeat(2))
    assert squares == [i * i for i in range(40)]


@pytest.mark.parametrize("requested", [0, -3])
def test_usable_workers_refuses_fewer_than_one_even_for_one_job(requested):
    # One job needs no CPU count, but the request is still checked first.
    with pytest.raises(ValueError, match=f">= 1, got {requested}"):
        usable_workers(requested, 1)
