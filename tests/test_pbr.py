"""Bit strings, subsets, encoding states, and the exclusion measurement."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exclab import pbr
from exclab.pbr import (
    MAX_QUBITS,
    BitString,
    IndexSubset,
    bit_state,
    critical_angle,
    distance_distribution,
    exclusion_measurement,
    exclusion_vector,
    measure_exclusion,
    product_state,
    restrict,
)
from exclab.qcore import (
    MATRIX_TOL,
    VECTOR_TOL,
    ResourceLimitError,
    StateVector,
    inner_product,
    make_rng,
)


def test_bitstring_round_trips():
    s = BitString.from_string("0110")
    assert str(s) == "0110"
    assert s.to_index() == 6
    assert BitString.from_index(6, 4) == s
    assert list(s) == [0, 1, 1, 0]
    assert len(s) == 4


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString(())
    with pytest.raises(ValueError):
        BitString((0, 2))
    with pytest.raises(ValueError):
        BitString.from_index(4, 2)
    with pytest.raises(ValueError):
        BitString.from_index(-1, 2)


def test_bitstring_bit_is_one_indexed_msb_first():
    s = BitString.from_string("100")
    assert s.bit(1) == 1
    assert s.bit(2) == 0
    assert s.bit(3) == 0
    with pytest.raises(ValueError):
        s.bit(0)
    with pytest.raises(ValueError):
        s.bit(4)


def test_bitstring_complement_and_hamming():
    s = BitString.from_string("0110")
    complement = BitString(tuple(1 - b for b in s))
    assert str(complement) == "1001"
    assert complement.to_index() ^ s.to_index() == 0b1111


def test_index_subset_validation():
    IndexSubset((1, 3, 4))
    with pytest.raises(ValueError):
        IndexSubset(())
    with pytest.raises(ValueError):
        IndexSubset((0, 1))
    with pytest.raises(ValueError):
        IndexSubset((2, 2))
    with pytest.raises(ValueError):
        IndexSubset((3, 1))


def test_all_subsets_lexicographic_and_complete():
    subsets = list(IndexSubset.all_subsets(4, 2))
    assert len(subsets) == 6
    assert [s.indices for s in subsets[:3]] == [(1, 2), (1, 3), (1, 4)]
    assert subsets[-1].indices == (3, 4)
    with pytest.raises(ValueError):
        list(IndexSubset.all_subsets(3, 4))


def test_critical_angle_known_values():
    assert critical_angle(1) == pytest.approx(math.pi / 2, abs=1e-15)
    assert critical_angle(2) == pytest.approx(math.pi / 4, abs=1e-15)
    assert critical_angle(8) == pytest.approx(0.1805236087875480, abs=1e-15)


def test_critical_angle_decreasing_and_bracketed():
    previous = math.pi
    for m in range(1, 65):
        theta = critical_angle(m)
        assert 0.0 < theta <= math.pi / 2
        assert theta < previous
        # tan(theta/2) = 2**(1/m) - 1 lies strictly between ln2/m and 2ln2/m.
        assert 2.0 * math.atan(math.log(2.0) / m) < theta
        assert theta < 2.0 * math.atan(2.0 * math.log(2.0) / m)
        previous = theta


def test_critical_angle_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        critical_angle(0)


def test_bit_state_components_and_mutual_overlap():
    theta = 0.7
    zero = bit_state(0, theta)
    one = bit_state(1, theta)
    assert zero.amplitudes[0] == pytest.approx(math.cos(theta / 2), abs=1e-15)
    assert zero.amplitudes[1] == pytest.approx(math.sin(theta / 2), abs=1e-15)
    assert one.amplitudes[1] == pytest.approx(-math.sin(theta / 2), abs=1e-15)
    assert inner_product(zero, one).real == pytest.approx(math.cos(theta), abs=1e-12)


def test_bit_state_validation():
    with pytest.raises(ValueError):
        bit_state(2, 0.5)
    for angle in (0.0, math.pi, -0.3):
        with pytest.raises(ValueError):
            bit_state(0, angle)


def test_product_state_matches_explicit_kron():
    theta = critical_angle(2)
    x = BitString.from_string("01")
    direct = np.kron(bit_state(0, theta).amplitudes, bit_state(1, theta).amplitudes)
    assert np.allclose(product_state(x, theta).amplitudes, direct, atol=VECTOR_TOL)


def test_product_state_refuses_past_the_cap():
    x = BitString(tuple([0] * (MAX_QUBITS + 1)))
    with pytest.raises(ResourceLimitError):
        product_state(x, 0.5)


def test_exclusion_vector_single_qubit_hand_values():
    # m=1: the two outcome vectors are |-> and |+>.
    root_half = 1.0 / math.sqrt(2)
    minus = exclusion_vector(BitString.from_string("0"))
    plus = exclusion_vector(BitString.from_string("1"))
    assert np.allclose(minus.amplitudes, [root_half, -root_half], atol=VECTOR_TOL)
    assert np.allclose(plus.amplitudes, [root_half, root_half], atol=VECTOR_TOL)


def test_exclusion_vector_amplitude_pattern():
    zeta = exclusion_vector(BitString.from_string("11"))
    scale = 0.5
    # s=00 -> +; s in {01, 10} -> odd parity with z=11 -> +; s=11 -> even -> -.
    assert np.allclose(zeta.amplitudes, [scale, scale, scale, -scale],
                       atol=VECTOR_TOL)


@pytest.mark.parametrize("m", range(1, 7))
def test_exclusion_vector_matches_measurement_rows(m):
    measurement = exclusion_measurement(m)
    for z_index, z in enumerate(measurement.labels):
        assert np.allclose(
            exclusion_vector(z).amplitudes,
            measurement.kets[z_index],
            atol=VECTOR_TOL,
        )


@pytest.mark.parametrize("m", range(1, 7))
def test_exclusion_measurement_orthonormal(m):
    kets = exclusion_measurement(m).kets
    gram = kets @ kets.conj().T
    assert np.abs(gram - np.eye(1 << m)).max() <= MATRIX_TOL


def test_exclusion_measurement_labels_ascending():
    labels = exclusion_measurement(3).labels
    assert [z.to_index() for z in labels] == list(range(8))


def test_exclusion_measurement_cached():
    assert exclusion_measurement(4) is exclusion_measurement(4)


def test_exclusion_measurement_cap():
    with pytest.raises(ResourceLimitError):
        exclusion_measurement(MAX_QUBITS + 1)
    with pytest.raises(ResourceLimitError):
        exclusion_measurement(0)


def test_cap_of_13_qubits_refuses_before_allocating():
    # 16 * 4**14 bytes = 4 GiB of kets at m = 14 would exhaust the host.
    assert MAX_QUBITS == 13
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            exclusion_measurement(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exclusion_measurement_holds_one_matrix_and_no_state_vectors(monkeypatch):
    # A cold build: no cached instance, and every StateVector counted.
    monkeypatch.setattr(pbr, "_measurement_cache", {})
    built = []
    original = StateVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    m = 8
    measurement = exclusion_measurement(m)
    assert built == []
    assert set(vars(measurement)) == {"kets", "labels"}
    kets = measurement.kets
    assert kets.dtype == np.complex128
    assert kets.shape == (1 << m, 1 << m)
    assert kets.nbytes == 16 * 4**m
    assert kets.base is None and not kets.flags.writeable


@pytest.mark.parametrize("m", range(1, 9))
def test_perfect_exclusion_at_critical_angle(m):
    theta = critical_angle(m)
    measurement = exclusion_measurement(m)
    worst = max(
        abs(np.vdot(measurement.kets[z.to_index()],
                    product_state(z, theta).amplitudes))
        for z in measurement.labels
    )
    assert worst < VECTOR_TOL


@pytest.mark.parametrize("m", range(2, 7))
def test_exclusion_fails_below_critical_angle(m):
    theta = 0.9 * critical_angle(m)
    measurement = exclusion_measurement(m)
    worst = max(
        abs(np.vdot(measurement.kets[z.to_index()],
                    product_state(z, theta).amplitudes))
        for z in measurement.labels
    )
    assert worst > 1e-6


def test_restrict_examples_and_errors():
    x = BitString.from_string("10110")
    assert str(restrict(x, IndexSubset((1, 3, 5)))) == "110"
    assert str(restrict(x, IndexSubset((2,)))) == "0"
    with pytest.raises(ValueError):
        restrict(x, IndexSubset((4, 6)))


def truth_rows(w: BitString, rows: int) -> np.ndarray:
    """``rows`` copies of ``w`` as the (rows, m) int8 block measure_exclusion
    takes."""
    return np.tile(np.array(w.bits, dtype=np.int8), (rows, 1))


def outcome_indices(outcomes: np.ndarray) -> np.ndarray:
    """Integer value (MSB first) of every row of a block of bit rows."""
    m = outcomes.shape[1]
    return outcomes @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))


def test_measure_exclusion_never_returns_preparation():
    m = 2
    rng = make_rng(2024)
    for w_index in range(1 << m):
        w = BitString.from_index(w_index, m)
        outcomes = measure_exclusion(truth_rows(w, 25000), rng)
        assert outcomes.shape == (25000, m) and outcomes.dtype == np.int8
        assert set(np.unique(outcomes).tolist()) <= {0, 1}
        assert (outcome_indices(outcomes) != w_index).all()


def test_measure_exclusion_outcome_frequencies():
    # For the all-zeros preparation at theta_2 the three allowed outcomes
    # have Born weights |<zeta_z|Psi_00>|^2 from the dense measurement;
    # check the sampler against them at 3 sigma.
    m = 2
    theta = critical_angle(m)
    w = BitString.from_string("00")
    measurement = exclusion_measurement(m)
    probs = measurement.outcome_probabilities(product_state(w, theta))
    rng = make_rng(99)
    trials = 20000
    counts = np.bincount(
        outcome_indices(measure_exclusion(truth_rows(w, trials), rng)),
        minlength=1 << m)
    for z_index in range(1 << m):
        sigma = math.sqrt(max(probs[z_index] * (1 - probs[z_index]), 1e-12) / trials)
        assert abs(counts[z_index] / trials - probs[z_index]) <= 3 * sigma + 1e-9


# One-sided tail mass of a normal variate beyond 3 sigma: the significance
# level of the goodness-of-fit tests below, like the suite's 3-sigma bounds.
THREE_SIGMA_TAIL = 0.5 * math.erfc(3.0 / math.sqrt(2.0))


def chi2_sf(x: float, dof: int) -> float:
    """P[X >= x] for X chi-square with an integer number of degrees of
    freedom, from the closed forms of the regularized upper gamma function."""
    half = 0.5 * x
    if dof % 2 == 0:
        terms, total = 1.0, 1.0
        for i in range(1, dof // 2):
            terms *= half / i
            total += terms
        return math.exp(-half) * total
    total = math.erfc(math.sqrt(half))
    term = math.exp(-half) * math.sqrt(half) / math.gamma(1.5)
    for i in range(1, (dof + 1) // 2):
        total += term
        term *= half / (i + 0.5)
    return total


def test_chi2_sf_reference_values():
    # chi-square quantiles at the 5% and 1% levels from standard tables.
    for x, dof, tail in ((3.841459, 1, 0.05), (5.991465, 2, 0.05),
                         (11.070498, 5, 0.05), (23.209251, 10, 0.01),
                         (24.724970, 11, 0.01)):
        assert chi2_sf(x, dof) == pytest.approx(tail, rel=1e-6)


def shell_sizes(m: int) -> np.ndarray:
    return np.array([math.comb(m, d) for d in range(m + 1)], dtype=float)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 11), st.integers(0, (1 << 11) - 1))
@example(11, 0)
@example(11, (1 << 11) - 1)
@example(1, 1)
def test_distance_law_matches_dense_born_probabilities(m, w_index):
    w = BitString.from_index(w_index % (1 << m), m)
    dense = exclusion_measurement(m).outcome_probabilities(
        product_state(w, critical_angle(m)))
    distance = np.bitwise_count(np.arange(1 << m) ^ w.to_index())
    per_outcome = distance_distribution(m)[0] / shell_sizes(m)
    assert np.abs(per_outcome[distance] - dense).max() <= 1e-12


def test_distance_law_excludes_the_truth_exactly():
    for m in range(1, 301):
        probabilities, cdf = distance_distribution(m)
        assert probabilities[0] == 0.0 and cdf[0] == 0.0
        assert cdf[-1] == 1.0
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert not probabilities.flags.writeable and not cdf.flags.writeable
    # m = 1: r = 0, so the single qubit is always flipped.
    assert distance_distribution(1)[0].tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        distance_distribution(0)


def test_distance_law_normalisation_closed_form():
    # Z = 2**m - 2 (1 + r)**m + (1 + r**2)**m fixes P(m) = (1 - r**m)**2 / Z.
    for m in (2, 6, 11, 40):
        t = 2.0 ** (1.0 / m) - 1.0
        r = (1.0 - t) / (1.0 + t)
        z = 2.0**m - 2.0 * (1.0 + r) ** m + (1.0 + r * r) ** m
        assert distance_distribution(m)[0][m] == pytest.approx(
            (1.0 - r**m) ** 2 / z, rel=1e-12)


@pytest.mark.parametrize("m, trials, seed", [(6, 20000, 6), (11, 40000, 11)])
def test_sampled_distance_histogram_fits_the_distance_law(m, trials, seed):
    probabilities = distance_distribution(m)[0]
    w = BitString.from_index(0b10110101101 % (1 << m), m)
    rng = make_rng(seed)
    truth = truth_rows(w, trials)
    distances = (measure_exclusion(truth, rng) != truth).sum(axis=1)
    counts = np.bincount(distances, minlength=m + 1)
    assert counts[0] == 0
    expected = trials * probabilities[1:]
    assert expected.min() >= 10.0
    statistic = float(((counts[1:] - expected) ** 2 / expected).sum())
    assert chi2_sf(statistic, m - 1) >= THREE_SIGMA_TAIL, statistic


def test_sampled_outcome_is_uniform_within_its_distance_shell():
    m, trials = 4, 20000
    w = BitString.from_string("0110")
    rng = make_rng(44)
    counts = np.bincount(
        outcome_indices(measure_exclusion(truth_rows(w, trials), rng)),
        minlength=1 << m)
    statistic, dof = 0.0, 0
    for d in range(1, m + 1):
        shell = [z for z in range(1 << m)
                 if (z ^ w.to_index()).bit_count() == d]
        expected = sum(counts[z] for z in shell) / len(shell)
        statistic += sum((counts[z] - expected) ** 2 / expected for z in shell)
        dof += len(shell) - 1
    assert dof == 11
    assert chi2_sf(statistic, dof) >= THREE_SIGMA_TAIL, statistic
