"""Bit strings, subsets, encoding states, and the exclusion measurement."""

import math
import tracemalloc

import numpy as np
import pytest

from exclab import pbr
from exclab.pbr import (
    MAX_QUBITS,
    BitString,
    IndexSubset,
    bit_state,
    critical_angle,
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
    assert str(s.complement()) == "1001"
    assert s.hamming_distance(s) == 0
    assert s.hamming_distance(s.complement()) == 4
    with pytest.raises(ValueError):
        s.hamming_distance(BitString.from_string("01"))


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


def test_measure_exclusion_never_returns_preparation():
    m = 2
    theta = critical_angle(m)
    rng = make_rng(2024)
    for w_index in range(1 << m):
        w = BitString.from_index(w_index, m)
        state = product_state(w, theta)
        for _ in range(25000):
            assert measure_exclusion(state, rng) != w


def test_measure_exclusion_outcome_frequencies():
    # For the all-zeros preparation at theta_2 the three allowed outcomes
    # have Born weights |<zeta_z|Psi_00>|^2; check them at 3 sigma.
    m = 2
    theta = critical_angle(m)
    w = BitString.from_string("00")
    state = product_state(w, theta)
    measurement = exclusion_measurement(m)
    probs = measurement.outcome_probabilities(state)
    rng = make_rng(99)
    trials = 20000
    counts = {z: 0 for z in measurement.labels}
    for _ in range(trials):
        counts[measure_exclusion(state, rng)] += 1
    for z_index, z in enumerate(measurement.labels):
        sigma = math.sqrt(max(probs[z_index] * (1 - probs[z_index]), 1e-12) / trials)
        assert abs(counts[z] / trials - probs[z_index]) <= 3 * sigma + 1e-9
