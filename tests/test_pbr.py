"""Bit strings, subsets, encoding states, and the exclusion measurement."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exclab.pbr import (
    DENSE_MAX_QUBITS,
    MAX_QUBITS,
    BitString,
    IndexSubset,
    critical_angle,
    distance_distribution,
    exclusion_measurement,
    exclusion_overlaps,
    measure_exclusion,
    product_state,
    restrict,
    sample_distance,
)
from exclab.qcore import (
    MATRIX_TOL,
    VECTOR_TOL,
    ResourceLimitError,
    StateVector,
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
    # Text holds only the characters 0 and 1: a space, a digit past 1, or a
    # non-ASCII digit (which int() would read as 1) is refused.
    for text in ("", "012", "1 0", "/", "\u0661", "0\u00b9"):
        with pytest.raises(ValueError):
            BitString.from_string(text)


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


@pytest.mark.parametrize("cls, values", [
    (BitString, (0.7, 1.2)),
    (BitString, (0.0, 1.0)),
    (BitString, np.array([0.7, 1.2])),
    (BitString, ("0", "1")),
    (BitString, "01"),
    (IndexSubset, (1.9, 2.5)),
    (IndexSubset, (1, 2.0)),
    (IndexSubset, np.array([1.9, 2.5])),
    (IndexSubset, [Decimal(1), Decimal(2)]),
])
def test_non_integer_bits_and_indices_are_refused_not_truncated(cls, values):
    # int() truncates: (0.7, 1.2) would pass as "01", (1.9, 2.5) as (1, 2).
    with pytest.raises(ValueError, match="non-integer"):
        cls(values)


def test_bits_and_indices_take_bools_and_numpy_integers_as_ints():
    for values in ((True, False, np.int8(1)), np.array([True, False, True]),
                   np.array([1, 0, 1], dtype=np.uint8), iter([1, 0, 1])):
        bits = BitString(values).bits
        assert bits == (1, 0, 1) and {type(b) for b in bits} == {int}
    for values in ((True, np.int64(5)), np.array([1, 5], np.uint64),
                   np.array([1, 5], dtype=object)):
        indices = IndexSubset(values).indices
        assert indices == (1, 5) and {type(i) for i in indices} == {int}


def _int_bits(values):
    """BitString's check through int(), which truncated: the bits, or None
    where it refused."""
    bits = tuple(int(b) for b in values)
    return bits if bits and not any(b not in (0, 1) for b in bits) else None


def _int_indices(values):
    """IndexSubset's check through int(), likewise."""
    indices = tuple(int(i) for i in values)
    ok = indices and indices[0] >= 1 and not any(
        a >= b for a, b in zip(indices, indices[1:]))
    return indices if ok else None


def _as_numpy_scalars(values):
    return tuple(v if isinstance(v, bool) or not -2**63 <= v < 2**63
                 else np.int64(v) for v in values)


def _as_array(values):
    big = any(not -2**63 <= v < 2**63 for v in values)
    return np.array(values, dtype=object if big else None)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-2, 6), st.booleans(),
                          st.integers(-2**70, 2**70)), max_size=6),
       st.sampled_from([tuple, list, iter, _as_numpy_scalars, _as_array]))
@example(values=[0, 1, True, 1], form=tuple)
@example(values=[1, 2**70], form=_as_array)
def test_exact_checks_agree_with_int_on_integers(values, form):
    # On integer input (Python ints and bools, numpy integers, integer or
    # bool arrays) the exact checks accept what int() did, with its values.
    for cls, reference, field in ((BitString, _int_bits, "bits"),
                                  (IndexSubset, _int_indices, "indices")):
        expected = reference(form(values))
        try:
            got = getattr(cls(form(values)), field)
        except ValueError:
            got = None
        assert got == expected
        assert got is None or {type(v) for v in got} == {int}


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
    zero = product_state(BitString.from_string("0"), theta).amplitudes
    one = product_state(BitString.from_string("1"), theta).amplitudes
    assert zero[0] == pytest.approx(math.cos(theta / 2), abs=1e-15)
    assert zero[1] == pytest.approx(math.sin(theta / 2), abs=1e-15)
    assert one[1] == pytest.approx(-math.sin(theta / 2), abs=1e-15)
    assert np.vdot(zero, one).real == pytest.approx(math.cos(theta), abs=1e-12)


def test_bit_state_validation():
    for angle in (0.0, math.pi, -0.3, math.nan):
        with pytest.raises(ValueError, match="angle"):
            product_state(BitString.from_string("0"), angle)


def kron_of_bit_states(x: BitString, angle: float) -> np.ndarray:
    """The product encoding of ``x`` as a kron of its bit states, built
    without exclab: (cos(angle/2), +-sin(angle/2)), bit 1 most significant."""
    half = 0.5 * angle
    amplitudes = np.array([1.0])
    for bit in x:
        amplitudes = np.kron(amplitudes, [math.cos(half),
                                          (-1.0) ** bit * math.sin(half)])
    return amplitudes


def test_product_state_matches_explicit_kron():
    theta = critical_angle(2)
    x = BitString.from_string("01")
    assert np.allclose(product_state(x, theta).amplitudes,
                       kron_of_bit_states(x, theta), atol=VECTOR_TOL)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_product_state_equals_a_test_built_kron(m):
    for angle in (critical_angle(m), 0.9 * critical_angle(m), 0.7, 3.0):
        for value in range(1 << m):
            x = BitString.from_index(value, m)
            amplitudes = product_state(x, angle).amplitudes
            assert amplitudes.dtype == np.complex128
            assert not amplitudes.imag.any()
            assert np.array_equal(amplitudes.real, kron_of_bit_states(x, angle))


def test_product_state_refuses_past_the_cap():
    x = BitString(tuple([0] * (MAX_QUBITS + 1)))
    with pytest.raises(ResourceLimitError):
        product_state(x, 0.5)


def test_exclusion_vector_single_qubit_hand_values():
    # m=1: the two outcome vectors are |-> and |+>.
    root_half = 1.0 / math.sqrt(2)
    minus, plus = exclusion_measurement(1)
    assert np.allclose(minus, [root_half, -root_half], atol=VECTOR_TOL)
    assert np.allclose(plus, [root_half, root_half], atol=VECTOR_TOL)


def test_exclusion_vector_amplitude_pattern():
    zeta = exclusion_measurement(2)[0b11]
    scale = 0.5
    # s=00 -> +; s in {01, 10} -> odd parity with z=11 -> +; s=11 -> even -> -.
    assert np.allclose(zeta, [scale, scale, scale, -scale], atol=VECTOR_TOL)


@pytest.mark.parametrize("m", range(1, 7))
def test_exclusion_vector_matches_measurement_rows(m):
    # Row z is zeta_z: +1/sqrt(2**m) at s = 0, -(-1)**(z.s)/sqrt(2**m) elsewhere.
    kets = exclusion_measurement(m)
    s_values = np.arange(1 << m)
    for z in range(1 << m):
        parities = np.array([(z & s).bit_count() & 1 for s in s_values])
        zeta = -np.where(parities == 1, -1.0, 1.0) / math.sqrt(1 << m)
        zeta[0] = 1.0 / math.sqrt(1 << m)
        assert np.allclose(zeta, kets[z], rtol=0.0, atol=VECTOR_TOL)


@pytest.mark.parametrize("m", range(1, 7))
def test_exclusion_measurement_orthonormal(m):
    kets = exclusion_measurement(m)
    gram = kets @ kets.T
    assert np.abs(gram - np.eye(1 << m)).max() <= MATRIX_TOL


def test_exclusion_measurement_labels_ascending():
    # Outcome z is row z, in ascending order: row z alone excludes Psi_z.
    m = 3
    kets = exclusion_measurement(m)
    for z in range(1 << m):
        state = product_state(BitString.from_index(z, m), critical_angle(m))
        overlaps = np.abs(kets @ state.amplitudes.real)
        assert overlaps[z] < VECTOR_TOL
        assert np.delete(overlaps, z).min() > 1e-3


def test_exclusion_measurement_cap():
    with pytest.raises(ResourceLimitError):
        exclusion_measurement(DENSE_MAX_QUBITS + 1)
    with pytest.raises(ResourceLimitError):
        exclusion_measurement(0)


def test_cap_of_13_qubits_refuses_before_allocating():
    # 8 * 4**14 bytes = 2 GiB of kets at m = 14 would exhaust the host.
    assert DENSE_MAX_QUBITS == 13
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            exclusion_measurement(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exclusion_measurement_holds_one_matrix_and_no_state_vectors(monkeypatch):
    # Every StateVector built during the call is counted.
    built = []
    original = StateVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    m = 8
    kets = exclusion_measurement(m)
    assert built == []
    assert kets.dtype == np.float64
    assert kets.shape == (1 << m, 1 << m)
    assert kets.nbytes == 8 * 4**m
    assert kets.base is None and not kets.flags.writeable


@pytest.mark.parametrize("m", range(1, 9))
def test_exclusion_overlaps_match_the_dense_measurement(m):
    # Every truth at once: row w of the batch is Psi_w, for the critical
    # angle and one below it.
    kets = exclusion_measurement(m)
    for angle in (critical_angle(m), 0.9 * critical_angle(m)):
        states = np.array([
            product_state(BitString.from_index(w, m), angle).amplitudes.real
            for w in range(1 << m)])
        assert np.abs(exclusion_overlaps(states) - states @ kets.T).max() <= (
            VECTOR_TOL)


def test_product_states_reach_the_qubit_cap():
    x = BitString.from_index(0b1011, MAX_QUBITS)
    state = product_state(x, critical_angle(MAX_QUBITS))
    overlaps = exclusion_overlaps(state.amplitudes.real)
    assert abs(overlaps[x.to_index()]) <= VECTOR_TOL
    assert abs((overlaps**2).sum() - 1.0) <= MATRIX_TOL


@pytest.mark.parametrize("m", range(1, 9))
def test_perfect_exclusion_at_critical_angle(m):
    theta = critical_angle(m)
    kets = exclusion_measurement(m)
    worst = max(
        abs(kets[z] @ product_state(BitString.from_index(z, m),
                                    theta).amplitudes)
        for z in range(1 << m)
    )
    assert worst < VECTOR_TOL


@pytest.mark.parametrize("m", range(2, 7))
def test_exclusion_fails_below_critical_angle(m):
    theta = 0.9 * critical_angle(m)
    kets = exclusion_measurement(m)
    worst = max(
        abs(kets[z] @ product_state(BitString.from_index(z, m),
                                    theta).amplitudes)
        for z in range(1 << m)
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
    probs = np.abs(exclusion_measurement(m)
                   @ product_state(w, theta).amplitudes) ** 2
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
    dense = np.abs(exclusion_measurement(m)
                   @ product_state(w, critical_angle(m)).amplitudes) ** 2
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


def decimal_distance_law(m: int) -> list[Decimal]:
    """P(d) = C(m, d) (1 - r**d)**2 / Z for d = 0..m in 50-digit decimal,
    with t = 2**(1/m) - 1 and r = (1 - t)/(1 + t) formed there too."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = (Decimal(2).ln() / m).exp() - 1
        r = (1 - t) / (1 + t)
        weights, comb, r_d = [], Decimal(1), Decimal(1)
        for d in range(m + 1):
            weights.append(comb * (1 - r_d) ** 2)
            comb = comb * (m - d) / (d + 1)
            r_d *= r
        total = sum(weights)
        return [w / total for w in weights]


def test_distance_law_keeps_its_digits_at_large_m():
    # Every d whose reference is at least 1e-300.  Log-domain terms of size
    # m ln m would spend four or five of P(d)'s digits at these m.
    floor = Decimal("1e-300")
    for m in (21, 100, 10**3, 10**4, 10**5):
        probabilities = distance_distribution(m)[0]
        assert probabilities[0] == 0.0
        for d, reference in enumerate(decimal_distance_law(m)):
            if reference >= floor:
                assert math.isclose(probabilities[d], float(reference),
                                    rel_tol=1e-12), (m, d)


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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_distance_sampler_fits_the_law_at_m_10_4(seed):
    # The sampler the game scores from, alone: 50,000 distances at m = 10**4
    # against distance_distribution, the bins of expected count below 10
    # pooled with their neighbours toward the middle.
    m, trials = 10**4, 50000
    counts = np.bincount(sample_distance(m, make_rng(seed), trials),
                         minlength=m + 1)
    expected = trials * distance_distribution(m)[0]
    pooled_counts, pooled_expected, count, mass = [], [], 0, 0.0
    for c, e in zip(counts, expected):
        count, mass = count + c, mass + e
        if mass >= 10.0:
            pooled_counts.append(count)
            pooled_expected.append(mass)
            count, mass = 0, 0.0
    pooled_counts[-1] += count
    pooled_expected[-1] += mass
    observed, expected = np.array(pooled_counts), np.array(pooled_expected)
    assert observed.sum() == trials and len(observed) > 250
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert chi2_sf(statistic, len(observed) - 1) >= THREE_SIGMA_TAIL, statistic


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
