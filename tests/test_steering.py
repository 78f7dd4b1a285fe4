"""Steering kits, branch statistics, abort budgets, and full rounds."""

import math
import warnings

import numpy as np
import pytest

from exclab.pbr import BitString, critical_angle
from exclab.qcore import VECTOR_TOL, ResourceLimitError, make_rng
from exclab.steering import (
    FLOAT_K_MAX,
    SteeringParameters,
    SteeringRoundResult,
    build_kit,
    choose_k,
    draw_rounds,
    p_abort,
    p_global_steer,
    p_steer,
    run_steering_round,
    sender_bases,
    steer_one,
)
from test_pbr import THREE_SIGMA_TAIL, chi2_sf

ROOT_HALF = 1.0 / math.sqrt(2.0)


def bit_state(bit: int, theta: float) -> np.ndarray:
    """The encoding of ``bit`` at ``theta``, built without exclab."""
    return np.array([math.cos(theta / 2), (-1) ** bit * math.sin(theta / 2)])


def declared_targets(theta: float) -> np.ndarray:
    """targets[bit, outcome]: the bit state after outcome 0, and after
    outcome 1 |-> under S (bit 0) and |+> under R (bit 1)."""
    return np.array([[bit_state(0, theta), [ROOT_HALF, -ROOT_HALF]],
                     [bit_state(1, theta), [ROOT_HALF, ROOT_HALF]]])


def project_sender(phi: np.ndarray, sender: np.ndarray) -> tuple[float, np.ndarray]:
    """Probability and receiver post-state when the sender's qubit (the most
    significant one) of the two-qubit ket ``phi`` is projected onto the ket
    ``sender``, in complex arithmetic."""
    pair = np.asarray(phi, dtype=np.complex128).reshape(2, 2)
    receiver = pair.T @ np.asarray(sender, dtype=np.complex128).conj()
    probability = float(np.vdot(receiver, receiver).real)
    return probability, receiver / math.sqrt(probability)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b))


def test_build_kit_pair_amplitudes_for_m_two():
    # Outcome 0 under S projects the sender's half onto the pair amplitudes
    # themselves: probability a0**4 + a1**4, post-state (a0**2, a1**2)
    # normalized.
    a0, a1 = sender_bases(2)[0, 0]
    assert a0 == pytest.approx(2.0 ** -0.25, abs=1e-15)
    assert a1 == pytest.approx(0.5411961001461971, abs=1e-15)
    probs, posts = build_kit(2)
    assert probs[0, 0] == pytest.approx(a0**4 + a1**4, abs=1e-15)
    assert posts[0, 0] == pytest.approx(np.array([a0**2, a1**2])
                                        / math.sqrt(a0**4 + a1**4), abs=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 32])
def test_steering_branches_hit_their_targets(m):
    probs, posts = build_kit(m)
    theta = critical_angle(m)
    targets = declared_targets(theta)
    for bit in (0, 1):
        # Outcome 0 lands exactly on the bit state at the critical angle.
        assert fidelity(posts[bit, 0], targets[bit, 0]) == pytest.approx(
            1.0, abs=1e-12)
        # Outcome 1 lands on the signal-free conjugate state.
        assert fidelity(posts[bit, 1], targets[bit, 1]) == pytest.approx(
            1.0, abs=1e-12)
        p0, p1 = probs[bit]
        sin_t = math.sin(theta)
        assert p0 == pytest.approx(1.0 / (1.0 + sin_t), abs=1e-12)
        assert p1 == pytest.approx(sin_t / (1.0 + sin_t), abs=1e-12)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_branch_posts_match_declared_targets():
    probs, posts = build_kit(4)
    targets = declared_targets(critical_angle(4))
    for bit in (0, 1):
        for outcome in (0, 1):
            assert fidelity(posts[bit, outcome],
                            targets[bit, outcome]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 11, 32, 100, 1024])
def test_build_kit_matches_the_complex_projection(m):
    # The array kit against the complex projection of the shared pair
    # a0|00> + a1|11> onto each sender ket.
    bases = sender_bases(m)
    a0, a1 = bases[0, 0]
    phi = np.array([a0, 0.0, 0.0, a1])
    probs, posts = build_kit(m)
    for bit in (0, 1):
        for outcome in (0, 1):
            probability, post = project_sender(phi, bases[bit, outcome])
            assert abs(probs[bit, outcome] - probability) <= 1e-15
            assert np.abs(posts[bit, outcome] - post).max() <= 1e-15


def test_sender_bases_are_orthonormal():
    for m in range(1, 65):
        bases = sender_bases(m)
        assert bases.shape == (2, 2, 2)
        gram = bases @ bases.transpose(0, 2, 1)
        assert np.abs(gram - np.eye(2)).max() <= VECTOR_TOL, m


def test_steering_kit_holds_only_what_sampling_reads():
    probs, posts = build_kit(5)
    assert probs.shape == (2, 2) and probs.dtype == np.float64
    assert posts.shape == (2, 2, 2) and posts.dtype == np.float64
    # Cached and shared, so neither array can be written.
    assert not probs.flags.writeable and not posts.flags.writeable


def test_build_kit_is_cached():
    assert build_kit(3) is build_kit(3)


@pytest.mark.parametrize("m", [1, 2, 4, 7, 16, 32])
def test_p_steer_algebraic_form(m):
    # 1/(1 + sin(2 atan(2**(1/m) - 1))) reduces to this two-power expression.
    algebraic = 1.0 + 2.0 ** ((m - 2) / m) - 2.0 ** ((m - 1) / m)
    assert p_steer(m) == pytest.approx(algebraic, abs=1e-12)


def test_p_steer_known_points():
    assert p_steer(1) == pytest.approx(0.5, abs=1e-15)
    assert p_steer(2) == pytest.approx(2.0 / (2.0 + math.sqrt(2.0)), abs=1e-15)


def test_p_global_steer_is_the_power():
    assert p_global_steer(3, 2) == pytest.approx(p_steer(2) ** 3, rel=1e-12)
    assert p_global_steer(1, 5) == pytest.approx(p_steer(5), rel=1e-15)
    values = [p_global_steer(n, 4) for n in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        p_global_steer(0, 4)


def test_p_abort_frozen_values():
    assert p_abort(8, 8, 11) == pytest.approx(0.03288901594722301, rel=1e-12)
    assert p_abort(4, 4, 11) == pytest.approx(0.023924134114610668, rel=1e-12)
    single = 1.0 - p_global_steer(2, 2)
    assert p_abort(2, 2, 3) == pytest.approx(single ** 3, rel=1e-12)
    with pytest.raises(ValueError):
        p_abort(2, 2, 0)


def test_p_abort_takes_any_int_k():
    # float(10**400) overflows.  As in draw_rounds, a k past FLOAT_K_MAX
    # counts as FLOAT_K_MAX: 0.0 for p_g ~ 0.12, 1.0 once p_g underflows.
    assert p_abort(4, 2, 10**400) == 0.0
    assert p_global_steer(2000, 3) == 0.0
    assert p_abort(2000, 3, 10**400) == 1.0
    assert p_abort(4, 2, 2**1100) == p_abort(4, 2, FLOAT_K_MAX)
    # At p_g ~ 1.3e-308, FLOAT_K_MAX sets are about 1/p_g: the abort rate of
    # draw_rounds at k = 10**400 is p_abort's, within 3 sigma.
    params = SteeringParameters(1787, 3, 10**400, 0.05)
    expected = p_abort(params.n, params.m, params.k)
    assert 0.2 < expected < 0.5
    trials = 4000
    aborted, _ = draw_rounds(params, make_rng(0), trials)
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    assert abs(aborted.mean() - expected) <= 3 * sigma


def test_choose_k_golden_and_minimality():
    assert choose_k(1.0, 0.05) == 11
    for alpha, delta in ((1.0, 0.05), (0.5, 0.05), (0.25, 0.2), (1.0, 0.75)):
        k = choose_k(alpha, delta)
        base = 1.0 - 4.0 ** (-1.0 / alpha)
        assert base ** k <= delta
        if k > 1:
            assert base ** (k - 1) > delta


# Exact k at delta = 0.05, from an 80-digit mpmath evaluation on the exact
# binary value of each float alpha.  Float evaluation of the old formula got
# 0.06, 0.045 and 0.04 wrong and divided by zero from 0.037 down.
CHOOSE_K_REFERENCES = (
    (1.0, 11),
    (0.5, 47),
    (0.1, 3141252),
    (0.05, 3293842468475),
    (0.06, 32421730164),
    (0.045, 71715646292038),
    (0.04, 3372894687719877),
    (0.037, 56026650026081251),
    (0.03, 350888694609641424159),
    (0.02, 3797541814693789449209309818742),
)


@pytest.mark.parametrize("alpha, expected", CHOOSE_K_REFERENCES)
def test_choose_k_matches_exact_reference(alpha, expected):
    assert choose_k(alpha, 0.05) == expected


def test_choose_k_refuses_past_the_digit_cap():
    # k would have about 101 digits at alpha = 0.006, delta = 0.05.
    for alpha in (0.006, 1e-300, 5e-324):
        with pytest.raises(ResourceLimitError):
            choose_k(alpha, 0.05)


def test_choose_k_validation():
    for alpha in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            choose_k(alpha, 0.05)
    for delta in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            choose_k(1.0, delta)


def test_steer_one_statistics_and_posts():
    kit = build_kit(2)
    probs, posts = kit
    rng = make_rng(321)
    trials = 20000
    hits = 0
    for _ in range(trials):
        outcome, post = steer_one(kit, 1, rng)
        assert np.array_equal(post, posts[1, outcome])
        hits += outcome == 0
    p0 = probs[1, 0]
    sigma = math.sqrt(p0 * (1.0 - p0) / trials)
    assert hits / trials == pytest.approx(p0, abs=3 * sigma)
    with pytest.raises(ValueError):
        steer_one(kit, 2, make_rng(0))


def test_steer_one_reproducible():
    kit = build_kit(3)
    first = [steer_one(kit, 0, make_rng(11))[0] for _ in range(5)]
    second = [steer_one(kit, 0, make_rng(11))[0] for _ in range(5)]
    assert first == second


def test_steering_parameters_validation():
    SteeringParameters(4, 2, 5, 0.05)
    with pytest.raises(ValueError):
        SteeringParameters(0, 1, 5, 0.05)
    with pytest.raises(ValueError):
        SteeringParameters(4, 5, 5, 0.05)
    with pytest.raises(ValueError):
        SteeringParameters(4, 2, 0, 0.05)
    with pytest.raises(ValueError):
        SteeringParameters(4, 2, 5, 1.0)


def test_run_steering_round_success_states_match_input_bits():
    params = SteeringParameters(3, 2, 50, 0.05)
    x = BitString.from_string("101")
    theta = critical_angle(2)
    rng = make_rng(5)
    result = run_steering_round(params, x, rng)
    # k=50 makes abort essentially impossible at this seed.
    assert not result.aborted
    assert 0 <= result.set_index < 50
    # A steered set left every pair in its outcome-0 post-state.
    posts = build_kit(2)[1]
    for bit in x:
        assert fidelity(posts[bit, 0],
                        bit_state(bit, theta)) == pytest.approx(1.0, abs=1e-12)


def test_run_steering_round_abort_shape_and_rate():
    params = SteeringParameters(2, 2, 3, 0.5)
    x = BitString.from_string("10")
    rng = make_rng(17)
    trials = 3000
    aborts = 0
    for _ in range(trials):
        result = run_steering_round(params, x, rng)
        if result.aborted:
            assert result.set_index is None
            aborts += 1
    expected = p_abort(2, 2, 3)
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    assert aborts / trials == pytest.approx(expected, abs=3 * sigma)


def test_run_steering_round_checks_input_length():
    params = SteeringParameters(3, 2, 5, 0.05)
    with pytest.raises(ValueError):
        run_steering_round(params, BitString.from_string("10"), make_rng(0))


def test_run_steering_round_reproducible():
    params = SteeringParameters(4, 3, 8, 0.1)
    x = BitString.from_string("0110")
    first = run_steering_round(params, x, make_rng(99))
    second = run_steering_round(params, x, make_rng(99))
    assert first.aborted == second.aborted
    assert first.set_index == second.set_index
    assert isinstance(first, SteeringRoundResult)


def capped_histogram(aborted: np.ndarray, set_index: np.ndarray,
                     k: int) -> np.ndarray:
    """Counts of J = 0 .. k-1, then of aborts, in k + 1 bins."""
    assert (set_index[~aborted] < k).all() and (set_index[aborted] >= k).all()
    return np.bincount(np.where(aborted, k, set_index).astype(np.int64),
                       minlength=k + 1)


def test_draw_rounds_histogram_fits_the_truncated_geometric():
    # P(J = j) = p_g (1 - p_g)**j for j < k, and P(abort) = p_abort.
    n, m, k, rounds = 3, 2, 8, 20000
    aborted, set_index = draw_rounds(SteeringParameters(n, m, k, 0.05),
                                     make_rng(8), rounds)
    assert aborted.shape == set_index.shape == (rounds,)
    counts = capped_histogram(aborted, set_index, k)
    p_g = p_global_steer(n, m)
    expected = rounds * np.array([p_g * (1.0 - p_g) ** j for j in range(k)]
                                 + [p_abort(n, m, k)])
    assert expected.sum() == pytest.approx(rounds, rel=1e-12)
    assert expected.min() >= 10.0
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert chi2_sf(statistic, k) >= THREE_SIGMA_TAIL, statistic


def test_draw_rounds_matches_the_per_pair_round():
    # Two-sample chi-square on the k + 1 bins of J: the closed-form draw and
    # the per-pair reference, each from its own fixed seed.
    params, rounds = SteeringParameters(3, 2, 5, 0.05), 4000
    closed = capped_histogram(*draw_rounds(params, make_rng(30), rounds),
                              params.k)
    rng, x = make_rng(31), BitString.from_string("101")
    per_pair = np.zeros(params.k + 1, dtype=np.int64)
    for _ in range(rounds):
        result = run_steering_round(params, x, rng)
        per_pair[params.k if result.aborted else result.set_index] += 1
    pooled = (closed + per_pair) / 2.0
    assert pooled.min() >= 10.0
    statistic = float((((closed - pooled) ** 2 + (per_pair - pooled) ** 2)
                       / pooled).sum())
    assert chi2_sf(statistic, params.k) >= THREE_SIGMA_TAIL, statistic


def test_draw_rounds_aborts_every_round_once_p_g_underflows():
    assert p_global_steer(2000, 3) == 0.0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        aborted, set_index = draw_rounds(SteeringParameters(2000, 3, 10**6, 0.05),
                                         make_rng(0), 1000)
    assert aborted.all()
    assert not np.isnan(set_index).any()


def test_draw_rounds_takes_any_int_k():
    # float(10**400) overflows; p_g ~ 0.12 keeps every J far below 2**53.
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        aborted, set_index = draw_rounds(SteeringParameters(4, 2, 10**400, 0.05),
                                         make_rng(4), 5000)
    assert not aborted.any()
    assert (set_index >= 0).all() and (set_index < 2**53).all()
    assert (set_index == np.floor(set_index)).all()


def test_draw_rounds_takes_one_variate_per_round():
    rng, twin = make_rng(12), make_rng(12)
    draw_rounds(SteeringParameters(5, 3, 7, 0.05), rng, 100)
    twin.random(100)
    assert rng.random() == twin.random()
