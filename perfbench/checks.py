"""Output checks that feed the benchmark's failed/attempted counts.

Every reference here is computed independently of exclab: exact big
integers for the counting bound up to n = 10**4, a ratio series for larger n,
and the frozen n = 10**6 values of the acceptance criteria 4b and 5b.
"""

from __future__ import annotations

import math
import traceback

# Frozen values at n = 10**6, m = floor(n**0.75) from the suite's own output
# (criterion 4b reports the per-bit classical rate, 5b the quantum bound).
N_FROZEN = 10**6
FROZEN_CLASSICAL_RATE = 0.797551665020
FROZEN_QUANTUM_IC = 0.031133143414
# Both are printed to 12 decimal places, and the report rounds to 12
# significant digits: half a unit of each.
FROZEN_ABS_TOL = 1e-12

EXACT_REFERENCE_MAX_N = 10**4
# Reports carry 12 significant digits.
REL_TOL = 1e-9
# One-sided tail mass of a normal variate beyond 3 sigma; the steering check
# uses the exact binomial tails at this level because at 10-50 expected
# aborts the normal approximation's upper tail is 2-3x heavier than nominal.
THREE_SIGMA_TAIL = 0.5 * math.erfc(3.0 / math.sqrt(2.0))


class Checker:
    """Counts checked items and keeps the first problems of the failed ones."""

    MAX_KEPT = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < self.MAX_KEPT:
                self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems

    def record_exception(self, label: str) -> None:
        self.record(label, [traceback.format_exc(limit=3).strip()])


def m_rule(n: int) -> int:
    """The workloads' m rule, power:0.75."""
    return math.floor(n ** 0.75)


def _gamma_log2_exact(n: int, m: int) -> float:
    total = 0
    term = 1
    for i in range(m):
        total += term
        term = term * (n - i) // (i + 1)
    return math.log2(total)


def _gamma_log2_ratio_series(n: int, m: int) -> float:
    # For m << n/2 the terms C(n, i), i < m, grow geometrically in i, so the
    # sum is C(n, m-1) times a fast-converging series of term ratios.
    log_top = math.lgamma(n + 1) - math.lgamma(m) - math.lgamma(n - m + 2)
    series = 1.0
    ratio = 1.0
    for i in range(m - 1, 0, -1):
        ratio *= i / (n - i + 1)
        series += ratio
        if ratio < 1e-18 * series:
            break
    return (log_top + math.log(series)) / math.log(2.0)


def _quantum_entropy_per_qubit(m: int) -> float:
    # sin^2(theta/2) = t^2 / (1 + t^2) with t = tan(theta/2) = 2**(1/m) - 1.
    t = math.expm1(math.log(2.0) / m)
    s = t * t / (1.0 + t * t)
    return -(s * math.log2(s) + (1.0 - s) * math.log1p(-s) / math.log(2.0))


def bounds_reference(n_values) -> dict[int, tuple[int, float, float]]:
    """n -> (m, gamma_log2, quantum_entropy_upper) for the power:0.75 rule."""
    table = {}
    for n in n_values:
        m = m_rule(n)
        if n <= EXACT_REFERENCE_MAX_N:
            g = _gamma_log2_exact(n, m)
        else:
            g = _gamma_log2_ratio_series(n, m)
        table[n] = (m, g, n * _quantum_entropy_per_qubit(m))
    return table


def _close(value, expected: float, rel: float = REL_TOL,
           scale: float | None = None) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return abs(value - expected) <= rel * (scale if scale is not None
                                           else max(abs(expected), 1e-300))


def bounds_problems(report: dict, reference: dict) -> list[str]:
    rows = report.get("rows", [])
    if [row.get("n") for row in rows] != list(reference):
        return [f"rows for n={[row.get('n') for row in rows]}, "
                f"expected {list(reference)}"]
    problems = []
    for row in rows:
        n = row["n"]
        m, g, qe = reference[n]
        if row.get("m") != m:
            problems.append(f"n={n}: m={row.get('m')}, expected {m}")
            continue
        entropy = row.get("quantum_entropy_upper")
        checks = [
            ("gamma_log2", row.get("gamma_log2"), g, None),
            # The difference n - gamma_log2 inherits gamma_log2's absolute error.
            ("classical_ic_lower", row.get("classical_ic_lower"),
             max(0.0, n - g), max(g, 1.0)),
            ("quantum_ic_upper", row.get("quantum_ic_upper"),
             2.0 * entropy if isinstance(entropy, float) else qe, None),
        ]
        if n <= EXACT_REFERENCE_MAX_N:
            # Past n = 10**4 exclab's H2(1 - s) term loses digits (relative
            # error 5e-9 at n = 10**6, 4e-6 at 10**8), so there the quantum
            # side is held to the frozen n = 10**6 values instead.
            checks.append(("quantum_entropy_upper", entropy, qe, None))
        for name, value, expected, scale in checks:
            if not _close(value, expected, scale=scale):
                problems.append(f"n={n}: {name}={value!r}, expected {expected!r}")
        if n == N_FROZEN:
            rate = row.get("classical_ic_lower", 0.0) / n
            if not _close(rate, FROZEN_CLASSICAL_RATE, FROZEN_ABS_TOL, 1.0):
                problems.append(f"n=10**6 classical rate {rate!r}")
            if not _close(row.get("quantum_ic_upper"), FROZEN_QUANTUM_IC,
                          FROZEN_ABS_TOL, 1.0):
                problems.append(f"n=10**6 quantum bound "
                                f"{row.get('quantum_ic_upper')!r}")
    return problems


def simulate_problems(report: dict, config: dict) -> list[str]:
    """Echoed config, and the zero-error invariant: no non-aborted loss."""
    problems = []
    echoed = report.get("config", {})
    for key, value in config.items():
        if echoed.get(key) != value:
            problems.append(f"config {key}={echoed.get(key)!r}, sent {value!r}")
    stats = report.get("statistics", {})
    trials, wins, aborts = (stats.get(key) for key in ("trials", "wins", "aborts"))
    if trials != config["trials"]:
        problems.append(f"statistics.trials={trials!r}")
    elif wins != trials - aborts:
        problems.append(f"non-aborted loss: wins={wins} trials={trials} "
                        f"aborts={aborts}")
    if config["strategy"] != "entanglement_assisted" and aborts != 0:
        problems.append(f"{aborts} aborts in a strategy that cannot abort")
    entropy = stats.get("empirical_conditional_entropy")
    if config["strategy"] == "classical_cover" and not (
            isinstance(entropy, float) and 0.0 <= entropy <= config["n"]):
        problems.append(f"empirical_conditional_entropy={entropy!r}")
    return problems


def oracle_problems(report: dict, n: int, m: int) -> list[str]:
    expected = (1 << n) - sum(math.comb(n, i) for i in range(m))
    problems = []
    if report.get("pass") is not True:
        problems.append("pass is not true")
    for key in ("min_excluded", "closed_form", "witness_excluded_count"):
        if report.get(key) != expected:
            problems.append(f"{key}={report.get(key)!r}, expected {expected}")
    if report.get("witness_consistent") is not True:
        problems.append("witness is not a consistent answer set")
    return problems


def cover_problems(n: int, m: int, message_values: list[int],
                   assignment: list[int]) -> list[str]:
    """Every input x is announced a message at Hamming distance >= n-m+1."""
    if len(assignment) != 1 << n:
        return [f"assignment covers {len(assignment)} inputs, not 2**{n}"]
    threshold = n - m + 1
    unserved = sum(
        1 for x, index in enumerate(assignment)
        if (x ^ message_values[index]).bit_count() < threshold
    )
    return [f"{unserved} inputs get a message that does not serve them"] \
        if unserved else []


def _binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, p)."""
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(i: int) -> float:
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                        - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)

    lower = sum(pmf(i) for i in range(0, k + 1))
    upper = sum(pmf(i) for i in range(k, n + 1))
    return lower, upper


def abort_rate_problems(aborts: int, trials: int, p_abort: float) -> list[str]:
    """Pooled abort count against p_abort, two-sided at the 3-sigma level."""
    lower, upper = _binomial_tails(aborts, trials, p_abort)
    if min(lower, upper) >= THREE_SIGMA_TAIL:
        return []
    sigma = math.sqrt(p_abort * (1.0 - p_abort) / trials)
    return [f"abort rate {aborts / trials:.5f} vs p_abort {p_abort:.5f} "
            f"(sigma {sigma:.5f}, {trials} trials)"]
