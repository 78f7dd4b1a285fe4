"""Exact information-cost bounds for the exclusion game.

A zero-error classical message must let the receiver exclude the restriction
of the sender's string on every size-m subset.  Any one message therefore
leaves at most gamma(n, m) = sum_{i<m} C(n, i) strings possible, which gives
the lower bound n - log2(gamma) on the information cost of any classical
strategy.  On the quantum side, sending the n-qubit product encoding costs at
most n * H2(sin^2(theta_m / 2)) bits of entropy, and the information cost of
the quantum strategy is at most twice that.  The gap between the two is the
separation tabulated by ``separation_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .pbr import GameParameters, _as_ints, critical_angle
from .qcore import ResourceLimitError, binary_entropy

# Largest n for which gamma is returned as an exact integer; beyond this the
# log-domain path must be used.
EXACT_GAMMA_MAX_N = 64
# Largest n the log-domain path accepts: near m = n/2 a row needs about
# 4.6*sqrt(n) terms, some 5 million (about a second) at this n.
BOUNDS_MAX_N = 10**12
_Size = NamedTuple("_Size", [("n", int), ("m", int)])  # checked by a table's rule


@dataclass(frozen=True)
class MRule:
    """Rule mapping n to the subset size m used in a separation table.

    ``power:c`` takes m = floor(n**c); ``linear:a`` takes m = floor(a*n).
    """

    kind: str
    value: float

    _KINDS = ("power", "linear")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}, got {self.kind!r}")
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"rule value must lie in (0, 1], got {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> MRule:
        kind, sep, raw = text.partition(":")
        if not sep:
            raise ValueError(f"rule must look like 'power:0.75', got {text!r}")
        return cls(kind, float(raw))

    def apply(self, n: int) -> int:
        if n < 1:  # refused before n meets a power; a row checks (n, m) once
            GameParameters(n, 1)
        m = math.floor(n ** self.value if self.kind == "power" else self.value * n)
        if not 1 <= m <= n:
            raise ValueError(f"rule {self.kind}:{self.value} gives m={m} at n={n}")
        return m


def gamma(n: int, m: int) -> int:
    """Exact count of strings one zero-error message cannot exclude.

    Equals sum_{i=0}^{m-1} C(n, i): the strings within Hamming distance m-1
    of the message.  Exact integers only up to n = EXACT_GAMMA_MAX_N; past
    it, ``bounds_row`` gives log2 gamma.
    """
    if not 1 <= m <= n:  # built only to refuse: a bounds row checked (n, m)
        GameParameters(n, m)
    if n > EXACT_GAMMA_MAX_N:
        raise ResourceLimitError(
            f"exact gamma supports n <= {EXACT_GAMMA_MAX_N}; use bounds_row"
        )
    return sum(map(math.comb, [n] * m, range(m)))


def _refuse_past_cap(n_values: Sequence[int]) -> None:
    for n in n_values:
        if n > BOUNDS_MAX_N:
            raise ResourceLimitError(f"bounds support n <= {BOUNDS_MAX_N}, got {n}")


def _series_log2(n: int, m: int) -> tuple[float, float]:
    """(log2 gamma, n - log2 gamma) for 64 < n <= BOUNDS_MAX_N: sum C(n, i),
    i < m, down from C(n, m-1) in steps rho = i/(n-i+1).

    rho shrinks as i falls, so term*rho/(1-rho) bounds the rest (criterion
    4b's bracket); the sum stops when that is below 2**-60 of it, after 8-15
    terms under power:0.75 and ~4.6*sqrt(n) near m = n/2.  Past m - 1 = n/2
    the terms would grow first, so 2**n - gamma(n, n-m+1) is summed instead.
    """
    _refuse_past_cap((n,))
    complement = 2 * (m - 1) > n
    j = n - m if complement else m - 1
    series = term = 1.0
    for i in range(j, 0, -1):
        rho = i / (n - i + 1)
        term *= rho
        series += term
        if term * rho < 2.0**-60 * series * (1.0 - rho):
            break
    log_series = math.log(series)
    # ln(C(n, j) series / 2**n): n - log2 gamma would keep only ulp(n).
    fraction = _log_comb_fraction(n, j) + log_series
    if complement:
        rest = -math.log1p(-math.exp(fraction)) / math.log(2.0)
        return n - rest, rest
    return (_log_comb(n, j) + log_series) / math.log(2.0), -fraction / math.log(2.0)


def _log_comb(n: int, k: int) -> float:
    """ln C(n, k) for 2k <= n, n > 64, by Stirling's series for n!/(n-k)!.

    lgamma(n+1) - lgamma(n-k+1) would leave log2 gamma a relative error of
    2e-13 (at n = 2000, m = 2 and at n = 10**12); this form keeps 1e-15 up
    to n = 10**18.
    """
    u = math.log1p(-k / n)
    return (k * math.log(n) - (n - k + 0.5) * u - k + _stirling_remainder(n)
            - _stirling_remainder(n - k) - math.lgamma(k + 1))


def _log_comb_fraction(n: int, k: int) -> float:
    """ln(C(n, k) / 2**n) for 2k <= n, n > 64; from k = 32 on, Stirling's
    -n D(k/n) - ln(2 pi k(n-k)/n)/2 + remainders, with the divergence from
    1/2, D(p) = p ln 2p + (1-p) ln 2(1-p), formed by log1p(+-(2k-n)/n)."""
    if k < 32:
        return _log_comb(n, k) - n * math.log(2.0)
    p, delta = k / n, (2 * k - n) / n
    divergence = p * math.log1p(delta) + (1.0 - p) * math.log1p(-delta)
    return (-n * divergence - 0.5 * math.log(2.0 * math.pi * (k * (n - k) / n))
            + _stirling_remainder(n) - _stirling_remainder(k)
            - _stirling_remainder(n - k))


def _stirling_remainder(x: int) -> float:
    # ln x! - (x ln x - x + ln(2 pi x)/2); the next term is < 2.4e-17 at x >= 32.
    y = 1.0 / (x * x)
    return (1 / 12 - (1 / 360 - (1 / 1260 - y / 1680) * y) * y) / x


def _per_qubit_entropy(m: int) -> float:
    """H2(sin^2(theta_m / 2)), the entropy budget of one encoded qubit.

    The equal mixture of the two bit states has eigenvalues cos^2(theta_m/2)
    and sin^2(theta_m/2), so each qubit carries at most H2 of that pair.  The
    sine form is evaluated because at large m the cosine eigenvalue sits next
    to 1 and would lose digits to cancellation inside the entropy.
    """
    return binary_entropy(math.sin(0.5 * critical_angle(m)) ** 2)


class BoundsRow(NamedTuple):
    """One row of a separation table; field names match the CSV columns."""

    n: int
    m: int
    gamma_log2: float
    classical_ic_lower: float
    quantum_entropy_upper: float
    quantum_ic_upper: float


def bounds_row(params: GameParameters, per_qubit: float | None = None) -> BoundsRow:
    """All four bounds of one size; per_qubit, if given, is _per_qubit_entropy(m).

    log2 gamma comes from exact integers up to EXACT_GAMMA_MAX_N, then from a
    log-domain tail sum; an n past BOUNDS_MAX_N raises ResourceLimitError.
    Once gamma passes 2**(n-1), n - log2 gamma would keep only ulp(n), so the
    classical bound is -log2(1 - (2**n - gamma) / 2**n).  The quantum strategy
    costs at most twice the n qubits' entropy budget.
    """
    n, m = params.n, params.m
    if n > EXACT_GAMMA_MAX_N:
        log2_gamma, lower = _series_log2(n, m)
    else:
        count, size = gamma(n, m), 1 << n
        log2_gamma = math.log2(count)
        lower = (n - log2_gamma if 2 * count <= size
                 else -math.log1p(-(size - count) / size) / math.log(2.0))
    entropy = n * (_per_qubit_entropy(m) if per_qubit is None else per_qubit)
    return BoundsRow(n, m, log2_gamma, lower, entropy, 2.0 * entropy)


def separation_table(n_values: Iterable[int], rule: MRule) -> tuple[BoundsRow, ...]:
    """Bound rows for each n with m drawn from ``rule``, in input order.

    An empty ``n_values`` yields an empty table (downstream, a header-only
    CSV), not an error.  An n past BOUNDS_MAX_N or one the rule refuses stops
    the table before any row is computed; ``rule.apply`` checks each (n, m) once.
    """
    n_values = _as_ints(n_values)
    _refuse_past_cap(n_values)
    sizes = [_Size(n, rule.apply(n)) for n in n_values]
    per_qubit = {m: _per_qubit_entropy(m) for m in {size.m for size in sizes}}
    return tuple([bounds_row(size, per_qubit=per_qubit[size.m]) for size in sizes])
