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
from dataclasses import asdict, dataclass
from typing import Sequence

from .pbr import critical_angle
from .qcore import ResourceLimitError, binary_entropy

# Largest n for which gamma is returned as an exact integer; beyond this the
# log-domain path must be used.
EXACT_GAMMA_MAX_N = 64
# Largest n the log-domain path accepts: near m = n/2 a row needs about
# 4.6*sqrt(n) terms, some 5 million (about a second) at this n.
BOUNDS_MAX_N = 10**12


@dataclass(frozen=True)
class GameParameters:
    """Problem size of one exclusion game: string length n, subset size m."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")


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
        if self.kind == "power":
            m = math.floor(n ** self.value)
        else:
            m = math.floor(self.value * n)
        if not 1 <= m <= n:
            raise ValueError(f"rule {self.kind}:{self.value} gives m={m} at n={n}")
        return m


def gamma(n: int, m: int) -> int:
    """Exact count of strings one zero-error message cannot exclude.

    Equals sum_{i=0}^{m-1} C(n, i): the strings within Hamming distance m-1
    of the message.  Exact integers only up to n = EXACT_GAMMA_MAX_N; larger
    instances must go through ``gamma_log2``.
    """
    GameParameters(n, m)
    if n > EXACT_GAMMA_MAX_N:
        raise ResourceLimitError(
            f"exact gamma supports n <= {EXACT_GAMMA_MAX_N}; use gamma_log2"
        )
    return sum(math.comb(n, i) for i in range(m))


def gamma_log2(n: int, m: int) -> float:
    """log2 of gamma(n, m): exact integers up to EXACT_GAMMA_MAX_N, then a
    log-domain tail sum; an n past BOUNDS_MAX_N raises ResourceLimitError."""
    GameParameters(n, m)
    if n <= EXACT_GAMMA_MAX_N:
        return math.log2(gamma(n, m))
    _refuse_past_cap((n,))
    return _gamma_log2_series(n, m)


def _refuse_past_cap(n_values: Sequence[int]) -> None:
    for n in n_values:
        if n > BOUNDS_MAX_N:
            raise ResourceLimitError(f"bounds support n <= {BOUNDS_MAX_N}, got {n}")


def _gamma_log2_series(n: int, m: int) -> float:
    """Sum C(n, i), i < m, down from C(n, m-1) in steps rho = i/(n-i+1).

    rho shrinks as i falls, so term*rho/(1-rho) bounds the rest (criterion
    4b's bracket); the sum stops when that is below 2**-60 of it, after 8-15
    terms under power:0.75 and ~4.6*sqrt(n) near m = n/2.  Past m - 1 = n/2
    the terms would grow first, so 2**n - gamma(n, n-m+1) is summed instead.
    """
    complement = 2 * (m - 1) > n
    j = n - m if complement else m - 1
    series = term = 1.0
    for i in range(j, 0, -1):
        rho = i / (n - i + 1)
        term *= rho
        series += term
        if term * rho < 2.0**-60 * series * (1.0 - rho):
            break
    log2_sum = (_log_comb(n, j) + math.log(series)) / math.log(2.0)
    if complement:
        return n + math.log1p(-(2.0 ** (log2_sum - n))) / math.log(2.0)
    return log2_sum


def _log_comb(n: int, k: int) -> float:
    """ln C(n, k) for 2k <= n, n > 64, by Stirling's series for n!/(n-k)!.

    lgamma(n+1) - lgamma(n-k+1) would leave gamma_log2 a relative error of
    2e-13 (at n = 2000, m = 2 and at n = 10**12); this form keeps 1e-15 up
    to n = 10**18.
    """
    u = math.log1p(-k / n)
    return (k * math.log(n) - (n - k + 0.5) * u - k + _stirling_remainder(n)
            - _stirling_remainder(n - k) - math.lgamma(k + 1))


def _stirling_remainder(x: int) -> float:
    # ln x! - (x ln x - x + ln(2 pi x)/2); the next term is < 2.4e-17 at x >= 32.
    y = 1.0 / (x * x)
    return (1 / 12 - (1 / 360 - (1 / 1260 - y / 1680) * y) * y) / x


def classical_ic_lower_bound(params: GameParameters) -> float:
    """n - log2(gamma): information any zero-error classical message carries."""
    return max(0.0, params.n - gamma_log2(params.n, params.m))


def quantum_message_entropy_upper(params: GameParameters) -> float:
    """Entropy budget of the n-qubit product encoding at the critical angle.

    The equal mixture of the two bit states has eigenvalues cos^2(theta_m/2)
    and sin^2(theta_m/2), so each qubit carries at most H2 of that pair.  The
    sine form is evaluated because at large m the cosine eigenvalue sits next
    to 1 and would lose digits to cancellation inside the entropy.
    """
    half = 0.5 * critical_angle(params.m)
    return params.n * binary_entropy(math.sin(half) ** 2)


def quantum_ic_upper_bound(params: GameParameters) -> float:
    """Information cost of the quantum strategy: at most twice the entropy."""
    return 2.0 * quantum_message_entropy_upper(params)


@dataclass(frozen=True)
class BoundsRow:
    """One row of a separation table; field names match the CSV columns."""

    n: int
    m: int
    gamma_log2: float
    classical_ic_lower: float
    quantum_entropy_upper: float
    quantum_ic_upper: float

    def to_dict(self) -> dict:
        return asdict(self)


def bounds_row(params: GameParameters) -> BoundsRow:
    """All four bound quantities for one game size."""
    return BoundsRow(
        n=params.n,
        m=params.m,
        gamma_log2=gamma_log2(params.n, params.m),
        classical_ic_lower=classical_ic_lower_bound(params),
        quantum_entropy_upper=quantum_message_entropy_upper(params),
        quantum_ic_upper=quantum_ic_upper_bound(params),
    )


def separation_table(n_values: Sequence[int], rule: MRule) -> tuple[BoundsRow, ...]:
    """Bound rows for each n with m drawn from ``rule``, in input order.

    An empty ``n_values`` yields an empty table (downstream, a header-only
    CSV), not an error.  An n past BOUNDS_MAX_N is refused before any row is
    computed.
    """
    _refuse_past_cap(n_values)
    return tuple(bounds_row(GameParameters(n, rule.apply(n))) for n in n_values)
