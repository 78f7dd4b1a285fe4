"""Entanglement-steering protocol with abort.

For each input bit the sender holds one half of the two-qubit state
a0|00> + a1|11> and measures it in one of two bases, S for bit 0 and R for
bit 1.  Outcome 0 steers the receiver's half exactly onto the bit state at
the critical angle; outcome 1 steers it onto a fixed conjugate state
(|-> under S, |+> under R) carrying no usable signal.  A round succeeds when
all n pairs of one shared set give outcome 0; the parties burn through at
most k sets before aborting.  The per-pair success probability p_steer and
its n-fold product p_g fix the abort budget, and ``choose_k`` inverts that
budget into the smallest workable k.  ``draw_rounds`` draws the first
steered set of each round in closed form; ``run_steering_round``, pair by
pair, is its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal, localcontext
from functools import lru_cache

import numpy as np

from .pbr import BitString, GameParameters, critical_angle
from .qcore import ResourceLimitError

# choose_k refuses a k of more decimal digits than this; it keeps every
# alpha above about 0.006 at delta = 0.05.
CHOOSE_K_MAX_DIGITS = 100
# A float64 set index J counts as >= any k past this one.
FLOAT_K_MAX = 2**1023


def sender_bases(m: int) -> np.ndarray:
    """(2, 2, 2) array of the sender's bases at the critical angle: row o of
    ``bases[bit]`` is outcome o's ket in S (bit 0) or R (bit 1).  Row 0 of S
    is the pair amplitudes (a0, a1), which theta alone fixes."""
    theta = critical_angle(m)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    a0 = math.sqrt(0.5 * (1.0 + cos_t / (1.0 + sin_t)))
    a1 = math.sqrt(0.5 * (1.0 - cos_t / (1.0 + sin_t)))
    return np.array([[[a0, a1], [a1, -a0]], [[a0, -a1], [a1, a0]]])


@lru_cache(maxsize=None)
def build_kit(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(probs, posts)`` at the critical angle for subset size m:
    ``probs[bit, o]`` is the chance of sender outcome o and ``posts[bit, o]``
    the receiver's real post-state.  Projecting the sender's half of
    a0|00> + a1|11> onto ket s leaves the receiver s * (a0, a1), unnormalized.
    Nothing is verified here: the ``steering`` command recomputes the
    steering identities as residuals.
    """
    bases = sender_bases(m)
    receiver = bases * bases[0, 0]
    probs = (receiver**2).sum(-1)
    posts = receiver / np.sqrt(probs)[..., None]
    probs.setflags(write=False)
    posts.setflags(write=False)
    return probs, posts


def steer_one(kit: tuple[np.ndarray, np.ndarray], bit: int,
              rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Measure the sender's half for one bit with ``kit = build_kit(m)``;
    returns (outcome, receiver post-state).

    Consumes exactly one uniform variate.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    probs, posts = kit
    outcome = 0 if rng.random() < probs[bit, 0] else 1
    return outcome, posts[bit, outcome]


def p_steer(m: int) -> float:
    """Per-pair probability of the steering outcome, 1/(1 + sin(theta_m))."""
    return 1.0 / (1.0 + math.sin(critical_angle(m)))


def p_global_steer(n: int, m: int) -> float:
    """Probability that all n pairs of one set steer, p_steer(m)**n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.exp(n * math.log(p_steer(m)))


def p_abort(n: int, m: int, k: int) -> float:
    """Probability every one of the k sets fails, (1 - p_global)**k, under
    the abort rule of ``draw_rounds``: a k past FLOAT_K_MAX counts as
    FLOAT_K_MAX, so such a k gives 0.0, or 1.0 when p_g underflows."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.exp(min(k, FLOAT_K_MAX) * math.log1p(-p_global_steer(n, m)))


def choose_k(alpha: float, delta: float) -> int:
    """Smallest k with (1 - 4**(-1/alpha))**k <= delta.

    4**(-1/alpha) lower-bounds the global steering probability whenever
    m = alpha * n exactly, so k sets suffice to keep the abort probability
    at or below delta uniformly over such n.

    k is computed from the exact binary values of alpha and delta in decimal
    arithmetic with over 100 guard digits past those of k and of 1/q, where
    q = 4**(-1/alpha), so ln(1 - q) is as precise as log1p(-q), and then
    checked to be minimal.  A k of over CHOOSE_K_MAX_DIGITS digits raises
    ResourceLimitError.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    # k is about -ln(delta) / q, so log10(k) is about this.
    k_digits = math.log10(-math.log(delta)) + math.log10(4.0) / alpha
    if k_digits > CHOOSE_K_MAX_DIGITS:
        raise ResourceLimitError(
            f"choose_k({alpha!r}, {delta!r}) needs a k of about "
            f"{k_digits:.3g} digits, past the cap of {CHOOSE_K_MAX_DIGITS}"
        )
    with localcontext() as ctx:
        # 1 - q spends log10(1/q) <= CHOOSE_K_MAX_DIGITS + 16 digits before
        # those of q (delta <= 1 - 2**-53); k needs CHOOSE_K_MAX_DIGITS more.
        ctx.prec = 3 * CHOOSE_K_MAX_DIGITS + 20
        q = (-Decimal(4).ln() / Decimal(alpha)).exp()
        log_base = (1 - q).ln()
        log_delta = Decimal(delta).ln()
        ratio = log_delta / log_base
        k = max(1, int(ratio.to_integral_value(rounding=ROUND_CEILING)))
        while k * log_base > log_delta:
            k += 1
        while k > 1 and (k - 1) * log_base <= log_delta:
            k -= 1
    return k


@dataclass(frozen=True)
class SteeringParameters:
    """Protocol shape: n bits per set, angle from m, k sets, abort budget."""

    n: int
    m: int
    k: int
    delta: float

    def __post_init__(self) -> None:
        GameParameters(self.n, self.m)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")


@dataclass(frozen=True, eq=False)
class SteeringRoundResult:
    """Outcome of one round: the first fully steered set's index, or abort."""

    aborted: bool
    set_index: int | None


def run_steering_round(params: SteeringParameters, x: BitString,
                       rng: np.random.Generator) -> SteeringRoundResult:
    """Burn through up to k shared sets trying to steer all n bits of x.

    Within a set, pairs are measured in bit order and the set is abandoned at
    the first non-steering outcome, so failed sets consume only as many
    variates as pairs actually measured.  The reference of ``draw_rounds``.
    """
    if len(x) != params.n:
        raise ValueError(f"x has length {len(x)}, expected n={params.n}")
    kit = build_kit(params.m)
    for set_index in range(params.k):
        if all(steer_one(kit, bit, rng)[0] == 0 for bit in x):
            return SteeringRoundResult(False, set_index)
    return SteeringRoundResult(True, None)


def draw_rounds(params: SteeringParameters, rng: np.random.Generator,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """Abort flags and first steered set indices J of ``size`` rounds of
    ``params``, read for its n, m and k only (game passes its GameConfig).

    Sets steer independently with p_g = p_global_steer(n, m), so one uniform
    U per round gives the geometric J = floor(ln(1 - U) / ln(1 - p_g)) by
    inversion (Devroye 1986, ch. X).  A round aborts iff J >= k, for any int
    k; J is float64 and counts as >= k past FLOAT_K_MAX.  When p_g
    underflows to 0.0 every round aborts.
    """
    log_fail = math.log1p(-p_global_steer(params.n, params.m))
    u = rng.random(size)
    if log_fail == 0.0:
        return np.ones(size, dtype=bool), np.full(size, math.inf)
    with np.errstate(over="ignore"):
        set_index = np.floor(np.log1p(-u) / log_fail)
    return set_index >= min(params.k, FLOAT_K_MAX), set_index
