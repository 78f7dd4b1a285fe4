"""Conjugate-code preparation states and the exclusion measurement.

A bit b is encoded at angle theta as the qubit state

    |psi_0> = (cos(theta/2), sin(theta/2)),
    |psi_1> = (cos(theta/2), -sin(theta/2)),

and a length-m bit string as the tensor product of its bit states.  The
exclusion measurement on m qubits has one outcome vector zeta_z per string z,
built so that observing z certifies the preparation was not z.  Perfect
exclusion (<zeta_z|Psi_z> = 0 for every z) happens exactly at the critical
angle returned by ``critical_angle``.

The measurement is one Walsh-Hadamard transform (Pusey, Barrett and
Rudolph, Nat. Phys. 8, 475 (2012)).  zeta_z has amplitude
(2[s = 0] - (-1)**(z.s))/sqrt(2**m) at basis string s, and (-1)**(z.s) is
entry (z, s) of the Sylvester matrix H, so for real amplitudes Psi all 2**m
overlaps sqrt(2**m) <zeta_z|Psi> = 2 Psi(0) - (H Psi)_z come from one
``qcore.fwht``.  On the product encoding Psi_w, with c = cos(theta/2),
t = tan(theta/2) and d = |z xor w|,

    sqrt(2**m) <zeta_z|Psi_w> = 2 c**m - c**m (1 + t)**(m - d) (1 - t)**d
                              = c**m (1 + t)**m (2 (1 + t)**-m - r**d),

where r = (1 - t)/(1 + t).  At the critical angle (1 + t)**m = 2, so the
amplitude is proportional to 1 - r**d and vanishes at d = 0 only.  Summing
C(m, d) (1 - r**d)**2 over d gives Z = 2**m - 2 (1 + r)**m + (1 + r**2)**m,
so the outcome's distance from the truth has P(d) = C(m, d) (1 - r**d)**2 / Z,
shared evenly by the C(m, d) outcomes at that distance.  Sampling an outcome
for a block of truths takes two steps: ``sample_distance`` draws d, one
uniform per row, and ``flip_positions`` flips d uniform positions, m keys
per row.  P(0) = 0, so a trial's win is fixed by d alone, and the game runs
the flip step only to write transcripts.  ``verify-pbr`` checks the law
against the transform, and the tests check the transform against the dense
``exclusion_measurement``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .qcore import ResourceLimitError, StateVector, fwht
# Unused here; bound for perfbench/spans.py's tracer (ROADMAP item 1).
from .qcore import born_measure  # noqa: F401

# Cap on qubits of 2**m-amplitude states: 16 MiB of complex128 at 20 qubits.
MAX_QUBITS = 20
# Cap on the dense measurement, whose 8 * 4**m bytes of kets are 512 MiB at
# 13 qubits and 2 GiB at 14.
DENSE_MAX_QUBITS = 13


@dataclass(frozen=True)
class GameParameters:
    """Problem size of one exclusion game: string length n, subset size m."""

    n: int
    m: int

    def __post_init__(self) -> None:
        n, m = _as_ints((self.n, self.m))
        if n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")


def _as_ints(values) -> tuple[int, ...]:
    """``values`` as Python ints by ``operator.index``, in C: no float."""
    try:
        return tuple(map(operator.index, values.tolist() if isinstance(
            values, np.ndarray) else values))
    except TypeError:
        raise ValueError(f"{values!r:.60} holds a non-integer") from None


@dataclass(frozen=True)
class BitString:
    """Immutable bit string with 1-indexed access and MSB-first integer value.

    Position 1 is the leftmost (most significant) bit, so
    ``BitString.from_string("110").to_index() == 6``.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = _as_ints(self.bits)
        if not bits:
            raise ValueError("bit string must be nonempty")
        if not {0, 1}.issuperset(bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits!r}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> BitString:
        return cls(np.frombuffer(text.encode(), np.uint8) - ord("0"))

    @classmethod
    def from_index(cls, value: int, length: int) -> BitString:
        if length < 1:
            raise ValueError("length must be at least 1")
        if not 0 <= value < 1 << length:
            raise ValueError(f"index {value} out of range for length {length}")
        return cls(tuple((value >> (length - 1 - i)) & 1 for i in range(length)))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(map("01".__getitem__, self.bits))

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def bit(self, position: int) -> int:
        """Bit at 1-indexed ``position`` (1 = leftmost)."""
        if not 1 <= position <= len(self.bits):
            raise ValueError(f"position {position} out of range 1..{len(self.bits)}")
        return self.bits[position - 1]

    def to_index(self) -> int:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value


@dataclass(frozen=True)
class IndexSubset:
    """Nonempty set of 1-indexed positions, stored strictly increasing."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = _as_ints(self.indices)
        if not indices:
            raise ValueError("subset must be nonempty")
        if indices[0] < 1 or not all(map(operator.lt, indices, indices[1:])):
            raise ValueError("indices must be strictly increasing and >= 1")
        object.__setattr__(self, "indices", indices)


def _check_qubits(m: int, what: str, cap: int = MAX_QUBITS) -> None:
    """Refuse work on 2**m amplitudes unless 1 <= m <= cap."""
    if not 1 <= m <= cap:
        raise ResourceLimitError(
            f"{what} on {m} qubits is outside the cap of 1..{cap}")


def critical_angle(m: int) -> float:
    """Angle at which the length-m exclusion measurement becomes perfect.

    Solves tan(theta/2) = 2**(1/m) - 1; decreasing in m, pi/2 at m=1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return 2.0 * math.atan(2.0 ** (1.0 / m) - 1.0)


def product_state(x: BitString, angle: float) -> StateVector:
    """Tensor product of the bit states of ``x``, bit 1 most significant:
    bit b is encoded as (cos(angle/2), (-1)**b sin(angle/2)), 0 < angle < pi.
    """
    _check_qubits(len(x), "product state")
    if not 0.0 < angle < math.pi:
        raise ValueError(f"angle {angle!r} outside (0, pi)")
    half = 0.5 * angle
    encodings = ((math.cos(half), math.sin(half)),
                 (math.cos(half), -math.sin(half)))
    amps = np.array([1.0])
    for b in x.bits:
        amps = np.kron(amps, encodings[b])
    return StateVector(amps, len(x))


def exclusion_overlaps(amplitudes) -> np.ndarray:
    """<zeta_z|Psi> for every outcome z, along the last axis of the real
    amplitudes Psi: (2 Psi(0) - (H Psi)_z) / sqrt(2**m) (module docstring)."""
    amps = np.asarray(amplitudes, dtype=np.float64)
    return (2.0 * amps[..., :1] - fwht(amps)) / math.sqrt(amps.shape[-1])


def exclusion_measurement(m: int) -> np.ndarray:
    """Read-only float64 (2**m, 2**m) matrix whose row z is zeta_z:
    -H/sqrt(2**m) for the Sylvester matrix H, built as int8 so that the kets
    are the only large array, with the s=0 column flipped back to positive.
    Uncached: the dense oracle of ``exclusion_overlaps``, off the trial path.
    """
    _check_qubits(m, "exclusion measurement", DENSE_MAX_QUBITS)
    dim = 1 << m
    sylvester = np.ones((1, 1), dtype=np.int8)
    for _ in range(m):
        sylvester = np.kron(sylvester, np.array([[1, 1], [1, -1]], np.int8))
    kets = sylvester / -math.sqrt(dim)
    kets[:, 0] = 1.0 / math.sqrt(dim)
    kets.setflags(write=False)
    return kets


def restrict(x: BitString, y: IndexSubset) -> BitString:
    """Substring of ``x`` at the positions of ``y``, in increasing order."""
    if y.indices[-1] > len(x):
        raise ValueError(
            f"subset index {y.indices[-1]} exceeds string length {len(x)}"
        )
    return BitString(tuple(x.bit(i) for i in y.indices))


@lru_cache(maxsize=None)
def distance_distribution(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (P, CDF) over d = 0..m of the exclusion outcome's distance
    from the truth (module docstring).  t is formed as expm1(log(2)/m) and
    1 - r**d as -expm1(d log r), so P(0) is exactly 0.0 (r = 0 at m = 1).
    C(m, d) / C(m, m//2) is the product of the ratios (m-d)/(d+1) =
    C(m, d+1) / C(m, d) (or their inverses) taken outward from the middle:
    no factor exceeds 1, and each costs one rounding, where lgamma terms of
    size m ln m would leave P(d) a relative error of 1e-10 at m = 10**5.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    t = math.expm1(math.log(2.0) / m)
    log_r = math.log1p(-t) - math.log1p(t) if m > 1 else -math.inf
    one_minus_r_d = np.zeros(m + 1)
    one_minus_r_d[1:] = -np.expm1(np.arange(1, m + 1) * log_r)
    d = np.arange(m, dtype=np.float64)
    half = m // 2
    comb = np.ones(m + 1)
    comb[half + 1:] = np.cumprod((m - d[half:]) / (d[half:] + 1.0))
    comb[:half] = np.cumprod(((d[:half] + 1.0) / (m - d[:half]))[::-1])[::-1]
    weights = comb * one_minus_r_d**2
    cdf = np.cumsum(weights)
    probabilities = weights / cdf[-1]
    cdf /= cdf[-1]
    probabilities.setflags(write=False)
    cdf.setflags(write=False)
    return probabilities, cdf


def sample_distance(m: int, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Distances d >= 1 of ``rows`` length-m exclusion outcomes from their
    truths, one uniform each by inverse CDF (side="right" skips P(d) = 0)."""
    return np.searchsorted(distance_distribution(m)[1], rng.random(rows),
                           side="right")


def flip_positions(truth: np.ndarray, d: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Row i of the (rows, m) 0/1 ``truth`` with d[i] uniform positions
    flipped, in its dtype: the d[i] smallest of m uniform keys, by rank."""
    ranks = rng.random(truth.shape).argsort(axis=1).argsort(axis=1)
    return truth ^ (ranks < d[:, None])


def measure_exclusion(truth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sampled exclusion outcomes of the product encodings of the rows of
    ``truth`` at the critical angle: both steps, d and then the flips."""
    m = truth.shape[1]
    return flip_positions(truth, sample_distance(m, rng, len(truth)), rng)
