"""Conjugate-code preparation states and the product exclusion measurement.

A bit b is encoded at angle theta as the qubit state

    |psi_0> = (cos(theta/2), sin(theta/2)),
    |psi_1> = (cos(theta/2), -sin(theta/2)),

and a length-m bit string as the tensor product of its bit states.  The
exclusion measurement on m qubits has one outcome vector zeta_z per string z,
built so that observing z certifies the preparation was not z.  Perfect
exclusion (<zeta_z|Psi_z> = 0 for every z) happens exactly at the critical
angle returned by ``critical_angle``.

The Born law in closed form (Pusey, Barrett and Rudolph, Nat. Phys. 8, 475
(2012)).  zeta_z has amplitude (2[s = 0] - (-1)**(z.s))/sqrt(2**m) at basis
string s, so with c = cos(theta/2), t = tan(theta/2) and d = |z xor w|,

    sqrt(2**m) <zeta_z|Psi_w> = 2 c**m - c**m (1 + t)**(m - d) (1 - t)**d
                              = c**m (1 + t)**m (2 (1 + t)**-m - r**d),

where r = (1 - t)/(1 + t).  At the critical angle (1 + t)**m = 2, so the
amplitude is proportional to 1 - r**d and vanishes at d = 0 only.  Summing
C(m, d) (1 - r**d)**2 over d gives Z = 2**m - 2 (1 + r)**m + (1 + r**2)**m,
so the outcome's distance from the truth has P(d) = C(m, d) (1 - r**d)**2 / Z,
shared evenly by the C(m, d) outcomes at that distance.  ``measure_exclusion``
samples this law for a block of truths at once; the dense
``exclusion_measurement`` is its oracle, and ``measure_exclusion_dense``
applies it to a state that need not be a product encoding, such as the
receiver's steered qubits.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np
from scipy.linalg import hadamard

from .qcore import (
    RankOneMeasurement,
    ResourceLimitError,
    StateVector,
    born_measure,
)

# Hard cap on qubits handled by dense product states and measurements.  The
# measurement's 16 * 4**m bytes of kets are 1 GiB at 13 qubits, 4 GiB at 14.
MAX_QUBITS = 13


@dataclass(frozen=True)
class BitString:
    """Immutable bit string with 1-indexed access and MSB-first integer value.

    Position 1 is the leftmost (most significant) bit, so
    ``BitString.from_string("110").to_index() == 6``.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if not bits:
            raise ValueError("bit string must be nonempty")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits!r}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> BitString:
        return cls(tuple(int(c) for c in text))

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
        return "".join(str(b) for b in self.bits)

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
        indices = tuple(int(i) for i in self.indices)
        if not indices:
            raise ValueError("subset must be nonempty")
        if indices[0] < 1 or any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError("indices must be strictly increasing and >= 1")
        object.__setattr__(self, "indices", indices)

    @classmethod
    def all_subsets(cls, n: int, m: int) -> tuple[IndexSubset, ...]:
        """All size-m subsets of {1..n} in lexicographic order.

        Materialized so callers can iterate repeatedly; sizes are bounded by
        the enumeration caps of the callers themselves.
        """
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        return tuple(cls(combo)
                     for combo in itertools.combinations(range(1, n + 1), m))


def critical_angle(m: int) -> float:
    """Angle at which the length-m exclusion measurement becomes perfect.

    Solves tan(theta/2) = 2**(1/m) - 1; decreasing in m, pi/2 at m=1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return 2.0 * math.atan(2.0 ** (1.0 / m) - 1.0)


def bit_state(bit: int, angle: float) -> StateVector:
    """Single-qubit encoding of ``bit`` at ``angle``."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    if not 0.0 < angle < math.pi:
        raise ValueError(f"angle {angle!r} outside (0, pi)")
    half = 0.5 * angle
    sign = 1.0 if bit == 0 else -1.0
    return StateVector(np.array([math.cos(half), sign * math.sin(half)]), 1)


def product_state(x: BitString, angle: float) -> StateVector:
    """Tensor product of the bit states of ``x``, bit 1 most significant."""
    if len(x) > MAX_QUBITS:
        raise ResourceLimitError(
            f"product state on {len(x)} qubits exceeds the cap of {MAX_QUBITS}"
        )
    amps = np.array([1.0])
    for b in x.bits:
        amps = np.kron(amps, bit_state(b, angle).amplitudes.real)
    return StateVector(amps, len(x))


def exclusion_vector(z: BitString) -> StateVector:
    """Outcome vector zeta_z of the m-qubit exclusion measurement.

    In the computational basis indexed by strings s, the amplitude is
    +1/sqrt(2**m) at s = 0...0 and -(-1)**(z.s)/sqrt(2**m) elsewhere, where
    z.s is the parity of the bitwise AND.
    """
    m = len(z)
    if m > MAX_QUBITS:
        raise ResourceLimitError(
            f"exclusion vector on {m} qubits exceeds the cap of {MAX_QUBITS}"
        )
    dim = 1 << m
    z_index = z.to_index()
    s_values = np.arange(dim)
    parities = np.bitwise_count(s_values & z_index) & 1
    amps = -np.where(parities == 1, -1.0, 1.0)
    amps[0] = 1.0
    return StateVector(amps / math.sqrt(dim), m)


_measurement_cache: dict[int, RankOneMeasurement] = {}
_measurement_lock = threading.Lock()


def exclusion_measurement(m: int) -> RankOneMeasurement:
    """Complete m-qubit measurement whose outcome z excludes preparation z.

    All 2**m outcome kets in one closed form: the rows of the Sylvester
    Hadamard matrix give the parities (-1)**(z.s), so the complex128 ket
    matrix is -H/sqrt(2**m) with the s=0 column flipped back to +1/sqrt(2**m);
    H is built as int8 so that the kets are the only large array.  Rows are
    orthonormal, which the RankOneMeasurement constructor re-verifies for
    dimensions up to its completeness-check cap.  Instances are cached per m.
    """
    if not 1 <= m <= MAX_QUBITS:
        raise ResourceLimitError(
            f"exclusion measurement needs 1 <= m <= {MAX_QUBITS}, got {m}"
        )
    with _measurement_lock:
        cached = _measurement_cache.get(m)
        if cached is not None:
            return cached
        dim = 1 << m
        kets = np.empty((dim, dim), dtype=np.complex128)
        np.divide(hadamard(dim, dtype=np.int8), -math.sqrt(dim), out=kets)
        kets[:, 0] = 1.0 / math.sqrt(dim)
        labels = tuple(BitString.from_index(z, m) for z in range(dim))
        measurement = RankOneMeasurement(kets, labels)
        _measurement_cache[m] = measurement
        return measurement


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
    1 - r**d as -expm1(d log r), so P(0) is exactly 0.0 (r = 0 at m = 1); the
    weights are formed in the log domain, where C(m, d) cannot overflow.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    t = math.expm1(math.log(2.0) / m)
    log_r = math.log1p(-t) - math.log1p(t) if m > 1 else -math.inf
    one_minus_r_d = np.zeros(m + 1)
    one_minus_r_d[1:] = -np.expm1(np.arange(1, m + 1) * log_r)
    log_fact = np.array([math.lgamma(k + 1) for k in range(m + 1)])
    with np.errstate(divide="ignore"):
        log_w = (log_fact[m] - log_fact - log_fact[::-1]
                 + 2.0 * np.log(one_minus_r_d))
    weights = np.exp(log_w - log_w.max())
    cdf = np.cumsum(weights)
    probabilities = weights / cdf[-1]
    cdf /= cdf[-1]
    probabilities.setflags(write=False)
    cdf.setflags(write=False)
    return probabilities, cdf


def measure_exclusion(truth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample the exclusion measurement on the product encoding of each row of
    the (rows, m) 0/1 int8 array ``truth`` at the critical angle; returns the
    outcomes as a like array, no row of which equals its truth row.

    One uniform variate per row picks the distance d by inverse CDF
    (side="right" skips every d of probability 0); then the d smallest of m
    uniform keys per row, taken by rank, are a uniform set of d positions to
    flip.
    """
    rows, m = truth.shape
    cdf = distance_distribution(m)[1]
    d = np.searchsorted(cdf, rng.random(rows), side="right")
    ranks = rng.random((rows, m)).argsort(axis=1).argsort(axis=1)
    return truth ^ (ranks < d[:, None])


def measure_exclusion_dense(state: StateVector,
                            rng: np.random.Generator) -> BitString:
    """Born-sample the dense exclusion measurement on ``state`` itself, for up
    to MAX_QUBITS qubits; the label rules out one preparation string."""
    return born_measure(state, exclusion_measurement(state.qubit_count), rng)
