"""Shared primitives: state vectors, rank-one measurements, entropies, RNG.

Everything downstream (state preparation, exclusion measurements, steering,
the Monte Carlo harness) is built on the small set of objects defined here.
Numerical contracts are pinned by two tolerances: VECTOR_TOL for quantities
formed from a single vector (norms, overlaps) and MATRIX_TOL for quantities
that accumulate over a full matrix (completeness sums, entropy identities).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Single-vector checks (norms, overlaps, probabilities from one amplitude).
VECTOR_TOL = 1e-12
# Accumulated checks (completeness sums, Gram matrices, distribution totals
# built from many entries).
MATRIX_TOL = 1e-10

# Completeness of a measurement is verified eagerly only up to this dimension;
# above it the quadratic-memory Gram check is skipped.
COMPLETENESS_CHECK_MAX_DIM = 1024


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds a configured enumeration or size budget."""


def usable_workers(requested: int, jobs: int) -> int:
    """Pool size: the request, capped by the usable CPUs and by ``jobs``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is Linux-only
        cpus = os.cpu_count() or 1
    return max(1, min(requested, cpus, jobs))


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Build a counter-based generator from an integer seed or a SeedSequence.

    Philox is used throughout so that independent substreams can be split off
    with ``Generator.spawn`` without any risk of stream overlap.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm pure state on ``qubit_count`` qubits, basis ordered MSB-first.

    Amplitudes are stored as an immutable complex128 array of length
    2**qubit_count; deviation of the norm from 1 beyond VECTOR_TOL is a
    construction error, so every StateVector in the system is trustworthy.
    """

    amplitudes: np.ndarray
    qubit_count: int

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be one-dimensional")
        if self.qubit_count < 0 or amps.size != 1 << self.qubit_count:
            raise ValueError(
                f"amplitude length {amps.size} does not match "
                f"2**{self.qubit_count}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > VECTOR_TOL:
            raise ValueError(f"state vector norm {norm!r} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.qubit_count


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; qubits of ``a`` become the most significant ones."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes),
                       a.qubit_count + b.qubit_count)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product <a|b> (conjugate-linear in ``a``)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


@dataclass(frozen=True, eq=False)
class RankOneMeasurement:
    """Projective measurement given by an orthonormal family of unit kets.

    Row i of the complex128 matrix ``kets`` is the ket of outcome
    ``labels[i]``; a complex128 input is frozen in place, not copied.  The
    matrix must be 2-D with a power-of-two width, unit rows within VECTOR_TOL
    and one label per row; up to COMPLETENESS_CHECK_MAX_DIM the outcome
    projectors must also sum to the identity within MATRIX_TOL entrywise.
    """

    kets: np.ndarray
    labels: tuple

    def __post_init__(self) -> None:
        kets = np.asarray(self.kets, dtype=np.complex128)
        if kets.ndim != 2 or kets.shape[0] == 0:
            raise ValueError("kets must be a nonempty two-dimensional array")
        dim = kets.shape[1]
        if dim == 0 or dim & (dim - 1):
            raise ValueError(f"ket dimension {dim} is not a power of two")
        if len(self.labels) != kets.shape[0]:
            raise ValueError("labels and kets differ in length")
        # Row norms via the real and imaginary views: no matrix-sized temporary.
        norms = np.sqrt(np.einsum("ij,ij->i", kets.real, kets.real)
                        + np.einsum("ij,ij->i", kets.imag, kets.imag))
        if not np.abs(norms - 1.0).max() <= VECTOR_TOL:  # NaN fails too
            raise ValueError("kets must have unit norm")
        if dim <= COMPLETENESS_CHECK_MAX_DIM:
            gram = kets.T @ kets.conj()
            if not np.allclose(gram, np.eye(dim), rtol=0.0, atol=MATRIX_TOL):
                raise ValueError("outcome projectors do not sum to identity")
        kets.setflags(write=False)
        object.__setattr__(self, "kets", kets)

    def outcome_probabilities(self, state: StateVector) -> np.ndarray:
        """Born probabilities |<k_i|state>|**2 for every outcome at once."""
        dim = self.kets.shape[1]
        if state.dim != dim:
            raise ValueError(f"dimension mismatch: {state.dim} vs {dim}")
        # <k_i|state> = conj((kets @ conj(state))_i): no conjugated matrix.
        return np.abs(self.kets @ state.amplitudes.conj()) ** 2


def born_measure(state: StateVector, measurement: RankOneMeasurement,
                 rng: np.random.Generator):
    """Label of one outcome of ``measurement`` on ``state``: one variate against
    the cumulative Born probabilities, whose total must be 1 within MATRIX_TOL."""
    cumulative = np.cumsum(measurement.outcome_probabilities(state))
    total = cumulative[-1]
    if abs(total - 1.0) > MATRIX_TOL:
        raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
    index = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
    return measurement.labels[min(index, len(cumulative) - 1)]


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Validated probability weights; may be any shape (1-D, joint 2-D, ...)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        if w.size == 0:
            raise ValueError("distribution needs at least one weight")
        if float(w.min()) < 0.0 or float(w.max()) > 1.0:
            raise ValueError("weights must lie in [0, 1]")
        total = float(w.sum())
        if abs(total - 1.0) > MATRIX_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_counts(cls, counts) -> ProbabilityDistribution:
        c = np.asarray(counts, dtype=np.float64)
        total = c.sum()
        if total <= 0:
            raise ValueError("counts must have positive total")
        return cls(c / total)


def binary_entropy(p: float) -> float:
    """H2(p) = -p*log2(p) - (1-p)*log2(1-p), with H2(0) = H2(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def shannon_entropy(dist: ProbabilityDistribution) -> float:
    """Entropy in bits of the flattened distribution."""
    w = dist.weights.ravel()
    positive = w[w > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def conditional_entropy(joint: ProbabilityDistribution) -> float:
    """H(X | M) in bits for a joint 2-D distribution with X rows, M columns.

    Computed as -sum_{x,m} p(x,m) log2( p(x,m) / p(m) ), skipping zero cells,
    which is exactly sum_m p(m) H(X | M=m) but in one numerically tame pass.
    """
    w = joint.weights
    if w.ndim != 2:
        raise ValueError("joint distribution must be two-dimensional")
    marginal = w.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(w > 0.0, w / marginal, 1.0)
        terms = np.where(w > 0.0, w * np.log2(ratio), 0.0)
    value = float(-terms.sum())
    # Roundoff can leave a tiny negative residue when H(X|M) is exactly 0.
    return 0.0 if abs(value) < MATRIX_TOL else value
