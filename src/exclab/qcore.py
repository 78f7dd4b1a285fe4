"""Shared primitives: the Walsh-Hadamard transform, state vectors, Born
sampling, entropies, RNG, the process pool.

``fwht`` is the one transform of the package, in constant geometry and
bit-identical with the in-place butterfly: the greedy classical cover counts
coverage with it, and ``pbr.exclusion_overlaps`` gets a state's overlap with
every exclusion outcome from it.  VECTOR_TOL bounds quantities formed from
one vector (norms, overlaps), MATRIX_TOL those summed over many entries.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

VECTOR_TOL = 1e-12
MATRIX_TOL = 1e-10


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds a configured enumeration or size budget."""


def usable_workers(requested: int, jobs: int) -> int:
    """Pool size: the request, capped by the usable CPUs and by ``jobs``."""
    if requested < 1:
        raise ValueError(f"workers must be >= 1, got {requested}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is Linux-only
        cpus = os.cpu_count() or 1
    return min(requested, cpus, jobs)


def pool_map(workers: int, fn, *iterables) -> list:
    """``fn`` over ``iterables`` as a list in input order: in this process
    when ``workers == 1``, else over a pool of ``workers`` processes."""
    if workers == 1:
        return list(map(fn, *iterables))
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *iterables))


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Build a counter-based generator from an integer seed or a SeedSequence.

    Philox is used throughout so that independent substreams can be split off
    with ``Generator.spawn`` without any risk of stream overlap.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def fwht(vec) -> np.ndarray:
    """H @ v along the last axis, as float64, for the Sylvester matrix H (a
    Kronecker power of [[1, 1], [1, -1]]): unnormalized, self-inverse up to
    1/size.  Constant geometry (Pease, J. ACM 15, 252 (1968)): stage k puts
    the sums and differences of adjacent entries in the two halves of a
    second buffer, the pairs of the in-place butterfly of span 2**k (Fino
    and Algazi, IEEE Trans. Comput. C-25 (1976)), so both agree bit for bit."""
    v = np.array(vec, dtype=np.float64)
    size = v.shape[-1]
    if size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    out = np.empty_like(v)
    for _ in range(size.bit_length() - 1):
        even, odd = v[..., 0::2], v[..., 1::2]
        np.add(even, odd, out=out[..., :size // 2])
        np.subtract(even, odd, out=out[..., size // 2:])
        v, out = out, v
    return v


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


def born_measure(state: StateVector, kets: np.ndarray,
                 rng: np.random.Generator) -> int:
    """Index of one outcome of the measurement whose kets are the rows of
    ``kets``: one variate against the cumulative Born probabilities, whose
    total must be 1 within MATRIX_TOL (so kets that are not unit or not
    complete on ``state`` are refused)."""
    if kets.shape[-1] != state.dim:
        raise ValueError(f"dimension mismatch: {state.dim} vs {kets.shape[-1]}")
    # <k_i|state> = conj((kets @ conj(state))_i): no conjugated matrix.
    cumulative = np.cumsum(np.abs(kets @ state.amplitudes.conj()) ** 2)
    total = cumulative[-1]
    if not abs(total - 1.0) <= MATRIX_TOL:  # NaN fails too
        raise ValueError(f"outcome probabilities sum to {total!r}, not 1")
    index = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
    return min(index, len(cumulative) - 1)


def binary_entropy(p: float) -> float:
    """H2(p) = -p*log2(p) - (1-p)*log2(1-p), with H2(0) = H2(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def conditional_entropy(counts, labels) -> float:
    """H(X | f(X)) in bits, where x_i was seen c_i = ``counts[i]`` times and
    f(x_i) = ``labels[i]`` >= 0: -sum_i (c_i / N) log2(c_i / C_f(x_i)), with
    C_f the total count of label f.  No (x, f(x)) joint is formed."""
    counts, labels = np.asarray(counts, dtype=np.float64), np.asarray(labels)
    if counts.ndim != 1 or counts.shape != labels.shape:
        raise ValueError("need one label per count, both one-dimensional")
    if not counts.min(initial=0.0) >= 0.0:
        raise ValueError("counts must be nonnegative")
    seen = counts > 0.0
    if not seen.any():
        raise ValueError("counts must have positive total")
    counts, labels = counts[seen], labels[seen]
    per_label = np.bincount(labels, weights=counts)
    value = float(-(counts / counts.sum()
                    * np.log2(counts / per_label[labels])).sum())
    # Roundoff can leave a tiny negative residue when H(X|M) is exactly 0.
    return 0.0 if abs(value) < MATRIX_TOL else value
