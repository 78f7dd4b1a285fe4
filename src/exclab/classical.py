"""Zero-error classical strategies: answer sets, exhaustive optimum, covers.

A classical answer set fixes one excluded answer z_y for every size-m subset
y of positions.  ``brute_force_min_exclusion`` searches all answer sets for
the one that rules out the fewest strings, entirely by enumeration, so it can
serve as an independent check on the closed-form count.  ``build_cover_
strategy`` constructs a concrete zero-error protocol: a small set of message
strings such that every input has a message at Hamming distance at least
n - m + 1, found greedily with coverage counts evaluated through a
Walsh-Hadamard transform.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .pbr import BitString, IndexSubset, restrict
from .qcore import (
    ProbabilityDistribution,
    ResourceLimitError,
    conditional_entropy,
    usable_workers,
)

# excluded_count streams one 2**n array per subset; past this n it refuses.
EXCLUDED_COUNT_MAX_N = 20
# Cover construction holds a few dense 2**n vectors.
COVER_MAX_N = 16
# The exhaustive search enumerates (2**m) ** C(n, m) answer sets at worst.
ORACLE_BUDGET = 10**7


@dataclass(frozen=True)
class AnswerSet:
    """One excluded answer per size-m subset, aligned with lexicographic
    subset order (``IndexSubset.all_subsets``)."""

    n: int
    m: int
    answers: tuple[BitString, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        expected = math.comb(self.n, self.m)
        if len(self.answers) != expected:
            raise ValueError(
                f"need one answer per subset: expected {expected}, "
                f"got {len(self.answers)}"
            )
        if any(len(z) != self.m for z in self.answers):
            raise ValueError("every answer must have length m")


def consistent_answer_set(a: BitString, m: int) -> AnswerSet:
    """Answer set that excludes the restriction of ``a`` on every subset."""
    n = len(a)
    answers = tuple(restrict(a, y) for y in IndexSubset.all_subsets(n, m))
    return AnswerSet(n, m, answers)


def _restriction_indices(n: int, positions: tuple[int, ...]) -> np.ndarray:
    """For every x in 0..2**n-1, the integer value of x restricted to
    ``positions`` (1-indexed, MSB-first on both sides)."""
    x_all = np.arange(1 << n, dtype=np.int64)
    m = len(positions)
    sel = np.zeros(1 << n, dtype=np.int64)
    for j, p in enumerate(positions):
        sel |= ((x_all >> (n - p)) & 1) << (m - 1 - j)
    return sel


def excluded_count(answer_set: AnswerSet) -> int:
    """Number of strings ruled out by at least one answer of the set."""
    n, m = answer_set.n, answer_set.m
    if n > EXCLUDED_COUNT_MAX_N:
        raise ResourceLimitError(
            f"excluded_count supports n <= {EXCLUDED_COUNT_MAX_N}, got {n}"
        )
    hit = np.zeros(1 << n, dtype=bool)
    for y, z in zip(IndexSubset.all_subsets(n, m), answer_set.answers):
        sel = _restriction_indices(n, y.indices)
        hit |= sel == z.to_index()
    return int(hit.sum())


def _answer_masks(n: int, m: int) -> list[list[int]]:
    """masks[j][z] = bitmask over x of strings excluded when subset j (in
    lexicographic order) is answered with z."""
    masks: list[list[int]] = []
    for y in IndexSubset.all_subsets(n, m):
        sel = _restriction_indices(n, y.indices)
        per_z = []
        for z in range(1 << m):
            bits = np.zeros(1 << n, dtype=np.uint8)
            bits[sel == z] = 1
            packed = np.packbits(bits, bitorder="little").tobytes()
            per_z.append(int.from_bytes(packed, "little"))
        masks.append(per_z)
    return masks


def _branch_minimum(masks: list[list[int]], first_z: int,
                    limit: int) -> tuple[int, tuple[int, ...]] | None:
    """Depth-first minimum over answer sets starting with ``first_z``,
    recording only sets that exclude strictly fewer than ``limit`` strings.

    Answers are tried in ascending order at every depth and a branch is cut
    as soon as its union already reaches the current limit, so the returned
    witness is the lexicographically first optimum below the initial limit.
    """
    n_subsets = len(masks)
    choice = [0] * n_subsets
    choice[0] = first_z
    best: tuple[int, tuple[int, ...]] | None = None
    count_limit = limit

    def descend(depth: int, union: int, count: int) -> None:
        nonlocal best, count_limit
        if count >= count_limit:
            return
        if depth == n_subsets:
            count_limit = count
            best = (count, tuple(choice))
            return
        for z, mask in enumerate(masks[depth]):
            merged = union | mask
            choice[depth] = z
            descend(depth + 1, merged, merged.bit_count())

    start = masks[0][first_z]
    descend(1, start, start.bit_count())
    return best


def brute_force_min_exclusion(n: int, m: int,
                              workers: int = 1) -> tuple[int, AnswerSet]:
    """Exhaustive minimum of excluded strings over all answer sets.

    Returns ``(count, witness)``.  The search never consults any closed-form
    count: it starts from the measured exclusion count of one concrete
    candidate (all answers zero, consistent with the all-zeros string) and
    branch-and-bounds below it.  The space is partitioned on the first
    subset's answer; partitions are searched independently and merged in
    ascending answer order, so serial and parallel runs return identical
    results.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    n_subsets = math.comb(n, m)
    # Search space is (2**m) ** C(n, m) = 2**(m * C(n, m)) answer sets.
    log2_space = m * n_subsets
    if log2_space > math.log2(ORACLE_BUDGET):
        raise ResourceLimitError(
            f"answer-set space 2**{log2_space} exceeds the enumeration "
            f"budget of {ORACLE_BUDGET}"
        )
    masks = _answer_masks(n, m)

    baseline_union = 0
    for per_z in masks:
        baseline_union |= per_z[0]
    baseline = baseline_union.bit_count()

    jobs = list(range(1 << m))
    workers = usable_workers(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_branch_minimum,
                                    itertools.repeat(masks),
                                    jobs,
                                    itertools.repeat(baseline)))
    else:
        results = [_branch_minimum(masks, z, baseline) for z in jobs]

    best_count = baseline
    best_choice = tuple(0 for _ in range(n_subsets))
    for result in results:
        if result is not None and result[0] < best_count:
            best_count, best_choice = result

    witness = AnswerSet(
        n, m, tuple(BitString.from_index(z, m) for z in best_choice)
    )
    return best_count, witness


@dataclass(frozen=True, eq=False)
class CoverStrategy:
    """Zero-error messaging strategy: a message list plus, for every input x,
    the index of the message announced on x (always one that serves x).
    Validation also keeps both as arrays: ``assignment_array`` (int64) and
    ``message_bits`` (int8, one row of n bits per message, MSB first)."""

    n: int
    m: int
    messages: tuple[BitString, ...]
    assignment: tuple[int, ...]
    assignment_array: np.ndarray = field(init=False, repr=False)
    message_bits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if not self.messages:
            raise ValueError("strategy needs at least one message")
        if any(len(msg) != self.n for msg in self.messages):
            raise ValueError("messages must have length n")
        if len(self.assignment) != 1 << self.n:
            raise ValueError("assignment must cover all 2**n inputs")
        indices = np.asarray(self.assignment, dtype=np.int64)
        if indices.min() < 0 or indices.max() >= len(self.messages):
            raise ValueError("assignment indexes outside the message list")
        msg_values = np.array([msg.to_index() for msg in self.messages],
                              dtype=np.int64)
        x_all = np.arange(1 << self.n, dtype=np.int64)
        distance = np.bitwise_count(x_all ^ msg_values[indices])
        if distance.min() < self.n - self.m + 1:
            raise ValueError("assignment maps some input to a message that "
                             "does not serve it")
        shifts = np.arange(self.n - 1, -1, -1)
        object.__setattr__(self, "assignment_array", indices)
        object.__setattr__(self, "message_bits",
                           ((msg_values[:, None] >> shifts) & 1).astype(np.int8))

    # Off the trial path, which indexes the arrays; bound for
    # perfbench/spans.py's tracer and kept for single-input callers.
    def message_for(self, x: BitString) -> BitString:
        return self.messages[self.assignment[x.to_index()]]


def _fwht(vec: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform (unnormalized, self-inverse up to 1/size)."""
    v = vec.astype(np.float64)
    size = v.size
    h = 1
    while h < size:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h]
        right = v[:, h:]
        v = np.hstack((left + right, left - right))
        h *= 2
    return v.ravel()


def build_cover_strategy(n: int, m: int) -> CoverStrategy:
    """Greedy message cover for the exclusion game on (n, m).

    Message a serves input x iff their Hamming distance is at least
    t = n - m + 1, an XOR-invariant relation, so the number of still-unserved
    inputs each candidate message would cover is the XOR correlation of the
    uncovered indicator with the distance->=t kernel; one Walsh-Hadamard
    transform per round evaluates it for all 2**n candidates at once.  Ties
    go to the numerically smallest message, and every input is assigned the
    first chosen message that serves it, so the construction is fully
    deterministic.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if n > COVER_MAX_N:
        raise ResourceLimitError(
            f"cover construction supports n <= {COVER_MAX_N}, got {n}"
        )
    size = 1 << n
    threshold = n - m + 1
    inputs = np.arange(size, dtype=np.int64)
    popcounts = np.bitwise_count(inputs)
    kernel_transform = _fwht((popcounts >= threshold).astype(np.float64))

    uncovered = np.ones(size, dtype=bool)
    assignment = np.full(size, -1, dtype=np.int64)
    message_values: list[int] = []
    while uncovered.any():
        correlation = _fwht(_fwht(uncovered.astype(np.float64))
                            * kernel_transform) / size
        candidate = int(np.argmax(np.rint(correlation)))
        served = popcounts[inputs ^ candidate] >= threshold
        # An input is first served in the round that covers it.
        assignment[uncovered & served] = len(message_values)
        message_values.append(candidate)
        uncovered &= ~served

    return CoverStrategy(
        n,
        m,
        tuple(BitString.from_index(v, n) for v in message_values),
        tuple(int(i) for i in assignment),
    )


def exact_information_cost(strategy: CoverStrategy) -> float:
    """n - H(X | M) for uniform inputs under the strategy's assignment."""
    size = 1 << strategy.n
    joint = np.zeros((size, len(strategy.messages)), dtype=np.float64)
    joint[np.arange(size), np.asarray(strategy.assignment)] = 1.0 / size
    return strategy.n - conditional_entropy(ProbabilityDistribution(joint))
