"""Zero-error classical strategies: answer sets, exhaustive optimum, covers.

A classical answer set fixes one excluded answer z_y for every size-m subset
y of positions.  ``brute_force_min_exclusion`` finds the set that rules out
the fewest strings by branch and bound over one canonical set per orbit of
x -> x ^ w, never by the closed form, so it can serve as an independent
check on the closed-form count.  ``build_cover_strategy`` constructs a
concrete zero-error protocol: a small set of message strings such that
every input has a message at Hamming distance at least n - m + 1, chosen
greedily by coverage counts from Krawtchouk transforms on symmetry orbits.
Its ``assignment``, one read-only int64 array of each input's message
index, gives ``exact_information_cost`` the 2**n preimage sizes directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .pbr import BitString, GameParameters
from .qcore import ResourceLimitError, conditional_entropy, fwht

# excluded_count streams one 2**n array per subset; past this n it refuses.
EXCLUDED_COUNT_MAX_N = 20
# Cover construction holds a few dense 2**n vectors.
COVER_MAX_N = 16
# Least greedy rounds times the 2**n inputs that each round visits.
COVER_BUDGET = 1 << 28
# The exhaustive search enumerates (2**m) ** C(n, m) answer sets at worst.
ORACLE_BUDGET = 10**7


def consistent_answer_set(n: int, m: int, a: int) -> tuple[int, ...]:
    """Answer set that excludes the restriction of the n-bit string ``a``
    (an int, MSB first) on every subset: one m-bit int per size-m subset of
    positions 1..n, in the lexicographic order of ``itertools.combinations``,
    as every answer set is ordered."""
    GameParameters(n, m)
    if not 0 <= a < 1 << n:
        raise ValueError(f"a = {a} is not an {n}-bit string")
    return tuple(sum(((a >> (n - p)) & 1) << (m - 1 - j)
                     for j, p in enumerate(y))
                 for y in itertools.combinations(range(1, n + 1), m))


def _restriction_indices(n: int, positions: tuple[int, ...]) -> np.ndarray:
    """For every x in 0..2**n-1, the integer value of x restricted to
    ``positions`` (1-indexed, MSB-first on both sides)."""
    x_all = np.arange(1 << n, dtype=np.int64)
    m = len(positions)
    sel = np.zeros(1 << n, dtype=np.int64)
    for j, p in enumerate(positions):
        sel |= ((x_all >> (n - p)) & 1) << (m - 1 - j)
    return sel


def excluded_count(n: int, m: int, answers: tuple[int, ...]) -> int:
    """Number of strings ruled out by at least one answer of the set, laid
    out as ``consistent_answer_set`` lays it out."""
    GameParameters(n, m)
    if len(answers) != math.comb(n, m):
        raise ValueError(f"need one answer per subset: expected "
                         f"{math.comb(n, m)}, got {len(answers)}")
    if any(type(z) is not int or not 0 <= z < 1 << m for z in answers):
        raise ValueError(f"every answer must be an int in [0, 2**{m})")
    if n > EXCLUDED_COUNT_MAX_N:
        raise ResourceLimitError(
            f"excluded_count supports n <= {EXCLUDED_COUNT_MAX_N}, got {n}"
        )
    hit = np.zeros(1 << n, dtype=bool)
    for y, z in zip(itertools.combinations(range(1, n + 1), m), answers):
        hit |= _restriction_indices(n, y) == z
    return int(hit.sum())


def _canonical_levels(n: int, m: int) -> list[list[tuple[int, int]]]:
    """levels[j] = (z, mask) for every canonical answer z to subset j (in
    lexicographic order), ascending in z, where mask is the bitmask over x
    of the strings excluded by that answer.  An answer is canonical when it
    is 0 at every position of the subset that no earlier subset holds."""
    levels: list[list[tuple[int, int]]] = []
    held = set()
    for y in itertools.combinations(range(1, n + 1), m):
        new = sum(1 << (m - 1 - j) for j, p in enumerate(y) if p not in held)
        held.update(y)
        sel = _restriction_indices(n, y)
        levels.append([
            (z, int.from_bytes(np.packbits(sel == z, bitorder="little")
                               .tobytes(), "little"))
            for z in range(1 << m) if not z & new])
    return levels


def brute_force_min_exclusion(n: int, m: int) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum of excluded strings over all answer sets.

    Returns ``(count, witness)``, the lexicographically first optimum, as
    m-bit ints in ``consistent_answer_set``'s layout.  The search never
    consults any closed-form count: it is one depth-first branch and bound
    over the canonical sets of ``_canonical_levels``, 2**-n of all sets,
    trying answers in ascending order at every depth and cutting a child as
    soon as its union reaches the fewest strings a complete set has excluded
    so far.  Answer 0 is always canonical, so the
    first complete set is the all-zeros one.  Mapping every x to x ^ w sends
    the strings set (z_j) excludes onto those set (z_j ^ w|y_j) excludes,
    so counts are XOR-invariant; flipping a non-canonical optimum's first
    nonzero bit at a new position this way gives a lexicographically smaller
    optimum, so the first one is canonical.
    """
    GameParameters(n, m)
    n_subsets = math.comb(n, m)
    # All answer sets number (2**m) ** C(n, m) = 2**(m * C(n, m)).
    log2_space = m * n_subsets
    if log2_space > math.log2(ORACLE_BUDGET):
        raise ResourceLimitError(
            f"answer-set space 2**{log2_space} exceeds the enumeration "
            f"budget of {ORACLE_BUDGET}"
        )
    if n > EXCLUDED_COUNT_MAX_N:
        raise ResourceLimitError(
            f"the oracle supports n <= {EXCLUDED_COUNT_MAX_N}, got {n}")
    levels = _canonical_levels(n, m)
    last = n_subsets - 1
    choice = [0] * n_subsets
    best_count = (1 << n) + 1
    best_choice: tuple[int, ...] = ()

    def descend(depth: int, union: int) -> None:
        nonlocal best_count, best_choice
        if depth == last:
            for z, mask in levels[depth]:
                count = (union | mask).bit_count()
                if count < best_count:
                    best_count = count
                    choice[depth] = z
                    best_choice = tuple(choice)
            return
        for z, mask in levels[depth]:
            merged = union | mask
            if merged.bit_count() < best_count:
                choice[depth] = z
                descend(depth + 1, merged)

    descend(0, 0)
    return best_count, best_choice


@dataclass(frozen=True, eq=False)
class CoverStrategy:
    """Zero-error messaging strategy: a message list and ``assignment``, the
    index of the message announced on each input x (always one that serves
    x) as an int64 array, plus ``message_bits``, one int8 row of n bits per
    message, MSB first.  Both arrays are read-only, as callers share them."""

    n: int
    m: int
    messages: tuple[BitString, ...]
    assignment: np.ndarray
    message_bits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        GameParameters(self.n, self.m)
        if not self.messages:
            raise ValueError("strategy needs at least one message")
        if any(len(msg) != self.n for msg in self.messages):
            raise ValueError("messages must have length n")
        given = np.asarray(self.assignment)
        if given.shape != (1 << self.n,):
            raise ValueError("assignment must cover all 2**n inputs")
        # numpy reads a bool among ints as 0 or 1, so look at the entries.
        if given.dtype.kind not in "iu" or given is not self.assignment and (
                any(isinstance(i, (bool, np.bool_)) for i in self.assignment)):
            raise ValueError("assignment entries must be integers")
        if given.min() < 0 or given.max() >= len(self.messages):
            raise ValueError("assignment indexes outside the message list")
        indices = given.astype(np.int64)  # a copy, so no caller can write it
        bits = np.array([msg.bits for msg in self.messages], dtype=np.int8)
        # Each input's message XOR the input, in the narrowest n-bit type.
        width = np.min_scalar_type((1 << self.n) - 1)
        announced = (bits @ (1 << np.arange(self.n - 1, -1, -1))).astype(width)
        apart = announced[indices]
        apart ^= np.arange(1 << self.n, dtype=width)
        if np.bitwise_count(apart).min() < self.n - self.m + 1:
            raise ValueError("assignment maps some input to a message that "
                             "does not serve it")
        indices.setflags(write=False)
        bits.setflags(write=False)
        object.__setattr__(self, "assignment", indices)
        object.__setattr__(self, "message_bits", bits)

    # Off the trial path, which indexes the arrays; bound for
    # perfbench/spans.py's tracer and kept for single-input callers.
    def message_for(self, x: BitString) -> BitString:
        return self.messages[self.assignment[x.to_index()]]


def _krawtchouk_tables(n: int) -> np.ndarray:
    """K[q, j, s] = [z**j] (1 - z)**s (1 + z)**(q - s), the Walsh-Hadamard
    transform of the weight-j shell of q <= n bits at any weight-s point
    (MacWilliams and Sloane, The Theory of Error-Correcting Codes, ch. 5)."""
    tables = np.zeros((n + 1, n + 1, n + 1))
    tables[0, 0, 0] = 1.0
    for q in range(n):
        # A new bit multiplies column s by 1 + z, or by 1 - z in the support.
        tables[q + 1, 1:] = tables[q, :-1]
        tables[q + 1] += tables[q]
        tables[q + 1, :, q + 1] = 2 * tables[q, :, q] - tables[q + 1, :, q]
    return tables


def _cell_lattice(cells: list[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Orbits of the permutations inside each cell (a bitmask) as a C-order
    lattice: one |c| + 1 axis per cell of 2+ bits, then one -1 axis over the
    singletons' subsets.  Returns each point's representative, its orbit's
    smallest member (w ones at a cell's w lowest-order bits), and the shape."""
    reps = np.zeros((), dtype=np.int64)
    for cell in sorted(cells, key=lambda c: (c.bit_count() == 1, -c)):
        ones = [1 << b for b in range(cell.bit_length()) if cell >> b & 1]
        reps = np.add.outer(reps, np.cumsum([0] + ones))
    return reps.ravel(), tuple(p for p in reps.shape if p > 2) + (-1,)


def build_cover_strategy(n: int, m: int) -> CoverStrategy:
    """Greedy message cover for (n, m): a covering code of radius m - 1.

    Message a serves input x iff their Hamming distance is at least
    t = n - m + 1, so the unserved inputs u that each candidate covers number
    T(T(u) * T(kernel)) / 2**n, for the Walsh-Hadamard transform T.  The
    chosen messages' supports cut the positions into cells whose
    permutations fix u, so T runs on the lattice of their orbits with
    Krawtchouk tables: the cube itself once all cells are singletons.  Exact
    ties (entries < 2**48) go to the smallest message; each input gets the
    first chosen message that serves it.
    """
    GameParameters(n, m)
    if n > COVER_MAX_N:
        raise ResourceLimitError(
            f"cover construction supports n <= {COVER_MAX_N}, got {n}"
        )
    size = 1 << n
    threshold = n - m + 1
    inputs = np.arange(size, dtype=np.int64)
    # A message serves gamma(n, m) = sum of C(n, i), i < m, inputs, so the
    # cover needs at least ceil(size / gamma) rounds; at m = 1 all 2**n.
    work = -(-size // sum(math.comb(n, i) for i in range(m))) * size
    if work > COVER_BUDGET:
        raise ResourceLimitError(
            f"cover construction at ({n}, {m}) needs at least {work} "
            f"input visits, past the budget of {COVER_BUDGET}"
        )
    tables = _krawtchouk_tables(n)
    kernel_transform = tables[n, threshold:].sum(axis=0)  # by weight

    uncovered = np.ones(size, dtype=bool)
    assignment = np.full(size, -1, dtype=np.int64)
    message_values: list[int] = []
    cells, shape = [size - 1], None

    def transform(values: np.ndarray) -> np.ndarray:
        for axis, points in enumerate(shape[:-1]):
            values = np.matmul(tables[points - 1, :points, :points].T, values
                               .reshape(math.prod(shape[:axis]), points, -1))
        return fwht(values.reshape(shape)).ravel()
    while uncovered.any():
        if shape is None:
            reps, shape = _cell_lattice(cells)
            lattice_kernel = kernel_transform[np.bitwise_count(reps)]
        cube = len(cells) == n
        coverage = transform(transform(uncovered if cube else uncovered[reps])
                             * lattice_kernel)
        message = int(np.argmax(coverage) if cube else
                      reps[coverage == coverage.max()].min())
        served = np.bitwise_count(inputs ^ message) >= threshold
        # An input is first served in the round that covers it.
        assignment[uncovered & served] = len(message_values)
        message_values.append(message)
        uncovered &= ~served
        split = [c & s for c in cells for s in (message, ~message) if c & s]
        if len(split) > len(cells):
            cells, shape = split, None

    return CoverStrategy(
        n, m, tuple(BitString.from_index(v, n) for v in message_values),
        assignment)


def exact_information_cost(strategy: CoverStrategy) -> float:
    """n - H(X | M) for uniform inputs under the strategy's assignment, where
    H(X | M) = sum over messages of (c / 2**n) log2 c for preimage sizes c."""
    return strategy.n - conditional_entropy(np.ones(1 << strategy.n),
                                            strategy.assignment)
