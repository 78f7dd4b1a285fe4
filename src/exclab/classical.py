"""Zero-error classical strategies: answer sets, exhaustive optimum, covers.

A classical answer set fixes one excluded answer z_y for every size-m subset
y of positions.  ``brute_force_min_exclusion`` finds the set that rules out
the fewest strings by branch and bound over one canonical set per orbit of
x -> x ^ w, never by the closed form, so it can serve as an independent
check on the closed-form count.  It and ``excluded_count`` hold the strings
an answer excludes as an int bitset over the 2**n strings: the AND of one
position bitset per answer bit.  ``build_cover_strategy`` constructs a
concrete zero-error protocol: a small set of message strings such that
every input has a message at Hamming distance at least n - m + 1, chosen
greedily by coverage counts from Krawtchouk transforms on symmetry orbits.
The greedy's state, and the strategy it returns, live on those orbits too:
an input's orbit is indexed by its weight on each cell.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import gamma
from .pbr import BitString, GameParameters
from .qcore import ResourceLimitError, fwht

# Cap on n for excluded_count and the oracle, which hold 2n 2**n-bit masks.
EXCLUDED_COUNT_MAX_N = 20
# Cover construction holds a few dense 2**n vectors.
COVER_MAX_N = 16
# Least greedy rounds times 2**n: many-round covers run nearly every round
# on the cube, or on lattices close to its size.
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


def _position_pairs(n: int) -> list[tuple[int, int]]:
    """(strings with a 0, with a 1) at each position 1..n: int bitsets, bit x
    for string x, each built by shift-and-OR doubling in O(2**n) time."""
    pairs = []
    for half in (1 << (n - p) for p in range(1, n + 1)):
        ones = ((1 << half) - 1) << half
        while (width := ones.bit_length()) < 1 << n:
            ones |= ones << width
        pairs.append((ones >> half, ones))
    return pairs


def _answer_mask(pairs: list, y: tuple[int, ...], z: int) -> int:
    """Bitset of the strings whose restriction to ``y`` is the m-bit z."""
    mask = -1
    for p in reversed(y):
        mask &= pairs[p - 1][z & 1]
        z >>= 1
    return mask


def excluded_count(n: int, m: int, answers: tuple[int, ...]) -> int:
    """Number of strings ruled out by at least one answer of the set, laid
    out as ``consistent_answer_set`` lays it out."""
    GameParameters(n, m)
    if n > EXCLUDED_COUNT_MAX_N:  # first: C(n, m) grows without bound
        raise ResourceLimitError(
            f"excluded_count supports n <= {EXCLUDED_COUNT_MAX_N}, got {n}")
    if len(answers) != math.comb(n, m):
        raise ValueError(f"need one answer per subset: expected "
                         f"{math.comb(n, m)}, got {len(answers)}")
    if any(type(z) is not int or not 0 <= z < 1 << m for z in answers):
        raise ValueError(f"every answer must be an int in [0, 2**{m})")
    pairs = _position_pairs(n)
    hit = 0
    for y, z in zip(itertools.combinations(range(1, n + 1), m), answers):
        hit |= _answer_mask(pairs, y, z)
    return hit.bit_count()


def _canonical_levels(n: int, m: int) -> list[list[tuple[int, int]]]:
    """levels[j] = (z, mask) for every canonical answer z to subset j (in
    lexicographic order), ascending in z, where mask is the int bitset of
    the strings z excludes, m ANDs of position bitsets.  An answer is
    canonical when it is 0 at every position no earlier subset holds."""
    pairs = _position_pairs(n)
    levels: list[list[tuple[int, int]]] = []
    held = set()
    for y in itertools.combinations(range(1, n + 1), m):
        new = sum(1 << (m - 1 - j) for j, p in enumerate(y) if p not in held)
        held.update(y)
        levels.append([(z, _answer_mask(pairs, y, z))
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
    if n > EXCLUDED_COUNT_MAX_N:  # first: C(n, m) grows without bound
        raise ResourceLimitError(
            f"the oracle supports n <= {EXCLUDED_COUNT_MAX_N}, got {n}")
    n_subsets = math.comb(n, m)
    # All answer sets number (2**m) ** C(n, m) = 2**(m * C(n, m)).
    log2_space = m * n_subsets
    if log2_space > math.log2(ORACLE_BUDGET):
        raise ResourceLimitError(
            f"answer-set space 2**{log2_space} exceeds the enumeration "
            f"budget of {ORACLE_BUDGET}")
    levels = _canonical_levels(n, m)
    choice = [0] * n_subsets
    best_count = (1 << n) + 1
    best_choice: tuple[int, ...] = ()

    def descend(depth: int, union: int) -> None:
        nonlocal best_count, best_choice
        if depth == n_subsets:
            best_count, best_choice = union.bit_count(), tuple(choice)
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
    """Zero-error messaging strategy on an orbit lattice: messages, cells
    (bitmasks) partitioning the n positions, and ``first``, the message index
    at each lattice point.  ``values`` holds each message's MSB-first value,
    ``assignment``, built when first read, each input's message index, read
    from ``first`` at the input's lattice index: all three are read-only
    int64 arrays, as callers share them."""

    n: int
    m: int
    messages: tuple[BitString, ...]
    cells: tuple[int, ...]
    first: np.ndarray
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        GameParameters(self.n, self.m)
        if not self.messages or any(len(a) != self.n for a in self.messages):
            raise ValueError("need one or more messages, of length n")
        cells = tuple(self.cells)
        # A sum has as many ones as its summands only when none overlap.
        if (any(type(c) is not int or c <= 0 for c in cells)
                or sum(c.bit_count() for c in cells) != self.n
                or sum(cells) != (1 << self.n) - 1):
            raise ValueError("cells must partition the n positions")
        reps, _ = _cell_lattice(list(cells))
        given = np.asarray(self.first)
        if given.shape != reps.shape:
            raise ValueError("first needs one entry per lattice point")
        # numpy reads a bool among ints as 0 or 1, so look at the entries.
        if (given.dtype.kind not in "iu" or given.min() < 0
                or given.max() >= len(self.messages) or given is not self.first
                and any(isinstance(i, (bool, np.bool_)) for i in self.first)):
            raise ValueError("first entries must be integers < len(messages)")
        indices = given.astype(np.int64)  # a copy, so no caller can write it
        values = np.array([a.to_index() for a in self.messages], np.int64)
        # A message constant on every cell is as far from all of a point's
        # orbit as from its representative: checking that covers all 2**n.
        part = np.bitwise_and.outer(values, cells)
        if not ((part == 0) | (part == cells)).all():
            raise ValueError("some message cuts a cell")
        apart = values.astype(np.int32)[indices]  # as narrow as reps
        apart ^= reps
        if np.bitwise_count(apart).min() < self.n - self.m + 1:
            raise ValueError("some point's message does not serve it")
        indices.setflags(write=False)
        values.setflags(write=False)
        vars(self).update(cells=cells, first=indices, values=values)

    @functools.cached_property
    def assignment(self) -> np.ndarray:
        inputs = np.arange(1 << self.n, dtype=np.int32)  # as narrow as reps
        table = self.first[_lattice_index(inputs, list(self.cells))]
        table.setflags(write=False)
        return table

    # Off the trial path, which indexes the arrays; perfbench wraps it.
    def message_for(self, x: BitString) -> BitString:
        if len(x) != self.n:
            raise ValueError(f"input has length {len(x)}, not n = {self.n}")
        return self.messages[
            self.first[_lattice_index(x.to_index(), list(self.cells))]]


def _krawtchouk_tables(n: int) -> np.ndarray:
    """K[q, j, s] = [z**j] (1 - z)**s (1 + z)**(q - s), the Walsh-Hadamard
    transform of the weight-j shell of q <= n bits at any weight-s point
    (MacWilliams and Sloane, The Theory of Error-Correcting Codes, ch. 5)."""
    padded = np.zeros((n + 1, n + 2, n + 1))  # row 0 is j = -1, all zero
    padded[0, 1, 0] = 1.0
    for q in range(n):
        # A new bit multiplies column s by 1 + z, or by 1 - z in the support.
        old, new = padded[q], padded[q + 1]
        np.add(old[1:], old[:-1], out=new[1:])
        np.subtract(old[1:, q], old[:-1, q], out=new[1:, q + 1])
    return padded[:, 1:]


def _lattice_order(cells: list[int]) -> list[int]:
    """The cells (bitmasks) in lattice axis order: cells of 2+ bits first,
    then the singletons, each group by descending mask."""
    return sorted(cells, key=lambda c: (not c & (c - 1), -c))


def _outer_sum(axes) -> np.ndarray:
    """Outer sum of integer sequences, one axis each, as int32, built from
    the last axis out: numpy's inner loop then runs over the long one."""
    total = np.asarray(axes[-1], dtype=np.int32)
    for axis in reversed(axes[:-1]):
        total = np.add.outer(axis, total, dtype=np.int32)
    return total


def _cell_lattice(cells: list[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Orbits of the permutations inside each cell (a bitmask) as a C-order
    lattice: one |c| + 1 axis per cell of 2+ bits, then one -1 axis over the
    singletons' subsets.  Returns each point's representative, its orbit's
    smallest member (w ones at a cell's w lowest-order bits), as int32, and
    the shape."""
    order = _lattice_order(cells)
    reps = _outer_sum([list(itertools.accumulate(
        [1 << b for b in range(c.bit_length()) if c >> b & 1], initial=0))
        for c in order]).ravel()
    return reps, tuple(
        c.bit_count() + 1 for c in order if c.bit_count() > 1) + (-1,)


def _lattice_index(points, cells: list[int]) -> np.ndarray:
    """Index of each int input in ``points`` on the C-order lattice of
    ``cells``: its weight on each cell, in ``_lattice_order``, read as the
    digits of a number whose digit for cell c runs over |c| + 1 values.
    int32, as the lattice's representatives are."""
    points = np.asarray(points)
    index = np.zeros(points.shape, np.int32)
    for c in _lattice_order(cells):
        index *= c.bit_count() + 1
        index += np.bitwise_count(points & c)
    return index


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

    The greedy's state is one entry per lattice point: the first message
    that serves its orbit, -1 while none does, so u is where it is -1.  A
    round serves the points at distance >= t from the message, which is
    constant on every cell once the cells it splits are refined; each point
    of the finer lattice then reads the state at its representative's index
    on the old one.  The strategy keeps the final cells and state.
    """
    GameParameters(n, m)
    if n > COVER_MAX_N:
        raise ResourceLimitError(
            f"cover construction supports n <= {COVER_MAX_N}, got {n}")
    size = 1 << n
    threshold = n - m + 1
    # A message serves gamma(n, m) inputs, so the cover needs at least
    # ceil(size / gamma) rounds; at m = 1 all 2**n.
    work = -(-size // gamma(n, m)) * size
    if work > COVER_BUDGET:
        raise ResourceLimitError(
            f"cover construction at ({n}, {m}) needs at least {work} "
            f"input visits, past the budget of {COVER_BUDGET}")
    tables = _krawtchouk_tables(n)
    kernel_transform = tables[n, threshold:].sum(axis=0)  # by weight

    message_values: list[int] = []
    cells = [size - 1]
    reps, shape = _cell_lattice(cells)
    lattice_kernel = kernel_transform[np.bitwise_count(reps)]
    first = np.full(len(reps), -1, dtype=np.int64)

    def transform(values: np.ndarray) -> np.ndarray:
        for axis, points in enumerate(shape[:-1]):
            values = np.matmul(tables[points - 1, :points, :points].T, values
                               .reshape(math.prod(shape[:axis]), points, -1))
        return fwht(values.reshape(shape)).ravel()
    while (uncovered := first < 0).any():
        spectrum = transform(uncovered)
        spectrum *= lattice_kernel
        coverage = transform(spectrum)
        message = int(np.argmax(coverage) if len(cells) == n else
                      reps[coverage == coverage.max()].min())
        split = [c & s for c in cells for s in (message, ~message) if c & s]
        if len(split) > len(cells):
            # The message is constant on the new cells only: refine first.
            reps, shape = _cell_lattice(split)
            first = first[_lattice_index(reps, cells)]
            uncovered = first < 0
            cells = split
            lattice_kernel = kernel_transform[np.bitwise_count(reps)]
        served = np.bitwise_count(reps ^ message) >= threshold
        first[served & uncovered] = len(message_values)
        message_values.append(message)

    return CoverStrategy(
        n, m, tuple(BitString.from_index(v, n) for v in message_values),
        tuple(cells), first)


def exact_information_cost(strategy: CoverStrategy) -> float:
    """n - H(X | M) = H(M) for uniform inputs: a message's preimage sums the
    orbits of its lattice points, each of prod_c C(|c|, w_c) inputs."""
    sizes = functools.reduce(np.multiply.outer, (
        [math.comb(c.bit_count(), w) for w in range(c.bit_count() + 1)]
        for c in _lattice_order(list(strategy.cells))), 1)
    shares = np.bincount(strategy.first, np.ravel(sizes)) / (1 << strategy.n)
    return -math.fsum(p * math.log2(p) for p in shares.tolist() if p)
