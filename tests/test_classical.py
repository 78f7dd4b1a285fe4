"""Answer sets, the exhaustive classical optimum, and greedy message covers."""

import hashlib
import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclab import classical
from exclab.bounds import gamma, gamma_log2
from exclab.classical import (
    COVER_MAX_N,
    EXCLUDED_COUNT_MAX_N,
    CoverStrategy,
    brute_force_min_exclusion,
    build_cover_strategy,
    consistent_answer_set,
    exact_information_cost,
    excluded_count,
)
from exclab.pbr import BitString, IndexSubset, restrict
from exclab.qcore import ResourceLimitError, fwht


def bits(text: str) -> BitString:
    return BitString.from_string(text)


def subsets(n: int, m: int) -> list[IndexSubset]:
    """Size-m subsets of 1..n in lexicographic order, the answers' order."""
    return [IndexSubset(y) for y in itertools.combinations(range(1, n + 1), m)]


def answers(*texts: str) -> tuple[int, ...]:
    return tuple(int(t, 2) for t in texts)


def test_answer_set_validation():
    assert excluded_count(3, 2, answers("00", "01", "10")) == 5
    with pytest.raises(ValueError, match="one answer per subset"):
        excluded_count(3, 2, answers("00", "01"))
    with pytest.raises(ValueError, match="2\\*\\*2"):
        excluded_count(3, 2, answers("00", "01", "101"))  # wrong answer length
    for bad in (-1, 1.0, True, "01"):
        with pytest.raises(ValueError, match="int"):
            excluded_count(3, 2, (0, 0, bad))
    with pytest.raises(ValueError):
        excluded_count(2, 3, answers("000"))
    with pytest.raises(ValueError):
        consistent_answer_set(2, 3, 0)
    for a in (-1, 8):
        with pytest.raises(ValueError, match="3-bit"):
            consistent_answer_set(3, 2, a)


def test_answer_for_follows_lexicographic_subset_order():
    # An answer set holds one answer per subset, in the lexicographic order
    # of itertools.combinations.
    assert [y.indices for y in subsets(4, 2)] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
    ]
    source = bits("1101")
    consistent = consistent_answer_set(4, 2, source.to_index())
    assert [format(z, "02b") for z in consistent] == [
        "11", "10", "11", "10", "11", "01"]
    for y, z in zip(subsets(4, 2), consistent):
        assert z == restrict(source, y).to_index()


def test_consistent_answer_set_restricts_the_source_string():
    consistent = consistent_answer_set(3, 2, 0b101)
    assert consistent == answers("10", "11", "01")
    for y, z in zip(subsets(3, 2), consistent):
        assert z == restrict(bits("101"), y).to_index()


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3), (5, 4), (6, 5)])
def test_consistent_sets_exclude_exactly_the_closed_form_count(n, m):
    # A consistent set rules out exactly the strings within Hamming distance
    # n - m of its source, which is 2**n - gamma(n, m) of them.
    expected = (1 << n) - gamma(n, m)
    rng = np.random.default_rng(7)
    sources = {0, (1 << n) - 1}
    sources.update(int(v) for v in rng.integers(0, 1 << n, size=3))
    for value in sources:
        assert excluded_count(n, m, consistent_answer_set(n, m, value)) == expected


def test_excluded_count_frozen_examples():
    # Hand-checked on (n=3, m=2): subsets (1,2),(1,3),(2,3).
    assert excluded_count(3, 2, answers("00", "01", "10")) == 5
    # Inconsistent sets can still attain the minimum of 4.
    assert excluded_count(3, 2, answers("00", "00", "01")) == 4


def test_excluded_count_resource_cap():
    n = EXCLUDED_COUNT_MAX_N + 1
    with pytest.raises(ResourceLimitError):
        excluded_count(n, n, (0,))
    # C(10**6, 5 * 10**5) has 301,027 digits: the cap must come before it.
    with pytest.raises(ResourceLimitError,
                       match=f"n <= {EXCLUDED_COUNT_MAX_N}"):
        excluded_count(10**6, 5 * 10**5, (0,))


def reference_excluded(n: int, m: int, chosen: tuple[int, ...]) -> set[int]:
    """Strings x that some answer rules out, by pure-Python bit extraction:
    x is excluded iff its restriction to some subset j is answer j."""
    return {x for x in range(1 << n) if any(
        map(int.__eq__, consistent_answer_set(n, m, x), chosen))}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.randoms(use_true_random=False))))
def test_excluded_count_matches_bit_extraction(case):
    n, m, random = case
    chosen = tuple(random.getrandbits(m) for _ in range(math.comb(n, m)))
    expected = reference_excluded(n, m, chosen)
    assert excluded_count(n, m, chosen) == len(expected)
    # The count is blind to swapping every 0 and 1 (x -> x ^ 1...1), so the
    # union it counts is checked string by string.
    pairs = classical._position_pairs(n)
    union = 0
    for y, z in zip(itertools.combinations(range(1, n + 1), m), chosen):
        union |= classical._answer_mask(pairs, y, z)
    assert union == sum(1 << x for x in expected)


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_level_masks_match_bit_extraction(n):
    for m in range(1, n + 1):
        rows = [consistent_answer_set(n, m, x) for x in range(1 << n)]
        for j, level in enumerate(classical._canonical_levels(n, m)):
            for z, mask in level:
                assert mask == sum(1 << x for x, row in enumerate(rows)
                                   if row[j] == z), (m, j, z)


def test_oracle_at_the_cap_is_fast_and_small():
    # (20, 1) is the largest n either function admits: n pairs of 2**20-bit
    # position masks and 20 answer masks, about 8 MiB.  The bounds refuse a
    # dense 2**n int64 table per subset (34 MiB) and a mask build quadratic
    # in 2**n (over a second).
    tracemalloc.start()
    try:
        start = time.perf_counter()
        count, witness = brute_force_min_exclusion(20, 1)
        assert excluded_count(20, 1, witness) == count == (1 << 20) - 1
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 16 << 20


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 2), (4, 3)])
def test_brute_force_matches_counting_closed_form(n, m):
    count, witness = brute_force_min_exclusion(n, m)
    assert count == (1 << n) - gamma(n, m)
    assert excluded_count(n, m, witness) == count


def test_brute_force_witness_is_the_all_zeros_consistent_set():
    # Ascending answer order makes the all-zeros consistent set the
    # deterministic witness whenever it is optimal (it always is).
    for n, m in ((3, 1), (3, 2), (4, 3)):
        _, witness = brute_force_min_exclusion(n, m)
        assert witness == consistent_answer_set(n, m, 0)


def enumerated_minimum(n: int, m: int) -> tuple[int, tuple[int, ...]]:
    """Minimum excluded count over every answer set, and the
    lexicographically first set that attains it, by plain enumeration."""
    best = None
    for choice in itertools.product(range(1 << m), repeat=math.comb(n, m)):
        count = excluded_count(n, m, choice)
        if best is None or count < best[0]:
            best = (count, choice)
    return best


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                 (4, 2), (4, 3)])
def test_canonical_search_matches_plain_enumeration(n, m):
    assert brute_force_min_exclusion(n, m) == enumerated_minimum(n, m)


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3)])
def test_canonical_levels_hold_one_set_per_xor_orbit(n, m):
    canonical = set(itertools.product(*(
        [z for z, _ in level] for level in classical._canonical_levels(n, m))))
    n_subsets = math.comb(n, m)
    assert len(canonical) == 1 << (m * n_subsets - n)
    shifts = [consistent_answer_set(n, m, w) for w in range(1 << n)]
    for choice in itertools.product(range(1 << m), repeat=n_subsets):
        orbit = {tuple(map(int.__xor__, choice, shift)) for shift in shifts}
        assert len(orbit & canonical) == 1


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(0, (1 << n) - 1),
    st.randoms(use_true_random=False))))
def test_excluded_count_is_invariant_under_xor_translation(case):
    # x -> x ^ w maps the strings (z_j) excludes onto those (z_j ^ w|y_j)
    # excludes: the symmetry the canonical search rests on.
    n, m, w, random = case
    chosen = tuple(random.getrandbits(m) for _ in range(math.comb(n, m)))
    shift = BitString.from_index(w, n)
    moved = tuple(z ^ restrict(shift, y).to_index()
                  for z, y in zip(chosen, subsets(n, m)))
    assert excluded_count(n, m, chosen) == excluded_count(n, m, moved)


def test_brute_force_refuses_past_the_counting_cap_before_any_work(
        monkeypatch):
    # (21, 1) is inside the answer-set budget, but its witness could not be
    # recounted; the search is refused before a mask is built.
    def no_levels(n, m):
        raise AssertionError("built levels past the cap")
    monkeypatch.setattr(classical, "_canonical_levels", no_levels)
    for n in (EXCLUDED_COUNT_MAX_N + 1, 23):
        for m in (1, n):
            with pytest.raises(ResourceLimitError,
                               match=f"n <= {EXCLUDED_COUNT_MAX_N}"):
                brute_force_min_exclusion(n, m)
    # C(10**6, 5 * 10**5) has 301,027 digits: too long to form or format.
    with pytest.raises(ResourceLimitError,
                       match=f"n <= {EXCLUDED_COUNT_MAX_N}"):
        brute_force_min_exclusion(10**6, 5 * 10**5)


def test_brute_force_budget_refusal():
    # (5, 3) needs 2**30 answer sets, past the 10**7 budget.
    with pytest.raises(ResourceLimitError, match="budget"):
        brute_force_min_exclusion(5, 3)
    with pytest.raises(ValueError):
        brute_force_min_exclusion(2, 3)


def cube(n: int) -> tuple[int, ...]:
    """The n singleton cells, whose lattice is the cube: point x is input x,
    so a strategy's ``first`` on it is an explicit 2**n input table."""
    return tuple(1 << b for b in range(n))


def serves(a: BitString, x: BitString, m: int) -> bool:
    """Whether CoverStrategy accepts message ``a`` as the one announced on
    input ``x`` (every other input keeps its greedy-cover message)."""
    n = len(x)
    base = build_cover_strategy(n, m)
    assignment = list(base.assignment)
    assignment[x.to_index()] = len(base.messages)
    try:
        CoverStrategy(n, m, base.messages + (a,), cube(n), tuple(assignment))
    except ValueError:
        return False
    return True


def test_is_valid_message_hand_cases():
    # n=3, m=2 needs distance >= 2.
    assert serves(bits("111"), bits("000"), 2)
    assert serves(bits("111"), bits("100"), 2)
    assert not serves(bits("111"), bits("110"), 2)
    assert not serves(bits("111"), bits("111"), 2)
    base = build_cover_strategy(3, 2)
    with pytest.raises(ValueError, match="length n"):
        CoverStrategy(3, 2, base.messages + (bits("0000"),), cube(3),
                      base.assignment)
    with pytest.raises(ValueError):
        CoverStrategy(3, 4, base.messages, cube(3), base.assignment)


def test_is_valid_message_matches_subset_semantics():
    # A strategy may announce message a on input x exactly when the
    # consistent answers of a never name the truth, i.e. every size-m subset
    # holds a position where a and x differ.
    for n, m in ((3, 2), (4, 2)):
        for a_val, x_val in itertools.product(range(1 << n), repeat=2):
            a = BitString.from_index(a_val, n)
            x = BitString.from_index(x_val, n)
            semantic = all(restrict(a, y) != restrict(x, y)
                           for y in subsets(n, m))
            assert serves(a, x, m) == semantic, (str(a), str(x))


def test_cover_strategy_validation():
    good = build_cover_strategy(3, 2)
    with pytest.raises(ValueError):
        CoverStrategy(3, 2, (), cube(3), good.assignment)
    with pytest.raises(ValueError):
        CoverStrategy(3, 2, (bits("00"),), cube(3), good.assignment)
    with pytest.raises(ValueError):
        CoverStrategy(3, 2, good.messages, cube(3), good.assignment[:-1])
    with pytest.raises(ValueError):
        CoverStrategy(3, 2, good.messages, cube(3), (9,) * 8)
    # x = 000 assigned to message 000 (distance 0 < 2): not serving.
    with pytest.raises(ValueError, match="serve"):
        CoverStrategy(3, 2, (bits("000"), bits("111")), cube(3), (0,) * 8)


def test_cover_strategy_refuses_one_unserved_input_at_n_16():
    # The distance check runs in 16-bit words at n = 16: one input of the
    # 65,536 sent to itself (distance 0 < 9) must still be caught.
    good = build_cover_strategy(16, 8)
    for x in (0, 12345, (1 << 16) - 1):
        assignment = good.assignment.copy()
        assignment[x] = len(good.messages)
        with pytest.raises(ValueError, match="serve"):
            CoverStrategy(16, 8, good.messages + (BitString.from_index(x, 16),),
                          cube(16), assignment)
    CoverStrategy(16, 8, good.messages, cube(16), good.assignment)


def test_cover_strategy_refuses_float_and_bool_entries():
    good = build_cover_strategy(3, 2)
    CoverStrategy(3, 2, good.messages, cube(3), good.assignment.tolist())
    CoverStrategy(3, 2, good.messages, cube(3),
                  good.assignment.astype(np.uint8))
    # 1.4 would have been kept by a tuple and truncated to 1 by an array.
    floats = (1.4, 1.4, 1.4, 0.4, 1.0, 0.0, 0.0, 0.0)
    assert np.array_equal(good.assignment, np.trunc(floats))
    with_bool = good.assignment.tolist()
    with_bool[0] = True
    for assignment in (floats, np.array(floats), with_bool,
                       good.assignment.astype(bool),
                       [np.bool_(i) for i in good.assignment]):
        with pytest.raises(ValueError, match="integers"):
            CoverStrategy(3, 2, good.messages, cube(3), assignment)


def test_cover_strategy_keeps_a_copy_of_the_assignment():
    good = build_cover_strategy(3, 2)
    given = good.assignment.copy()
    strategy = CoverStrategy(3, 2, good.messages, cube(3), given)
    given[:] = 0
    assert np.array_equal(strategy.assignment, good.assignment)
    assert np.array_equal(strategy.first, good.assignment)
    assert not strategy.assignment.flags.writeable
    assert not strategy.first.flags.writeable


def test_the_input_table_is_built_once_and_only_when_read():
    # (16, 8) stops on a 32-point lattice: its build peaks near 50 KiB, and
    # near 1,584 KiB when it also built the 2**16 table and checked it.
    tracemalloc.start()
    try:
        strategy = build_cover_strategy(16, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 10
    assert "assignment" not in vars(strategy)
    table = strategy.assignment
    assert table is strategy.assignment
    assert table.dtype == np.int64 and table.shape == (1 << 16,)
    assert not table.flags.writeable


def test_message_for_answers_from_the_lattice_without_the_input_table():
    # Every input of every shape with n <= 8, and 2,000 seeded inputs of
    # shapes on lattices of 24 and 32 points and on the cube.
    cases = [(n, m, range(1 << n)) for n in range(1, 9)
             for m in range(1, n + 1)]
    rng = np.random.default_rng(2000)
    cases += [(n, m, rng.integers(0, 1 << n, size=2000).tolist())
              for n, m in ((12, 6), (16, 8), (16, 6))]
    for n, m, inputs in cases:
        strategy = build_cover_strategy(n, m)
        answers = [strategy.message_for(BitString.from_index(x, n))
                   for x in inputs]
        assert "assignment" not in vars(strategy), (n, m)
        assert answers == [strategy.messages[strategy.assignment[x]]
                           for x in inputs], (n, m)


def test_message_for_refuses_inputs_of_the_wrong_length():
    strategy = build_cover_strategy(3, 2)
    for text in ("0110", "1", "00"):
        with pytest.raises(ValueError, match="length"):
            strategy.message_for(bits(text))


def test_build_cover_minimal_pair_for_three_choose_two():
    strategy = build_cover_strategy(3, 2)
    assert [str(msg) for msg in strategy.messages] == ["000", "111"]
    assert strategy.message_for(bits("110")) == bits("000")
    assert strategy.message_for(bits("100")) == bits("111")


@pytest.mark.parametrize("n,m", [(1, 1), (4, 2), (5, 2), (6, 3), (8, 4)])
def test_build_cover_serves_every_input(n, m):
    strategy = build_cover_strategy(n, m)
    threshold = n - m + 1
    for value in range(1 << n):
        x = BitString.from_index(value, n)
        served = strategy.message_for(x).to_index() ^ value
        assert served.bit_count() >= threshold
        # Each input gets the first chosen message that serves it.
        first = min(i for i, message in enumerate(strategy.messages)
                    if (message.to_index() ^ value).bit_count() >= threshold)
        assert strategy.assignment[value] == first
    # The Monte Carlo blocks index two int64 arrays; the values restate the
    # messages.
    assert strategy.assignment.dtype == np.int64
    assert strategy.assignment.shape == (1 << n,)
    assert strategy.values.dtype == np.int64
    assert strategy.values.tolist() == [
        message.to_index() for message in strategy.messages]


def direct_greedy(n: int, m: int) -> tuple[list[int], np.ndarray]:
    """The greedy cover without a transform: every round counts, for each
    candidate message a, the unserved inputs at distance >= n - m + 1 from a
    on the dense 2**n x 2**n serves matrix (O(4**n) per round), takes the
    first candidate of the most, and assigns it to the inputs it newly
    serves."""
    size = 1 << n
    values = np.arange(size)
    serves = np.bitwise_count(values[:, None] ^ values) >= n - m + 1
    uncovered = np.ones(size, dtype=bool)
    assignment = np.full(size, -1)
    messages: list[int] = []
    while uncovered.any():
        candidate = int(np.argmax(serves[:, uncovered].sum(axis=1)))
        newly = serves[candidate] & uncovered
        assignment[newly] = len(messages)
        messages.append(candidate)
        uncovered &= ~newly
    return messages, assignment


@pytest.mark.parametrize("n", range(1, 9))
def test_build_cover_matches_a_transform_free_greedy(n):
    for m in range(1, n + 1):
        strategy = build_cover_strategy(n, m)
        messages, assignment = direct_greedy(n, m)
        assert [a.to_index() for a in strategy.messages] == messages, m
        assert np.array_equal(strategy.assignment, assignment), m
        # The lattice check the build passed, and the 2**n check it
        # replaced, accept the cover in either form.
        assert cube_check(n, m, strategy.values, strategy.assignment), m
        CoverStrategy(n, m, strategy.messages, strategy.cells, strategy.first)
        CoverStrategy(n, m, strategy.messages, cube(n), assignment)


def cube_check(n: int, m: int, values, table) -> bool:
    """The 2**n distance check that the lattice check replaced: whether
    each input x's message ``values[table[x]]`` is at distance >= n - m + 1
    from x."""
    apart = np.asarray(values)[table] ^ np.arange(1 << n)
    return np.bitwise_count(apart).min() >= n - m + 1


def test_the_lattice_check_refuses_what_the_cube_check_refuses():
    good = build_cover_strategy(16, 8)
    reps, _ = classical._cell_lattice(list(good.cells))
    assert len(reps) == len(good.first) == 32

    def on_cube(first):
        return first[classical._lattice_index(np.arange(1 << 16), good.cells)]

    # A point sent to a message that does not serve its representative.
    values = good.values.tolist()
    for point, rep in enumerate(reps.tolist()):
        for k, value in enumerate(values):
            if (value ^ rep).bit_count() < 9:
                first = good.first.copy()
                first[point] = k
                assert not cube_check(16, 8, values, on_cube(first))
                with pytest.raises(ValueError, match="serve"):
                    CoverStrategy(16, 8, good.messages, good.cells, first)
    # A message that cuts a cell serves the representative of the point of
    # weight 7 on the 15-position cell and 0 on bit 15 (distance 16), but
    # not 0x7F00 in its orbit (distance 2): only the cut check catches it.
    assert sorted(good.cells) == [32767, 32768]
    point = reps.tolist().index(0x7F)
    first = good.first.copy()
    first[point] = len(values)
    assert not cube_check(16, 8, values + [0xFF80], on_cube(first))
    cut = BitString.from_index(0xFF80, 16)
    with pytest.raises(ValueError, match="cuts a cell"):
        CoverStrategy(16, 8, good.messages + (cut,), good.cells, first)
    with pytest.raises(ValueError, match="serve"):
        CoverStrategy(16, 8, good.messages + (cut,), cube(16), on_cube(first))
    # Cells that overlap, miss a position, or are not positive ints.
    for cells in ((32768 | 1, 32767), (32768, 32766), (32768 | 1, 32765),
                  (32768, 32767, 0), (65535,) * 2, (32768.0, 32767),
                  (True, 65534), (65536 | 32767, 32768)):
        with pytest.raises(ValueError, match="partition"):
            CoverStrategy(16, 8, good.messages, cells, good.first)


# Taken from the build before the transform took constant-geometry form and
# the assignment became an array (sha256 of the int64 assignment's bytes).
PINNED_COVERS = {
    (12, 6): ([0, 2047, 2048, 4095], "13b64a8aa942a058852090afeb10981c"
              "68bf9e2a594addfcf7e3e96ae9b066a4"),
    (16, 8): ([0, 32767, 32768, 65535], "423dde9403ecd894fd2d0356e89cf458"
              "754efe87657c157d1cab874aefcfb2eb"),
    # Many rounds, taken from the build before the greedy ran on symmetry
    # orbits: their cells split into singletons, so these reach the
    # split-cell lattices and the all-singleton cube.
    (14, 5): ([0, 511, 15887, 16368, 1585, 1998, 14398, 14785, 2642, 2989,
               13405, 13730, 3171, 3484, 12908, 13203, 4231, 4472, 11912,
               12151, 5876, 5899, 10491, 10500, 6298, 6501, 8869, 9050, 1238,
               1321, 2760, 2871, 9908, 10059, 6351, 6417],
              "e8f34e41bd68934443221508e4a19c65"
              "2bec8c14b01bc4c2d83a208617af905a"),
    (16, 6): ([0, 2047, 63503, 65520, 6259, 8076, 57468, 59267, 10645, 11882,
               53658, 54885, 12776, 13847, 51687, 52760, 17065, 17750, 47782,
               48473, 31441, 32046, 33615, 33968, 39728, 40143, 27346, 27949,
               29499, 29892, 23364, 23739, 36938, 38453],
              "7b5d998e0b4b62d1ea9bbe6fdfe65ee1"
              "fefd007842f241af00c2d544747a9f51"),
}


@pytest.mark.parametrize("n,m", sorted(PINNED_COVERS))
def test_build_cover_reproduces_the_pinned_covers(n, m):
    strategy = build_cover_strategy(n, m)
    messages, digest = PINNED_COVERS[n, m]
    assert [a.to_index() for a in strategy.messages] == messages
    assert hashlib.sha256(strategy.assignment.tobytes()).hexdigest() == digest


# Every cover with n <= 12, taken from the build before the greedy kept its
# state on the orbit lattice: one sha256 over each shape's int64 message
# indices and assignment bytes, for n = 1..12 and m = 1..n in that order.
PINNED_SMALL_COVERS = ("be205c4928e177737969cf45c4a7d412"
                       "54af1921f0daac1ee84100aff1511a49")


def test_build_cover_reproduces_every_pinned_cover_up_to_n_12():
    digest = hashlib.sha256()
    for n in range(1, 13):
        for m in range(1, n + 1):
            strategy = build_cover_strategy(n, m)
            digest.update(np.array([a.to_index() for a in strategy.messages],
                                   dtype=np.int64).tobytes())
            digest.update(strategy.assignment.tobytes())
    assert digest.hexdigest() == PINNED_SMALL_COVERS


def test_krawtchouk_tables_are_the_transforms_of_weight_shells():
    # K[q, j, s] is fwht of the weight-j shell of q bits at every point of
    # weight s; rows and columns past q are zero.
    tables = classical._krawtchouk_tables(10)
    assert tables.shape == (11, 11, 11)
    for q in range(11):
        weights = np.bitwise_count(np.arange(1 << q))
        expected = np.zeros((11, 11))
        for j in range(q + 1):
            transformed = fwht(weights == j)
            for s in range(q + 1):
                at_s = transformed[weights == s]
                assert np.all(at_s == at_s[0])
                expected[j, s] = at_s[0]
        assert np.array_equal(tables[q], expected), q
    assert np.array_equal(classical._krawtchouk_tables(16)[:11, :11, :11],
                          tables)


def cut_cells(n: int, masks) -> list[int]:
    """The cells, as bitmasks, that the supports of ``masks`` cut out of the
    n positions, the way the greedy cover splits them."""
    cells = [(1 << n) - 1]
    for mask in masks:
        cells = [c & s for c in cells for s in (mask, ~mask) if c & s]
    return cells


@pytest.mark.parametrize("n", range(1, 9))
def test_cell_lattice_representatives_are_the_smallest_orbit_members(n):
    rng = np.random.default_rng(n)
    partitions = [cut_cells(n, []), cut_cells(n, [1 << b for b in range(n)])]
    partitions += [cut_cells(n, rng.integers(0, 1 << n, size=k).tolist())
                   for k in (1, 1, 2, 2, 3, 4)]
    for cells in partitions:
        reps, shape = classical._cell_lattice(cells)
        # Permuting positions inside each cell keeps exactly the weight of
        # x on every cell, so that weight tuple names x's orbit.
        smallest = {}
        for x in range(1 << n):
            key = tuple((x & cell).bit_count() for cell in cells)
            smallest.setdefault(key, x)
        assert sorted(reps.tolist()) == sorted(smallest.values()), cells
        assert len(reps) == math.prod(c.bit_count() + 1 for c in cells)
        big = sorted((c.bit_count() + 1 for c in cells if c.bit_count() > 1),
                     reverse=True)
        assert sorted(shape[:-1], reverse=True) == big and shape[-1] == -1
        singles = sum(c.bit_count() == 1 for c in cells)
        assert len(reps) == math.prod(shape[:-1]) << singles
        # first is indexed in C order: each representative is its own index.
        assert np.array_equal(classical._lattice_index(reps, cells),
                              np.arange(len(reps)))
    # All singletons: the lattice is the cube, in its own order.
    reps, shape = classical._cell_lattice(partitions[1])
    assert shape == (-1,) and np.array_equal(reps, np.arange(1 << n))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=5),
    st.integers(0, 5))))
def test_lattice_index_reads_each_point_at_its_coarse_orbit(case):
    # The coarse cells are cut by the first k masks, the fine ones by all of
    # them; the n singletons give the cube, whose point x is input x.  Each
    # fine point must be sent to the coarse point whose representative has
    # the same weight on every coarse cell: its orbit there.
    n, masks, k = case
    coarse = cut_cells(n, masks[:k])
    coarse_reps, _ = classical._cell_lattice(coarse)

    def orbit(x):
        return tuple((x & cell).bit_count() for cell in coarse)

    lookup = {orbit(int(r)): i for i, r in enumerate(coarse_reps)}
    reps, _ = classical._cell_lattice(cut_cells(n, masks))
    fine = classical._lattice_index(reps, coarse)
    assert fine.tolist() == [lookup[orbit(int(r))] for r in reps]
    cube = classical._lattice_index(np.arange(1 << n), coarse)
    assert cube.tolist() == [lookup[orbit(x)] for x in range(1 << n)]


def test_build_cover_is_deterministic():
    first = build_cover_strategy(5, 3)
    second = build_cover_strategy(5, 3)
    assert first.messages == second.messages
    assert np.array_equal(first.assignment, second.assignment)


def test_build_cover_resource_cap():
    with pytest.raises(ResourceLimitError):
        build_cover_strategy(COVER_MAX_N + 1, 2)


def test_build_cover_refuses_past_the_round_budget_before_any_transform(
        monkeypatch):
    # At m = 1 only the complement of x serves x, so the greedy cover needs
    # 2**n rounds, most of them on the 2**n-point cube: (15, 1) and (16, 1)
    # are past 2**28, (14, 1) is exactly at it and (16, 2) needs
    # 3856 * 2**16.  The Krawtchouk tables come before any round, so an
    # admitted shape stops there.
    class Transformed(Exception):
        pass

    def tables(n):
        raise Transformed

    monkeypatch.setattr(classical, "_krawtchouk_tables", tables)
    refused = []
    for n in range(1, COVER_MAX_N + 1):
        for m in range(1, n + 1):
            try:
                build_cover_strategy(n, m)
            except ResourceLimitError:
                refused.append((n, m))
            except Transformed:
                pass
    assert refused == [(15, 1), (16, 1)]


def test_exact_information_cost_minimal_pair():
    # Two messages, each serving half of the 8 inputs: H(M) = 1 bit exactly.
    strategy = build_cover_strategy(3, 2)
    assert exact_information_cost(strategy) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (5, 3), (6, 3), (8, 4)])
def test_exact_information_cost_respects_counting_lower_bound(n, m):
    strategy = build_cover_strategy(n, m)
    cost = exact_information_cost(strategy)
    assert cost >= n - gamma_log2(n, m) - 1e-9
    # It also never exceeds the message alphabet size.
    assert cost <= math.log2(len(strategy.messages)) + 1e-9


def test_exact_information_cost_against_direct_class_sizes():
    # Deterministic assignment: n - H(X|M) = sum_c (|c|/2^n) (n - log2 |c|)
    # over the classes c of inputs that share a message.  The cost sums
    # orbit sizes on the lattice; this counts the 2**n table, on every shape
    # with n <= 12 and the pinned larger ones.
    shapes = [(n, m) for n in range(1, 13) for m in range(1, n + 1)]
    for n, m in shapes + sorted(PINNED_COVERS):
        strategy = build_cover_strategy(n, m)
        sizes = Counter(strategy.assignment.tolist())
        expected = sum((size / (1 << n)) * (n - math.log2(size))
                       for size in sizes.values())
        assert exact_information_cost(strategy) == pytest.approx(
            expected, abs=1e-12), (n, m)
