"""Answer sets, the exhaustive classical optimum, and greedy message covers."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from exclab.bounds import gamma, gamma_log2
from exclab.classical import (
    COVER_MAX_N,
    EXCLUDED_COUNT_MAX_N,
    AnswerSet,
    CoverStrategy,
    brute_force_min_exclusion,
    build_cover_strategy,
    consistent_answer_set,
    exact_information_cost,
    excluded_count,
)
from exclab.pbr import BitString, IndexSubset, restrict
from exclab.qcore import ResourceLimitError


def bits(text: str) -> BitString:
    return BitString.from_string(text)


def answer_set(n: int, m: int, *texts: str) -> AnswerSet:
    return AnswerSet(n, m, tuple(bits(t) for t in texts))


def test_answer_set_validation():
    answer_set(3, 2, "00", "01", "10")
    with pytest.raises(ValueError):
        answer_set(3, 2, "00", "01")  # one answer per subset
    with pytest.raises(ValueError):
        answer_set(3, 2, "00", "01", "101")  # wrong answer length
    with pytest.raises(ValueError):
        answer_set(2, 3, "000")


def test_answer_for_follows_lexicographic_subset_order():
    # AnswerSet.answers holds one answer per subset, in the lexicographic
    # order of IndexSubset.all_subsets.
    subsets = IndexSubset.all_subsets(4, 2)
    assert [s.indices for s in subsets] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
    ]
    source = bits("1101")
    answers = consistent_answer_set(source, 2).answers
    assert [str(z) for z in answers] == ["11", "10", "11", "10", "11", "01"]
    for y, z in zip(subsets, answers):
        assert z == restrict(source, y)


def test_consistent_answer_set_restricts_the_source_string():
    a = consistent_answer_set(bits("101"), 2)
    assert [str(z) for z in a.answers] == ["10", "11", "01"]
    for y, z in zip(IndexSubset.all_subsets(3, 2), a.answers):
        assert z == restrict(bits("101"), y)


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3), (5, 4), (6, 5)])
def test_consistent_sets_exclude_exactly_the_closed_form_count(n, m):
    # A consistent set rules out exactly the strings within Hamming distance
    # n - m of its source, which is 2**n - gamma(n, m) of them.
    expected = (1 << n) - gamma(n, m)
    rng = np.random.default_rng(7)
    sources = {0, (1 << n) - 1}
    sources.update(int(v) for v in rng.integers(0, 1 << n, size=3))
    for value in sources:
        a = consistent_answer_set(BitString.from_index(value, n), m)
        assert excluded_count(a) == expected


def test_excluded_count_frozen_examples():
    # Hand-checked on (n=3, m=2): subsets (1,2),(1,3),(2,3).
    assert excluded_count(answer_set(3, 2, "00", "01", "10")) == 5
    # Inconsistent sets can still attain the minimum of 4.
    assert excluded_count(answer_set(3, 2, "00", "00", "01")) == 4


def test_excluded_count_resource_cap():
    n = EXCLUDED_COUNT_MAX_N + 1
    one_subset = AnswerSet(n, n, (BitString.from_index(0, n),))
    with pytest.raises(ResourceLimitError):
        excluded_count(one_subset)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 2), (4, 3)])
def test_brute_force_matches_counting_closed_form(n, m):
    count, witness = brute_force_min_exclusion(n, m)
    assert count == (1 << n) - gamma(n, m)
    assert excluded_count(witness) == count


def test_brute_force_witness_is_the_all_zeros_consistent_set():
    # Ascending answer order makes the all-zeros consistent set the
    # deterministic witness whenever it is optimal (it always is).
    for n, m in ((3, 1), (3, 2), (4, 3)):
        _, witness = brute_force_min_exclusion(n, m)
        assert witness == consistent_answer_set(BitString.from_index(0, n), m)


def test_brute_force_serial_and_parallel_agree():
    serial = brute_force_min_exclusion(4, 2, workers=1)
    parallel = brute_force_min_exclusion(4, 2, workers=2)
    assert serial == parallel


def test_brute_force_caps_workers_at_cpus_and_jobs(pool_sizes):
    # One job per answer to the first subset: 4 at m = 2, 2 at m = 1.
    assert (brute_force_min_exclusion(4, 2, workers=10**6)
            == brute_force_min_exclusion(4, 2))
    assert (brute_force_min_exclusion(3, 1, workers=10**6)
            == brute_force_min_exclusion(3, 1))
    assert pool_sizes == [3, 2]


def test_brute_force_budget_refusal():
    # (5, 3) needs 2**30 answer sets, past the 10**7 budget.
    with pytest.raises(ResourceLimitError, match="budget"):
        brute_force_min_exclusion(5, 3)
    with pytest.raises(ValueError):
        brute_force_min_exclusion(2, 3)


def serves(a: BitString, x: BitString, m: int) -> bool:
    """Whether CoverStrategy accepts message ``a`` as the one announced on
    input ``x`` (every other input keeps its greedy-cover message)."""
    n = len(x)
    base = build_cover_strategy(n, m)
    assignment = list(base.assignment)
    assignment[x.to_index()] = len(base.messages)
    try:
        CoverStrategy(n, m, base.messages + (a,), tuple(assignment))
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
        CoverStrategy(3, 2, base.messages + (bits("0000"),), base.assignment)
    with pytest.raises(ValueError):
        CoverStrategy(3, 4, base.messages, base.assignment)


def test_is_valid_message_matches_subset_semantics():
    # A strategy may announce message a on input x exactly when the
    # consistent answers of a never name the truth, i.e. every size-m subset
    # holds a position where a and x differ.
    for n, m in ((3, 2), (4, 2)):
        subsets = IndexSubset.all_subsets(n, m)
        for a_val, x_val in itertools.product(range(1 << n), repeat=2):
            a = BitString.from_index(a_val, n)
            x = BitString.from_index(x_val, n)
            semantic = all(restrict(a, y) != restrict(x, y) for y in subsets)
            assert serves(a, x, m) == semantic, (str(a), str(x))


def test_cover_strategy_validation():
    good = build_cover_strategy(3, 2)
    with pytest.raises(ValueError):
        CoverStrategy(3, 2, (), good.assignment)
    with pytest.raises(ValueError):
        CoverStrategy(3, 2, (bits("00"),), good.assignment)
    with pytest.raises(ValueError):
        CoverStrategy(3, 2, good.messages, good.assignment[:-1])
    with pytest.raises(ValueError):
        CoverStrategy(3, 2, good.messages, (9,) * 8)
    # x = 000 assigned to message 000 (distance 0 < 2): not serving.
    with pytest.raises(ValueError, match="serve"):
        CoverStrategy(3, 2, (bits("000"), bits("111")), (0,) * 8)


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
    # The arrays kept for the Monte Carlo blocks restate both tuples.
    assert strategy.assignment_array.tolist() == list(strategy.assignment)
    assert [BitString(row) for row in strategy.message_bits] == list(
        strategy.messages)


def test_build_cover_is_deterministic():
    first = build_cover_strategy(5, 3)
    second = build_cover_strategy(5, 3)
    assert first.messages == second.messages
    assert first.assignment == second.assignment


def test_build_cover_resource_cap():
    with pytest.raises(ResourceLimitError):
        build_cover_strategy(COVER_MAX_N + 1, 2)


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
    # Deterministic assignment: n - H(X|M) = sum_c (|c|/2^n) (n - log2 |c|).
    strategy = build_cover_strategy(5, 2)
    sizes = Counter(strategy.assignment)
    total = 1 << strategy.n
    expected = sum(
        (size / total) * (strategy.n - math.log2(size))
        for size in sizes.values()
    )
    assert exact_information_cost(strategy) == pytest.approx(expected, abs=1e-10)
