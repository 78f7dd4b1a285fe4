"""Referee, single trials, and the Monte Carlo harness."""

import itertools
import json
import math
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from exclab import game, pbr, qcore
from exclab.game import (
    DENSE_COUNT_RATIO,
    STRATEGIES,
    STRATEGY_CLASSICAL_COVER,
    STRATEGY_ENTANGLEMENT_ASSISTED,
    STRATEGY_QUANTUM,
    BLOCK_TRIALS,
    TRIAL_MAX_N,
    GameConfig,
    RunStatistics,
    Transcript,
    monte_carlo,
    read_transcripts,
    referee_draw,
    run_trial,
    select_subsets,
)
from exclab.pbr import BitString, IndexSubset, distance_distribution, restrict
from exclab.classical import COVER_MAX_N, build_cover_strategy
from exclab.qcore import (
    ResourceLimitError,
    StateVector,
    conditional_entropy,
    make_rng,
)
from exclab.steering import (
    SteeringParameters,
    choose_k,
    draw_rounds,
    p_abort,
    p_global_steer,
)
from test_known_answers import as_bits, python_inputs
from test_pbr import THREE_SIGMA_TAIL, chi2_sf


def joint_conditional_entropy(joint: np.ndarray) -> float:
    """H(X | M) in bits from a dense 2-D count matrix with X rows and M
    columns: the reference for the per-input counts the harness keeps."""
    p = joint / joint.sum()
    marginal = np.broadcast_to(p.sum(axis=0), p.shape)
    cells = p > 0
    return float(-(p[cells] * np.log2(p[cells] / marginal[cells])).sum())


def quantum_config(**overrides) -> GameConfig:
    base = dict(n=4, m=2, strategy=STRATEGY_QUANTUM, trials=50, seed=7)
    base.update(overrides)
    return GameConfig(**base)


def played(config: GameConfig, workers: int = 1):
    """``monte_carlo``'s statistics, and the lines its sink took, in order,
    read back as checked Transcripts."""
    lines: list[str] = []
    stats = monte_carlo(config, workers=workers, transcript_sink=lines.append)
    return stats, read_transcripts("".join(lines))


def record(transcript: Transcript) -> dict:
    """A Transcript's fields as its transcript line holds them."""
    answer = transcript.answer
    return {**vars(transcript), "x": str(transcript.x),
            "y": list(transcript.y.indices),
            "answer": None if answer is None else str(answer)}


def test_game_config_validation():
    quantum_config()
    with pytest.raises(ValueError):
        quantum_config(strategy="telepathy")
    with pytest.raises(ValueError):
        quantum_config(n=0, m=0)
    with pytest.raises(ValueError):
        quantum_config(m=5)
    with pytest.raises(ValueError):
        quantum_config(trials=0)
    with pytest.raises(ValueError):
        quantum_config(seed=-1)
    # k and delta are entanglement-assisted parameters only.
    with pytest.raises(ValueError):
        quantum_config(k=3)
    with pytest.raises(ValueError):
        quantum_config(delta=0.05)
    with pytest.raises(ValueError):
        quantum_config(strategy=STRATEGY_ENTANGLEMENT_ASSISTED)
    with pytest.raises(ValueError):
        quantum_config(strategy=STRATEGY_ENTANGLEMENT_ASSISTED, k=0, delta=0.5)
    GameConfig(n=4, m=2, strategy=STRATEGY_ENTANGLEMENT_ASSISTED, trials=5,
               seed=0, k=3, delta=0.5)


def test_transcript_consistency_rules():
    x = BitString.from_string("1010")
    y = IndexSubset((1, 3))
    truth = restrict(x, y)
    other = BitString.from_string("00")
    assert other != truth
    Transcript(x=x, y=y, message={}, answer=other, aborted=False, won=True,
               trial=0)
    with pytest.raises(ValueError, match="verdict"):
        Transcript(x=x, y=y, message={}, answer=truth, aborted=False, won=True,
                   trial=0)
    with pytest.raises(ValueError):
        Transcript(x=x, y=y, message={}, answer=None, aborted=False, won=None,
                   trial=0)
    with pytest.raises(ValueError):
        Transcript(x=x, y=y, message={}, answer=other, aborted=True, won=None,
                   trial=0)
    # A transcript line is read back through the same checks.
    line = {"x": "1010", "y": [1, 3], "message": {"kind": "abort"},
            "answer": None, "aborted": True, "won": None, "trial": 17}
    [aborted] = read_transcripts(json.dumps(line))
    assert record(aborted) == line
    assert aborted.x == x and aborted.y == y
    with pytest.raises(ValueError, match="verdict"):
        read_transcripts(json.dumps({**line, "answer": str(truth),
                                     "aborted": False, "won": True}))


def test_referee_draw_shapes_and_marginals():
    # referee_draw hands over the raw words themselves, ceil(n / 64) per
    # row.  The statistics below read x from the words by Python ints
    # (python_inputs), not by the game's own unpacking.
    for n, words in ((1, 1), (64, 1), (65, 2), (300, 5)):
        drawn = referee_draw(n, make_rng(2718), 7)
        assert drawn.shape == (7, words) and drawn.dtype == np.uint64
        assert drawn.ravel().tolist() == make_rng(
            2718).bit_generator.random_raw(7 * words).tolist()
    rng = make_rng(2718)
    n, m, draws = 3, 2, 6000
    x = as_bits(python_inputs(rng, n, draws))
    y = select_subsets(rng.random((draws, n)), m)
    assert y.shape == (draws, m)
    # Positions are 0-based, distinct and sorted within each row.
    assert (y >= 0).all() and (y < n).all() and (np.diff(y, axis=1) > 0).all()
    ones = x.sum(axis=0)
    subset_hits = dict.fromkeys(itertools.combinations(range(1, n + 1), m), 0)
    for row in y:
        subset_hits[tuple(int(p) + 1 for p in row)] += 1
    sigma_bit = math.sqrt(0.25 / draws)
    for count in ones:
        assert count / draws == pytest.approx(0.5, abs=3 * sigma_bit)
    sigma_set = math.sqrt((1 / 3) * (2 / 3) / draws)
    for count in subset_hits.values():
        assert count / draws == pytest.approx(1 / 3, abs=3 * sigma_set)


def test_referee_draw_is_uniform_over_inputs_and_subsets():
    # Chi-square goodness of fit at the suite's one-sided 3-sigma level: the
    # C(6, 3) = 20 subsets and the 2**6 = 64 inputs, each against uniform.
    n, m, draws = 6, 3, 20000
    rng = make_rng(1619)
    x = python_inputs(rng, n, draws)
    y = select_subsets(rng.random((draws, n)), m)
    subsets = {y: i for i, y in
               enumerate(itertools.combinations(range(1, n + 1), m))}
    subset_counts = np.bincount(
        [subsets[tuple(int(p) + 1 for p in row)] for row in y],
        minlength=len(subsets))
    input_counts = np.bincount([int(row, 2) for row in x], minlength=1 << n)
    for counts in (subset_counts, input_counts):
        expected = draws / len(counts)
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert chi2_sf(statistic, len(counts) - 1) >= THREE_SIGMA_TAIL, statistic


def test_run_trial_quantum_wins_and_reproduces():
    config = quantum_config()
    first = run_trial(config, make_rng(123))
    second = run_trial(config, make_rng(123))
    assert (first.x, first.y, first.answer) == (second.x, second.y, second.answer)
    assert first.message == {"kind": "quantum_state", "qubits": 4}
    assert not first.aborted
    assert first.won
    assert first.answer != restrict(first.x, first.y)


def test_run_trial_classical_announces_a_cover_message():
    config = quantum_config(strategy=STRATEGY_CLASSICAL_COVER)
    transcript = run_trial(config, make_rng(55))
    assert transcript.message["kind"] == "classical_message"
    announced = BitString.from_string(transcript.message["bits"])
    assert transcript.answer == restrict(announced, transcript.y)
    assert transcript.won
    # Every row of a two-block run answers with the restriction of the
    # message it announced, the cover's message for its input.
    config = GameConfig(n=10, m=4, strategy=STRATEGY_CLASSICAL_COVER,
                        trials=BLOCK_TRIALS + 50, seed=5)
    _, transcripts = played(config)
    assert [t.trial for t in transcripts] == list(range(config.trials))
    cover = build_cover_strategy(10, 4)
    for transcript in transcripts:
        announced = BitString.from_string(transcript.message["bits"])
        assert announced == cover.message_for(transcript.x)
        assert transcript.answer == restrict(announced, transcript.y)
        assert transcript.won


def test_run_trial_entanglement_assisted_completion_and_abort():
    # k=40 makes aborts essentially impossible; k=1 on n=4 makes them common.
    eager = GameConfig(n=3, m=2, strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
                       trials=1, seed=0, k=40, delta=0.05)
    transcript = run_trial(eager, make_rng(31))
    assert not transcript.aborted
    assert transcript.message["kind"] == "set_index"
    assert 0 <= transcript.message["value"] < 40
    assert transcript.won

    impatient = GameConfig(n=4, m=2, strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
                           trials=1, seed=0, k=1, delta=0.9)
    saw_abort = False
    for attempt in range(30):
        transcript = run_trial(impatient, make_rng(attempt))
        if transcript.aborted:
            saw_abort = True
            assert transcript.message == {"kind": "abort"}
            assert transcript.answer is None and transcript.won is None
            break
    assert saw_abort


def test_monte_carlo_quantum_is_zero_error():
    stats = monte_carlo(quantum_config(trials=300))
    assert stats.trials == 300
    assert stats.wins == 300
    assert stats.aborts == 0
    assert stats.win_rate == 1.0
    assert stats.abort_rate == 0.0
    assert stats.message_bits == {"qubits": 4.0}
    assert stats.empirical_conditional_entropy is None
    assert stats.strategy == STRATEGY_QUANTUM


def test_monte_carlo_classical_reports_entropy():
    config = quantum_config(strategy=STRATEGY_CLASSICAL_COVER, trials=500)
    stats = monte_carlo(config)
    assert stats.wins == 500
    assert stats.empirical_conditional_entropy is not None
    assert 0.0 <= stats.empirical_conditional_entropy <= config.n
    assert stats.message_bits == {"bits": 4.0}


def test_monte_carlo_entanglement_assisted_zero_loss_and_abort_rate():
    config = GameConfig(n=2, m=2, strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
                        trials=500, seed=11, k=2, delta=0.5)
    stats = monte_carlo(config)
    # Completed trials never lose; only aborts reduce the win count.
    assert stats.wins == stats.trials - stats.aborts
    expected = p_abort(2, 2, 2)
    sigma = math.sqrt(expected * (1.0 - expected) / config.trials)
    assert stats.abort_rate == pytest.approx(expected, abs=3 * sigma)
    assert stats.message_bits["set_index_bits"] == pytest.approx(math.log2(2))
    assert stats.message_bits["set_index_bits_ceil"] == 1
    assert stats.message_bits["alphabet_with_abort"] == 3


def test_monte_carlo_parallel_matches_serial():
    # Three full blocks and a partial fourth, so that the pool's contiguous
    # block ranges and the merge of their counts are both exercised.
    trials = 3 * BLOCK_TRIALS + 7
    for strategy, extra in ((STRATEGY_QUANTUM, {}),
                            (STRATEGY_CLASSICAL_COVER, {}),
                            (STRATEGY_ENTANGLEMENT_ASSISTED,
                             {"k": 2, "delta": 0.5})):
        config = GameConfig(n=3, m=2, strategy=strategy, trials=trials,
                            seed=7, **extra)
        serial = monte_carlo(config, workers=1)
        assert monte_carlo(config, workers=2) == serial
        assert monte_carlo(config, workers=3) == serial
        assert serial.wins == trials - serial.aborts
        if strategy == STRATEGY_ENTANGLEMENT_ASSISTED:
            assert serial.aborts > 0


def test_monte_carlo_caps_workers_at_cpus_and_trials(pool_sizes):
    # A call of one block runs serially, however many workers it asks for.
    one_block = quantum_config(trials=50)
    assert monte_carlo(one_block, workers=10**6) == monte_carlo(one_block)
    assert pool_sizes == []
    many = quantum_config(trials=5 * BLOCK_TRIALS)
    assert monte_carlo(many, workers=10**6) == monte_carlo(many, workers=1)
    few = quantum_config(trials=BLOCK_TRIALS + 1)
    assert monte_carlo(few, workers=10**6) == monte_carlo(few, workers=1)
    # Three usable CPUs cap the first pool, two blocks the second.
    assert pool_sizes == [3, 2]


def test_a_sink_draws_at_most_trial_max_n_input_bits_at_a_time(monkeypatch):
    # A block holds BLOCK_TRIALS trials whatever n is.  Only a sink draws n
    # bits per row, so it takes a quantum or steering block in chunks of
    # max(1, TRIAL_MAX_N // n) rows.  With the budget cut to 100 bits, a
    # two-block run at n = 7 (14 rows a chunk) and at n = 100 (one row) draws
    # every input once, never more than 100 bits in one call, and sends its
    # transcripts in trial order; its report is the sinkless run's.
    monkeypatch.setattr(game, "TRIAL_MAX_N", 100)
    draws = []

    def recording(n, rng, size):
        draws.append(n * size)
        return referee_draw(n, rng, size)

    monkeypatch.setattr(game, "referee_draw", recording)
    for strategy, extra in ((STRATEGY_QUANTUM, {}),
                            (STRATEGY_ENTANGLEMENT_ASSISTED,
                             {"k": 3, "delta": 0.05})):
        for n in (7, 100):
            config = GameConfig(n=n, m=3, strategy=strategy,
                                trials=BLOCK_TRIALS + 5, seed=2, **extra)
            draws.clear()
            stats, seen = played(config)
            assert [t.trial for t in seen] == list(range(config.trials))
            rows = 100 // n  # per chunk, in blocks of BLOCK_TRIALS and 5
            assert draws == [n * min(rows, size - start)
                             for size in (BLOCK_TRIALS, 5)
                             for start in range(0, size, rows)]
            assert stats == monte_carlo(config)
    with pytest.raises(ResourceLimitError, match="input bits"):
        quantum_config(n=101)


def test_a_cover_block_draws_within_the_trial_budget():
    # _cover_block draws its whole block for a sink at once, unchunked, which
    # holds BLOCK_TRIALS rows of n bits within the budget only while the
    # cover caps n: lifting COVER_MAX_N past this must chunk that sink too.
    assert COVER_MAX_N * BLOCK_TRIALS <= TRIAL_MAX_N


@pytest.mark.parametrize("strategy, extra", [
    (STRATEGY_QUANTUM, {}),
    (STRATEGY_ENTANGLEMENT_ASSISTED, {"k": 47, "delta": 0.05}),
])
def test_sinkless_runs_at_the_trial_budget_play_full_blocks(strategy, extra):
    # A sinkless quantum or steering block draws no input bits, so it holds
    # BLOCK_TRIALS trials at any n: 10**6 trials at (10**6, 31,622) are 245
    # blocks, about 0.1 s on a 2-CPU Xeon.  Blocks sized to draw at most
    # TRIAL_MAX_N bits would be 10**6 blocks of one trial, about 27 s.
    config = GameConfig(n=10**6, m=31622, strategy=strategy, trials=10**6,
                        seed=0, **extra)
    start = time.perf_counter()
    stats = monte_carlo(config)
    assert time.perf_counter() - start < 5.0
    # p_g underflows at n = 10**6, so every steering round aborts.
    assert stats.wins == stats.trials - stats.aborts
    assert stats.aborts == (0 if strategy == STRATEGY_QUANTUM else 10**6)


def test_monte_carlo_transcript_sink_sees_ordered_trials():
    config = quantum_config(trials=25)
    stats, seen = played(config, workers=4)
    assert len(seen) == 25
    assert [t.trial for t in seen] == list(range(25))
    assert stats.wins == sum(1 for t in seen if t.won)
    replay = monte_carlo(config, transcript_sink=None)
    assert replay.wins == stats.wins


@pytest.mark.parametrize("strategy, extra", [
    (STRATEGY_QUANTUM, {}),
    (STRATEGY_CLASSICAL_COVER, {}),
    (STRATEGY_ENTANGLEMENT_ASSISTED, {"k": 1, "delta": 0.5}),
])
def test_two_block_transcripts_arrive_in_trial_order(strategy, extra):
    size = BLOCK_TRIALS
    config = GameConfig(n=3, m=2, strategy=strategy, trials=size + 5, seed=3,
                        **extra)
    stats, seen = played(config, workers=2)
    assert [t.trial for t in seen] == list(range(size + 5))
    assert [record(t)["trial"] for t in seen[size - 1:size + 1]] == [
        size - 1, size]
    assert stats.wins == sum(1 for t in seen if t.won)
    assert stats.aborts == sum(1 for t in seen if t.aborted)
    assert stats == monte_carlo(config)
    if strategy == STRATEGY_ENTANGLEMENT_ASSISTED:
        assert 0 < stats.aborts < stats.trials
    if strategy == STRATEGY_CLASSICAL_COVER:
        # Per-trial reference for the block kernel: message_for on each input,
        # and the joint (x, message) counts tallied one transcript at a time.
        cover = build_cover_strategy(3, 2)
        counts = np.zeros((1 << 3, len(cover.messages)))
        for t in seen:
            announced = cover.message_for(t.x)
            assert t.message["bits"] == str(announced)
            assert t.answer == restrict(announced, t.y)
            counts[t.x.to_index(), cover.messages.index(announced)] += 1
        assert stats.empirical_conditional_entropy == pytest.approx(
            joint_conditional_entropy(counts), abs=1e-12)


def test_monte_carlo_preflight_rejects_oversized_games():
    # Cover construction caps n.
    with pytest.raises(ResourceLimitError):
        monte_carlo(GameConfig(n=17, m=2, strategy=STRATEGY_CLASSICAL_COVER,
                               trials=1, seed=0))
    # One trial draws at most TRIAL_MAX_N input bits, whatever the strategy
    # and whether it is played by monte_carlo or by run_trial.
    for strategy, extra in ((STRATEGY_QUANTUM, {}),
                            (STRATEGY_ENTANGLEMENT_ASSISTED,
                             {"k": 3, "delta": 0.5})):
        with pytest.raises(ResourceLimitError, match="input bits"):
            monte_carlo(GameConfig(n=TRIAL_MAX_N + 1, m=2, strategy=strategy,
                                   trials=1, seed=0, **extra))
        with pytest.raises(ResourceLimitError, match="input bits"):
            run_trial(GameConfig(n=TRIAL_MAX_N + 1, m=2, strategy=strategy,
                                 trials=1, seed=0, **extra), make_rng(0))
    with pytest.raises(ValueError):
        monte_carlo(quantum_config(), workers=0)


def test_steering_runs_past_the_dense_qubit_cap_play_with_zero_loss():
    # Completed rounds are measured as quantum trials are, so m is not capped
    # at pbr.DENSE_MAX_QUBITS = 13; aborts stay within 3 sigma of p_abort.
    for n, m, k in ((14, 14, 11), (100, 100, 11), (120, 60, 40)):
        config = GameConfig(n=n, m=m, strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
                            trials=2000, seed=1, k=k, delta=0.05)
        stats = monte_carlo(config)
        assert stats.wins == stats.trials - stats.aborts
        expected = p_abort(n, m, k)
        sigma = math.sqrt(expected * (1.0 - expected) / config.trials)
        assert stats.abort_rate == pytest.approx(expected, abs=3 * sigma)


def test_steering_trials_measure_the_steered_product_encoding(monkeypatch):
    # A completed round leaves the receiver holding the product encoding of
    # its truth (criterion 7), so with a sink the block flips d positions of
    # every truth of the block, as for the quantum strategy; the outcomes of
    # aborted rows are dropped.
    flipped = []
    original = game.flip_positions

    def recording(truth, d, rng):
        outcomes = original(truth, d, rng)
        flipped.append((truth.copy(), d.copy(), outcomes))
        return outcomes

    monkeypatch.setattr(game, "flip_positions", recording)
    config = GameConfig(n=6, m=4, strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
                        trials=200, seed=0, k=3, delta=0.05)
    stats, seen = played(config)
    assert 0 < stats.aborts < stats.trials
    assert stats.wins == stats.trials - stats.aborts
    assert len(flipped) == 1
    truth, d, outcomes = flipped[0]
    assert len(truth) == len(seen) == config.trials
    assert ((outcomes != truth).sum(axis=1) == d).all() and (d >= 1).all()
    for transcript, row_truth, row_outcome in zip(seen, truth, outcomes):
        assert BitString(row_truth) == restrict(transcript.x, transcript.y)
        if transcript.aborted:
            assert transcript.answer is None
        else:
            assert transcript.answer == BitString(row_outcome)
            assert transcript.message["kind"] == "set_index"
            assert 0 <= transcript.message["value"] < config.k


def reference_block(config: GameConfig, rng: np.random.Generator, size: int,
                    first: int) -> tuple[int, int, list[dict]]:
    """A block played in one pass, the reference for the block functions,
    which draw for a sink only after every verdict: it selects every
    subset, gathers every truth and measures every quantum trial and
    completed round, whether or not transcripts are wanted, and scores each
    trial on its sampled subset.  Draw order: [x (cover)], [rounds], [d],
    then per chunk [x (quantum, steering)], the subset keys, [flips], where
    a quantum or steering chunk holds max(1, TRIAL_MAX_N // n) rows and the
    cover's the whole block.  Returns (wins, aborts, transcript records)."""
    n, m = config.n, config.m
    is_cover = config.strategy == STRATEGY_CLASSICAL_COVER
    aborted = np.zeros(size, dtype=bool)
    if is_cover:
        x = python_inputs(rng, n, size)
    else:
        messages = [{"kind": "quantum_state", "qubits": n}] * size
        if config.strategy == STRATEGY_ENTANGLEMENT_ASSISTED:
            aborted, set_index = draw_rounds(
                SteeringParameters(n, m, config.k, config.delta), rng, size)
            messages = [{"kind": "abort"} if a else
                        {"kind": "set_index", "value": int(j)}
                        for a, j in zip(aborted, set_index)]
        # The sampler as one step: d by inverse CDF, then d flips by rank.
        d = np.searchsorted(distance_distribution(m)[1], rng.random(size),
                            side="right")
    rows = size if is_cover else max(1, TRIAL_MAX_N // n)
    inputs, subsets, ranks = [], [], []
    for start in range(0, size, rows):
        count = min(rows, size - start)
        inputs += (x[start:start + count] if is_cover else
                   python_inputs(rng, n, count))
        keys = rng.random((count, n))
        subsets.append(np.sort(np.argpartition(keys, m - 1, axis=1)[:, :m],
                               axis=1))
        if not is_cover:
            ranks.append(rng.random((count, m)).argsort(axis=1).argsort(axis=1))
    x, y = as_bits(inputs), np.concatenate(subsets)
    truth = np.take_along_axis(x, y, axis=1)
    if is_cover:
        cover = build_cover_strategy(n, m)
        chosen = cover.assignment[[int(row, 2) for row in inputs]]
        answer = (cover.values[chosen, None] >> (n - 1 - y)) & 1
        messages = [{"kind": "classical_message", "bits": str(cover.messages[c])}
                    for c in chosen]
    else:
        answer = truth ^ (np.concatenate(ranks) < d[:, None])
    won = (answer != truth).any(axis=1) & ~aborted
    records = [{"x": inputs[row],
                "y": [int(p) + 1 for p in y[row]],
                "message": messages[row],
                "answer": None if aborted[row] else "".join(map(str, answer[row])),
                "aborted": bool(aborted[row]),
                "won": None if aborted[row] else bool(won[row]),
                "trial": first + row} for row in range(size)]
    return int(won.sum()), int(aborted.sum()), records


@pytest.mark.parametrize("strategy, extra", [
    (STRATEGY_QUANTUM, {}),
    (STRATEGY_CLASSICAL_COVER, {}),
    (STRATEGY_ENTANGLEMENT_ASSISTED, {"k": 3, "delta": 0.05}),
])
def test_staged_blocks_equal_the_one_stage_reference(strategy, extra):
    # Several seeds, m = 1, m = n, and a 4,097-trial run of two blocks.  At
    # n = 300 a sink draws 3,333 rows at a time, so the first of two blocks
    # is two chunks; n = 16 is the largest cover admitted.
    large = ((16, 8, BLOCK_TRIALS + 1, 4)
             if strategy == STRATEGY_CLASSICAL_COVER
             else (300, 200, BLOCK_TRIALS + 1, 4))
    for n, m, trials, seed in ((5, 1, 300, 0), (5, 5, 300, 1), (6, 3, 200, 2),
                               (6, 3, 200, 9), (4, 2, 4097, 3), large):
        config = GameConfig(n=n, m=m, strategy=strategy, trials=trials,
                            seed=seed, **extra)
        size = BLOCK_TRIALS
        wins = aborts = 0
        expected: list[dict] = []
        for block in range(-(-trials // size)):
            rng = make_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
            w, a, records = reference_block(
                config, rng, min(size, trials - block * size), block * size)
            wins, aborts, expected = wins + w, aborts + a, expected + records
        stats, seen = played(config)
        assert (stats.wins, stats.aborts) == (wins, aborts)
        assert [record(t) for t in seen] == expected
        assert monte_carlo(config) == stats
        if strategy == STRATEGY_ENTANGLEMENT_ASSISTED and trials > 1000:
            assert 0 < aborts < trials


@st.composite
def block_columns(draw):
    """A block's drawn columns for one strategy: its config, first trial,
    input words, 0-based subsets, distances d (0 gives a lost trial) and
    steering rounds, aborted or at set indices up to J = 10**20, k = 10**30."""
    strategy = draw(st.sampled_from(STRATEGIES))
    n = draw(st.integers(1, 6 if strategy == STRATEGY_CLASSICAL_COVER else 70))
    m = draw(st.integers(1, n))
    size = draw(st.integers(1, 5))
    extra = ({"k": 10**30, "delta": 0.05}
             if strategy == STRATEGY_ENTANGLEMENT_ASSISTED else {})
    first = draw(st.one_of(st.integers(0, 9), st.integers(2**31 - 2, 2**31 + 2),
                           st.integers(2**53 - 2, 2**53 + 2),
                           st.integers(0, 2**70)))
    rows = st.lists(st.integers(0, 2**64 - 1), min_size=-(-n // 64),
                    max_size=-(-n // 64))
    words = draw(st.lists(rows, min_size=size, max_size=size))
    subsets = draw(st.lists(st.permutations(range(n)).map(
        lambda order: sorted(order[:m])), min_size=size, max_size=size))
    d = draw(st.lists(st.integers(0, m), min_size=size, max_size=size))
    set_index = draw(st.lists(st.one_of(
        st.integers(0, 9), st.integers(10**20 - 2, 10**20 + 2),
        st.integers(2**53, 2**64)).map(float) | st.just(math.inf),
        min_size=size, max_size=size))
    return (GameConfig(n=n, m=m, strategy=strategy, trials=1, seed=0, **extra),
            first, words, subsets, d, set_index)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(block_columns())
@example((GameConfig(n=1, m=1, strategy=STRATEGY_QUANTUM, trials=1, seed=0),
          2**53 + 1, [[0], [2**63]], [[0], [0]], [0, 1], [0.0, 0.0]))
def test_transcript_lines_are_json_dumps_of_their_records(columns):
    # Each line a block sends its sink is json.dumps(record, sort_keys=True)
    # of the record built here from the drawn columns alone, and
    # read_transcripts gives back the same fields.  The draws are replaced
    # by the columns; the flips take the first d positions of the truth.
    config, first, words, subsets, d, set_index = columns
    n, m = config.n, config.m
    aborted = [j >= config.k if config.k else False for j in set_index]
    steering = config.strategy == STRATEGY_ENTANGLEMENT_ASSISTED
    pending = iter(words)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "referee_draw", lambda n, rng, size: np.array(
            [next(pending) for _ in range(size)], dtype=np.uint64))
        patch.setattr(game, "select_subsets",
                      lambda keys, m: np.array(subsets))
        patch.setattr(game, "sample_distance", lambda m, rng, size: np.array(d))
        patch.setattr(game, "draw_rounds", lambda config, rng, size: (
            np.array(aborted), np.array(set_index)))
        patch.setattr(game, "flip_positions", lambda truth, d, rng: truth ^ (
            np.arange(truth.shape[1]) < d[:, None]))
        lines: list[str] = []
        game._play_block(config, make_rng(0), len(words), first, lines.append)
    records = []
    if config.strategy == STRATEGY_CLASSICAL_COVER:
        cover = build_cover_strategy(n, m)
    for row, (row_words, y) in enumerate(zip(words, subsets)):
        x = "".join(format(w, "064b") for w in row_words)[:n]
        truth = "".join(x[p] for p in y)
        if config.strategy == STRATEGY_CLASSICAL_COVER:
            sent = str(cover.messages[cover.assignment[int(x, 2)]])
            message = {"kind": "classical_message", "bits": sent}
            answer = "".join(sent[p] for p in y)
        else:
            message = ({"kind": "quantum_state", "qubits": n} if not steering
                       else {"kind": "abort"} if aborted[row] else
                       {"kind": "set_index", "value": int(set_index[row])})
            answer = "".join(str(int(b) ^ (i < d[row]))
                             for i, b in enumerate(truth))
        done = not aborted[row]
        records.append({"x": x, "y": [p + 1 for p in y], "message": message,
                        "answer": answer if done else None,
                        "aborted": not done,
                        "won": answer != truth if done else None,
                        "trial": first + row})
    text = "".join(lines)
    assert text == "".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in records)
    assert [record(t) for t in read_transcripts(text)] == records


def test_sinkless_blocks_draw_only_what_they_score(monkeypatch):
    # Without a sink every trial is scored from what decides its verdict:
    # the cover's input by its serve test, a quantum trial or a completed
    # round by its sampled distance.  No subset is selected and no flip key
    # drawn, and quantum and steering blocks draw no input; a sink needs
    # them all.
    def refuse(*args):
        raise AssertionError("reached a refused step")

    configs = [GameConfig(n=6, m=3, strategy=strategy, trials=300, seed=4,
                          **extra)
               for strategy, extra in ((STRATEGY_QUANTUM, {}),
                                       (STRATEGY_ENTANGLEMENT_ASSISTED,
                                        {"k": 3, "delta": 0.05}),
                                       (STRATEGY_CLASSICAL_COVER, {}))]
    for step, sinkless in (("select_subsets", configs),
                           ("flip_positions", configs),
                           ("referee_draw", configs[:2])):
        with monkeypatch.context() as patch:
            patch.setattr(game, step, refuse)
            for config in sinkless:
                stats = monte_carlo(config)
                assert stats.wins == stats.trials - stats.aborts > 0
            # A sink reaches every step but the cover's flips.
            for config in configs[:2] if step == "flip_positions" else configs:
                with pytest.raises(AssertionError, match="refused step"):
                    monte_carlo(config, transcript_sink=[].append)
                with pytest.raises(AssertionError, match="refused step"):
                    run_trial(config, make_rng(0))
            if step == "referee_draw":
                # The cover's verdict reads its input.
                with pytest.raises(AssertionError, match="refused step"):
                    monte_carlo(configs[2])


@pytest.mark.parametrize("strategy, extra", [
    (STRATEGY_QUANTUM, {}),
    (STRATEGY_CLASSICAL_COVER, {}),
    (STRATEGY_ENTANGLEMENT_ASSISTED, {"k": 3, "delta": 0.05}),
])
def test_transcripts_check_their_verdicts_without_restrict(monkeypatch,
                                                           strategy, extra):
    # Transcript reads the truth from x's bits by index; the validated
    # BitString that pbr.restrict builds is off the sink path.
    def refuse(*args):
        raise AssertionError("built a restriction")

    monkeypatch.setattr(game, "restrict", refuse)
    config = GameConfig(n=4, m=2, strategy=strategy,
                        trials=BLOCK_TRIALS + 3, seed=6, **extra)
    stats, seen = played(config)
    assert len(seen) == config.trials
    assert stats.wins == sum(1 for t in seen if t.won)


def test_a_steering_run_checks_its_parameters_once(monkeypatch):
    # GameConfig checks n, m, k and delta; the blocks reuse its values.
    checks = []
    original = SteeringParameters.__post_init__

    def counting(self):
        checks.append(self)
        original(self)

    monkeypatch.setattr(SteeringParameters, "__post_init__", counting)
    config = GameConfig(n=8, m=4, strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
                        trials=3 * BLOCK_TRIALS + 1, seed=5, k=3,
                        delta=0.05)
    assert len(checks) == 1
    stats = monte_carlo(config)
    assert 0 < stats.aborts < stats.trials
    assert stats.wins == stats.trials - stats.aborts
    assert len(checks) == 1


def test_quantum_trials_build_no_dense_measurement_or_state_vector(monkeypatch):
    dense_builds = []
    monkeypatch.setattr(pbr, "exclusion_measurement", dense_builds.append)
    states = []
    original = StateVector.__post_init__

    def counting(self):
        states.append(self)
        original(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    stats = monte_carlo(GameConfig(n=12, m=11, strategy=STRATEGY_QUANTUM,
                                   trials=20, seed=0))
    assert stats.wins == 20
    assert dense_builds == [] and states == []


def test_steering_trials_build_no_dense_measurement_or_state_chain(monkeypatch):
    # Completed rounds are measured through the distance law, so m has no
    # qubit cap: at m = 14 the dense kets alone would take 2 GiB.
    dense_builds, chains, states = [], [], []
    monkeypatch.setattr(pbr, "exclusion_measurement", dense_builds.append)
    monkeypatch.setattr(qcore, "tensor_product", chains.append)
    monkeypatch.setattr(game, "tensor_product", chains.append)
    original = StateVector.__post_init__

    def counting(self):
        states.append(self)
        original(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    for m in (pbr.DENSE_MAX_QUBITS + 1, 100):
        config = GameConfig(n=m, m=m, strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
                            trials=200, seed=0, k=50, delta=0.05)
        tracemalloc.start()
        try:
            stats = monte_carlo(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.aborts < stats.trials
        assert stats.wins == stats.trials - stats.aborts
        assert peak < 8 << 20
    assert dense_builds == [] and chains == [] and states == []


def test_cover_entropy_keeps_only_the_observed_inputs():
    # 400 trials fill at most 400 of the 2**16 input rows; dropping the empty
    # rows leaves H(X | M) as the full joint matrix gives it.
    config = GameConfig(n=16, m=8, strategy=STRATEGY_CLASSICAL_COVER,
                        trials=400, seed=3)
    stats = monte_carlo(config)
    cover = build_cover_strategy(16, 8)
    block_rng = make_rng(np.random.SeedSequence(3, spawn_key=(0,)))
    x_index = [int(x, 2) for x in python_inputs(block_rng, 16, 400)]
    joint = np.zeros((1 << 16, len(cover.messages)))
    np.add.at(joint, (x_index, cover.assignment[x_index]), 1.0)
    full = joint_conditional_entropy(joint)
    assert stats.empirical_conditional_entropy == pytest.approx(full, abs=1e-12)


@settings(derandomize=True, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(0, 2),
    st.integers(1, 600), st.integers(0, 2**32 - 1))))
@example(case=(8, 3, 1, 20, 5))  # a tail block left over: np.unique
@example(case=(8, 3, 1, 26, 5))  # a tail block left over: dense count
@example(case=(14, 7, 2, 500, 9))  # no range folds: leftovers only
@example(case=(13, 6, 2, 100, 5))  # 2-3 workers: none folds; 1: one does
@example(case=(13, 6, 3, 100, 5))  # on 2 workers one range folds
def test_sparse_input_histogram_matches_dense_counts(pool_sizes, case):
    # A worker folds its pending inputs into 2**n counts once 2**n of them
    # are pending: every full block at n <= 8, no 4,096-trial block at
    # n = 13 or 14.  The run sums the folded counts and counts all leftover
    # inputs once: densely when some range folded or 2**n <=
    # DENSE_COUNT_RATIO * their number, else by np.unique.  The entropy
    # must equal, bit for bit, the one over a dense bincount of the blocks'
    # own referee draws.
    n, m, full_blocks, tail, seed = case
    size = BLOCK_TRIALS
    trials = full_blocks * size + tail
    counts = np.zeros(1 << n, dtype=np.int64)
    for block in range(full_blocks + 1):
        rng = make_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        x = python_inputs(rng, n, min(size, trials - block * size))
        counts += np.bincount([int(row, 2) for row in x], minlength=1 << n)
    expected = conditional_entropy(counts, game._cover(n, m).assignment)
    config = GameConfig(n=n, m=m, strategy=STRATEGY_CLASSICAL_COVER,
                        trials=trials, seed=seed)
    for workers in (1, 2, 3):
        stats = monte_carlo(config, workers=workers)
        assert stats.empirical_conditional_entropy == expected


def test_short_ranges_count_densely_up_to_the_crossover(monkeypatch,
                                                         pool_sizes):
    # At n = 8 a range of 25 inputs goes to np.unique (256 > 10 * 25) and
    # one of 26 to the dense count; both report the dense bincount's entropy.
    counted = []

    def unique(*args, **kwargs):
        counted.append(len(args[0]))
        return np_unique(*args, **kwargs)

    np_unique = np.unique
    monkeypatch.setattr(np, "unique", unique)
    fewest = -(-256 // DENSE_COUNT_RATIO)
    for trials in (fewest - 1, fewest):
        counted.clear()
        stats = monte_carlo(GameConfig(n=8, m=3, trials=trials, seed=11,
                                       strategy=STRATEGY_CLASSICAL_COVER))
        x = python_inputs(make_rng(np.random.SeedSequence(
            11, spawn_key=(0,))), 8, trials)
        counts = np.bincount([int(row, 2) for row in x], minlength=256)
        assert stats.empirical_conditional_entropy == conditional_entropy(
            counts, game._cover(8, 3).assignment)
        assert counted == ([trials] if trials < fewest else [])
    # The rule applies to the whole run: two workers of 4,096 inputs each
    # at n = 16 count densely (2**16 <= 10 * 8,192), though each alone would
    # not (2**16 > 10 * 4,096).
    counted.clear()
    stats = monte_carlo(GameConfig(n=16, m=8, trials=2 * 4096, seed=11,
                                   strategy=STRATEGY_CLASSICAL_COVER),
                        workers=2)
    assert pool_sizes == [2]
    counts = np.zeros(1 << 16, dtype=np.int64)
    for block in range(2):
        x = python_inputs(make_rng(np.random.SeedSequence(
            11, spawn_key=(block,))), 16, 4096)
        counts += np.bincount([int(row, 2) for row in x], minlength=1 << 16)
    assert stats.empirical_conditional_entropy == conditional_entropy(
        counts, game._cover(16, 8).assignment)
    assert counted == []


def test_small_cover_run_holds_no_dense_input_counts():
    # 400 trials at n = 16 keep at most 400 distinct inputs, not 2**16
    # counts: with the cover cached, the whole call peaks under 256 KiB.
    config = GameConfig(n=16, m=8, strategy=STRATEGY_CLASSICAL_COVER,
                        trials=400, seed=3)
    game._cover(16, 8)
    tracemalloc.start()
    try:
        monte_carlo(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10


def test_the_cached_cover_cannot_be_written():
    # Every classical_cover run in a process shares this one strategy.
    cover = game._cover(4, 2)
    assert game._cover(4, 2) is cover
    for array in (cover.assignment, cover.first, cover.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            array += 1


# One message per input: message not-x serves x at distance n = 16.
DENSE_COUNT_CHILD = """
import numpy as np
from exclab import classical, game
from exclab.pbr import BitString

n = 16
cover = classical.CoverStrategy(
    n, 2, tuple(BitString.from_index(v, n) for v in range(1 << n)),
    tuple(1 << b for b in range(n)),
    tuple(int(v) for v in ((1 << n) - 1) ^ np.arange(1 << n)))
game._cover = lambda n, m: cover
stats = game.monte_carlo(game.GameConfig(
    n, 2, "classical_cover", trials=2 * game.BLOCK_TRIALS, seed=0))
print(stats.empirical_conditional_entropy,
      classical.exact_information_cost(cover))
"""


def _limit_address_space_to_2_gib():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_cover_entropy_and_cost_count_inputs_not_input_message_pairs():
    # With 65,536 messages at n = 16, a dense (x, message) count is 2**32
    # cells (32 GiB); two blocks and the exact cost must fit in 2 GiB.
    result = subprocess.run([sys.executable, "-c", DENSE_COUNT_CHILD],
                            capture_output=True, text=True,
                            preexec_fn=_limit_address_space_to_2_gib)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0.0", "16.0"]


def steering_config(**overrides) -> GameConfig:
    base = dict(n=60, m=3, strategy=STRATEGY_ENTANGLEMENT_ASSISTED, trials=1,
                seed=0, k=3293842468475, delta=0.05)
    base.update(overrides)
    return GameConfig(**base)


def test_monte_carlo_plays_steering_rounds_at_any_k():
    # k = choose_k(alpha, 0.05) at alpha = m/n = 0.05 and 0.01: pair by pair
    # a round would walk ~1/p_g = 2e10 and 5e51 sets.
    for n, alpha in ((60, 0.05), (300, 0.01)):
        config = steering_config(n=n, k=choose_k(alpha, 0.05), trials=1000)
        assert p_abort(n, 3, config.k) < 1e-9
        start = time.perf_counter()
        stats = monte_carlo(config)
        assert time.perf_counter() - start < 5.0
        assert stats.aborts == 0 and stats.wins == config.trials
    # p_g underflows at n = 2000: every set fails, so every round aborts.
    assert p_global_steer(2000, 3) == 0.0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        stats = monte_carlo(steering_config(n=2000, k=10**6, trials=50))
    assert stats.aborts == 50 and stats.wins == 0 and stats.win_rate is None
    # A k far past 2**64 and the float range still runs.
    stats = monte_carlo(steering_config(n=4, m=2, k=10**400, trials=3))
    assert stats.aborts == 0


@pytest.mark.parametrize("k, bits", [(1, 0), (47, 6), (2**49, 49),
                                     (2**49 + 1, 50), (2**53 + 1, 54)])
def test_set_index_bits_ceil_counts_index_bits_exactly(k, bits):
    # The float log2 of 2**49 + 1 rounds down to 49.0, so ceil(log2 k)
    # would undercount: k indices need exactly (k - 1).bit_length() bits.
    stats = monte_carlo(steering_config(n=4, m=2, k=k, trials=3))
    assert stats.message_bits["set_index_bits_ceil"] == bits


def test_strategy_listing():
    assert STRATEGIES == (STRATEGY_QUANTUM, STRATEGY_CLASSICAL_COVER,
                          STRATEGY_ENTANGLEMENT_ASSISTED)
    assert RunStatistics(
        strategy=STRATEGY_QUANTUM, trials=1, wins=1, aborts=0, win_rate=1.0,
        abort_rate=0.0, message_bits={"qubits": 1.0},
        empirical_conditional_entropy=None,
    ).to_dict()["strategy"] == "quantum"
