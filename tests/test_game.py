"""Referee, single trials, and the Monte Carlo harness."""

import itertools
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
    TRIAL_MAX_N,
    GameConfig,
    RunStatistics,
    Transcript,
    block_size,
    monte_carlo,
    referee_draw,
    run_trial,
    select_subsets,
)
from exclab.pbr import BitString, IndexSubset, distance_distribution, restrict
from exclab.classical import build_cover_strategy
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
from test_pbr import THREE_SIGMA_TAIL, chi2_sf, outcome_indices


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
    record = Transcript(x=x, y=y, message={"kind": "abort"}, answer=None,
                        aborted=True, won=None, trial=17).to_dict()
    assert record == {
        "x": "1010", "y": [1, 3], "message": {"kind": "abort"},
        "answer": None, "aborted": True, "won": None, "trial": 17,
    }


def test_referee_draw_shapes_and_marginals():
    rng = make_rng(2718)
    n, m, draws = 3, 2, 6000
    x = referee_draw(n, rng, draws)
    assert x.shape == (draws, n) and x.dtype == np.int8
    y = select_subsets(rng.random((draws, n)), m)
    assert y.shape == (draws, m)
    assert ((x == 0) | (x == 1)).all()
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
    rng = make_rng(1618)
    x = referee_draw(n, rng, draws)
    y = select_subsets(rng.random((draws, n)), m)
    subsets = {y: i for i, y in
               enumerate(itertools.combinations(range(1, n + 1), m))}
    subset_counts = np.bincount(
        [subsets[tuple(int(p) + 1 for p in row)] for row in y],
        minlength=len(subsets))
    input_counts = np.bincount(outcome_indices(x), minlength=1 << n)
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
                        trials=block_size(10) + 50, seed=5)
    transcripts = []
    monte_carlo(config, transcript_sink=transcripts.append)
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
    trials = 3 * block_size(3) + 7
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
    size = block_size(one_block.n)
    many = quantum_config(trials=5 * size)
    assert monte_carlo(many, workers=10**6) == monte_carlo(many, workers=1)
    few = quantum_config(trials=size + 1)
    assert monte_carlo(few, workers=10**6) == monte_carlo(few, workers=1)
    # Three usable CPUs cap the first pool, two blocks the second.
    assert pool_sizes == [3, 2]


def test_block_size_keeps_a_block_within_the_trial_budget():
    assert block_size(1) == block_size(12) == block_size(244) == 4096
    # Past n = 244 a block of 4096 would draw more than TRIAL_MAX_N bits.
    assert block_size(245) == 4081 == TRIAL_MAX_N // 245
    assert block_size(TRIAL_MAX_N // 2) == 2
    assert block_size(TRIAL_MAX_N // 2 + 1) == block_size(TRIAL_MAX_N) == 1


def test_monte_carlo_transcript_sink_sees_ordered_trials():
    config = quantum_config(trials=25)
    seen: list[Transcript] = []
    stats = monte_carlo(config, workers=4, transcript_sink=seen.append)
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
    size = block_size(3)
    config = GameConfig(n=3, m=2, strategy=strategy, trials=size + 5, seed=3,
                        **extra)
    seen: list[Transcript] = []
    stats = monte_carlo(config, workers=2, transcript_sink=seen.append)
    assert [t.trial for t in seen] == list(range(size + 5))
    assert [t.to_dict()["trial"] for t in seen[size - 1:size + 1]] == [
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
    # its truth (criterion 7), so the sink stage flips d positions of every
    # truth of the block, as for the quantum strategy; the outcomes of
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
    seen: list[Transcript] = []
    stats = monte_carlo(config, transcript_sink=seen.append)
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
    """A block played in one pass, the reference for the staged block: it
    selects every subset, gathers every truth and measures every quantum
    trial and completed round, whether or not transcripts are wanted, and
    scores each trial on its sampled subset.  Draw order: [x (cover)],
    [rounds], [d], [x (quantum, steering)], the subset keys, [flips].
    Returns (wins, aborts, transcript records)."""
    n, m = config.n, config.m
    aborted = np.zeros(size, dtype=bool)
    if config.strategy == STRATEGY_CLASSICAL_COVER:
        x = rng.integers(0, 2, size=(size, n), dtype=np.int8)
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
        x = rng.integers(0, 2, size=(size, n), dtype=np.int8)
    keys = rng.random((size, n))
    y = np.sort(np.argpartition(keys, m - 1, axis=1)[:, :m], axis=1)
    truth = np.take_along_axis(x, y, axis=1)
    if config.strategy == STRATEGY_CLASSICAL_COVER:
        cover = build_cover_strategy(n, m)
        chosen = cover.assignment[outcome_indices(x)]
        answer = (cover.values[chosen, None] >> (n - 1 - y)) & 1
        messages = [{"kind": "classical_message", "bits": str(cover.messages[c])}
                    for c in chosen]
    else:
        ranks = rng.random((size, m)).argsort(axis=1).argsort(axis=1)
        answer = truth ^ (ranks < d[:, None])
    won = (answer != truth).any(axis=1) & ~aborted
    records = [{"x": "".join(map(str, x[row])),
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
    # Several seeds, m = 1, m = n, and a 4,097-trial run of two blocks.
    for n, m, trials, seed in ((5, 1, 300, 0), (5, 5, 300, 1), (6, 3, 200, 2),
                               (6, 3, 200, 9), (4, 2, 4097, 3)):
        config = GameConfig(n=n, m=m, strategy=strategy, trials=trials,
                            seed=seed, **extra)
        size = block_size(n)
        wins = aborts = 0
        expected: list[dict] = []
        for block in range(-(-trials // size)):
            rng = make_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
            w, a, records = reference_block(
                config, rng, min(size, trials - block * size), block * size)
            wins, aborts, expected = wins + w, aborts + a, expected + records
        seen: list[Transcript] = []
        stats = monte_carlo(config, transcript_sink=seen.append)
        assert (stats.wins, stats.aborts) == (wins, aborts)
        assert [t.to_dict() for t in seen] == expected
        assert monte_carlo(config) == stats
        if strategy == STRATEGY_ENTANGLEMENT_ASSISTED and trials > 1000:
            assert 0 < aborts < trials


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
                        trials=block_size(4) + 3, seed=6, **extra)
    seen: list[Transcript] = []
    stats = monte_carlo(config, transcript_sink=seen.append)
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
                        trials=3 * game.block_size(8) + 1, seed=5, k=3,
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
    x = referee_draw(16, block_rng, 400)
    x_index = x @ (1 << np.arange(15, -1, -1, dtype=np.int64))
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
    size = block_size(n)
    trials = full_blocks * size + tail
    counts = np.zeros(1 << n, dtype=np.int64)
    for block in range(full_blocks + 1):
        rng = make_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        x = referee_draw(n, rng, min(size, trials - block * size))
        counts += np.bincount(x @ (1 << np.arange(n - 1, -1, -1)),
                              minlength=1 << n)
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
        x = referee_draw(8, make_rng(np.random.SeedSequence(
            11, spawn_key=(0,))), trials)
        counts = np.bincount(x @ (1 << np.arange(7, -1, -1)), minlength=256)
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
        x = referee_draw(16, make_rng(np.random.SeedSequence(
            11, spawn_key=(block,))), 4096)
        counts += np.bincount(x @ (1 << np.arange(15, -1, -1)),
                              minlength=1 << 16)
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
    n, 2, "classical_cover", trials=2 * game.block_size(n), seed=0))
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


def test_strategy_listing():
    assert STRATEGIES == (STRATEGY_QUANTUM, STRATEGY_CLASSICAL_COVER,
                          STRATEGY_ENTANGLEMENT_ASSISTED)
    assert RunStatistics(
        strategy=STRATEGY_QUANTUM, trials=1, wins=1, aborts=0, win_rate=1.0,
        abort_rate=0.0, message_bits={"qubits": 1.0},
        empirical_conditional_entropy=None,
    ).to_dict()["strategy"] == "quantum"
