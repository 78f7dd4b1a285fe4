"""Referee, single trials, and the Monte Carlo harness."""

import math

import numpy as np
import pytest

from exclab import pbr
from exclab.game import (
    STEERING_SET_BUDGET,
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
)
from exclab.pbr import BitString, IndexSubset, restrict
from exclab.classical import build_cover_strategy
from exclab.qcore import (
    ProbabilityDistribution,
    ResourceLimitError,
    StateVector,
    conditional_entropy,
    make_rng,
)
from exclab.steering import p_abort, p_global_steer
from test_pbr import THREE_SIGMA_TAIL, chi2_sf, outcome_indices


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
    x, y = referee_draw(n, m, rng, draws)
    assert x.shape == (draws, n) and x.dtype == np.int8
    assert y.shape == (draws, m)
    assert ((x == 0) | (x == 1)).all()
    # Positions are 0-based, distinct and sorted within each row.
    assert (y >= 0).all() and (y < n).all() and (np.diff(y, axis=1) > 0).all()
    ones = x.sum(axis=0)
    subset_hits = {s.indices: 0 for s in IndexSubset.all_subsets(n, m)}
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
    x, y = referee_draw(n, m, make_rng(1618), draws)
    subsets = {s.indices: i for i, s in enumerate(IndexSubset.all_subsets(n, m))}
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
            conditional_entropy(ProbabilityDistribution.from_counts(counts)),
            abs=1e-12)


def test_monte_carlo_preflight_rejects_oversized_games():
    # Cover construction caps n.
    with pytest.raises(ResourceLimitError):
        monte_carlo(GameConfig(n=17, m=2, strategy=STRATEGY_CLASSICAL_COVER,
                               trials=1, seed=0))
    # One trial draws at most TRIAL_MAX_N input bits, whatever the strategy.
    for strategy, extra in ((STRATEGY_QUANTUM, {}),
                            (STRATEGY_ENTANGLEMENT_ASSISTED,
                             {"k": 3, "delta": 0.5})):
        with pytest.raises(ResourceLimitError, match="input bits"):
            monte_carlo(GameConfig(n=TRIAL_MAX_N + 1, m=2, strategy=strategy,
                                   trials=1, seed=0, **extra))
    with pytest.raises(ValueError):
        monte_carlo(quantum_config(), workers=0)


def test_steering_runs_past_the_dense_qubit_cap_are_refused():
    # Completed rounds measure the steered qubits densely, so m is capped at
    # pbr.MAX_QUBITS = 13; quantum is not (test_cli covers m = 100).
    with pytest.raises(ResourceLimitError, match="steered receiver"):
        monte_carlo(GameConfig(n=14, m=14,
                               strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
                               trials=1, seed=0, k=11, delta=0.05))


def test_steering_trials_measure_the_steered_product_encoding(monkeypatch):
    measured = []
    original = pbr.born_measure

    def recording(state, measurement, rng):
        measured.append(state)
        return original(state, measurement, rng)

    monkeypatch.setattr(pbr, "born_measure", recording)
    config = GameConfig(n=6, m=4, strategy=STRATEGY_ENTANGLEMENT_ASSISTED,
                        trials=1, seed=0, k=40, delta=0.05)
    for seed in range(5):
        transcript = run_trial(config, make_rng(seed))
        assert not transcript.aborted and transcript.won
        truth = restrict(transcript.x, transcript.y)
        encoding = pbr.product_state(truth, pbr.critical_angle(config.m))
        overlap = abs(np.vdot(encoding.amplitudes, measured[-1].amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)
    assert len(measured) == 5


def test_quantum_trials_build_no_dense_measurement_or_state_vector(monkeypatch):
    monkeypatch.setattr(pbr, "_measurement_cache", {})
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
    assert dense_builds == [] and states == [] and pbr._measurement_cache == {}


def steering_config(**overrides) -> GameConfig:
    base = dict(n=60, m=3, strategy=STRATEGY_ENTANGLEMENT_ASSISTED, trials=1,
                seed=0, k=3293842468475, delta=0.05)
    base.update(overrides)
    return GameConfig(**base)


def test_monte_carlo_refuses_steering_runs_past_the_set_budget():
    p_g = p_global_steer(60, 3)
    assert 1.0 / p_g > STEERING_SET_BUDGET
    with pytest.raises(ResourceLimitError, match="shared sets"):
        monte_carlo(steering_config())
    # With k * p_g small, nearly every round walks all k sets.
    with pytest.raises(ResourceLimitError):
        monte_carlo(steering_config(k=10**6, trials=1001))
    # p_g underflows at n = 2000: every set fails, so a round walks all k.
    assert p_global_steer(2000, 3) == 0.0
    with pytest.raises(ResourceLimitError):
        monte_carlo(steering_config(n=2000, k=STEERING_SET_BUDGET + 1))
    # A k far past 2**64 with a tiny expected round still runs.
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
