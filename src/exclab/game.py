"""Monte Carlo referee for the exclusion game.

Each trial draws a uniform input x and a uniform size-m subset y, runs one of
three sender/receiver strategies, and scores a win when the receiver's answer
differs from the true restriction of x on y:

* ``quantum``: the sender ships the n-qubit product encoding at the critical
  angle; the receiver applies the exclusion measurement to the qubits in y.
  The encoding is a product state, so the receiver's view is the encoding of
  the restriction alone, and its outcome is sampled in closed form from the
  distance law of ``pbr.measure_exclusion``.
* ``classical_cover``: the sender announces a covering message; the receiver
  answers with its restriction, which by construction never equals the truth.
* ``entanglement_assisted``: the steering protocol either aborts or leaves
  the receiver holding the product encoding, on whose steered qubits the
  receiver applies the dense exclusion measurement (so m <= MAX_QUBITS).

Trials use independent counter-based substreams (one SeedSequence spawn per
trial index), so statistics are identical however trials are distributed over
workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .classical import CoverStrategy, build_cover_strategy
from .pbr import (
    MAX_QUBITS,
    BitString,
    IndexSubset,
    measure_exclusion,
    measure_exclusion_dense,
    restrict,
)
# Unused here; bound for perfbench/spans.py's tracer (ROADMAP item 2).
from .pbr import product_state  # noqa: F401
from .qcore import (
    ProbabilityDistribution,
    ResourceLimitError,
    StateVector,
    conditional_entropy,
    make_rng,
    tensor_product,
    usable_workers,
)
from .steering import SteeringParameters, p_global_steer, run_steering_round

STRATEGY_QUANTUM = "quantum"
STRATEGY_CLASSICAL_COVER = "classical_cover"
STRATEGY_ENTANGLEMENT_ASSISTED = "entanglement_assisted"
STRATEGIES = (
    STRATEGY_QUANTUM,
    STRATEGY_CLASSICAL_COVER,
    STRATEGY_ENTANGLEMENT_ASSISTED,
)
# Largest expected number of shared sets an entanglement-assisted run may
# walk: about 11 minutes at the ~1.5 M sets/s measured at n = 40, m = 4.
STEERING_SET_BUDGET = 10**9
# Largest n one trial may draw.  The input costs about 25 bytes per bit (an
# int64 draw, then a tuple of ints): ~25 MB and ~0.3 s per trial at the cap.
TRIAL_MAX_N = 10**6


@dataclass(frozen=True)
class GameConfig:
    """One batch of trials: game size, strategy, and reproducibility seed.

    ``delta`` and ``k`` belong to the entanglement-assisted strategy only and
    must be absent otherwise.
    """

    n: int
    m: int
    strategy: str
    trials: int
    seed: int
    delta: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.strategy == STRATEGY_ENTANGLEMENT_ASSISTED:
            if self.k is None or self.delta is None:
                raise ValueError(
                    "entanglement_assisted needs both k and delta"
                )
            if self.k < 1:
                raise ValueError(f"k must be >= 1, got {self.k}")
            if not 0.0 < self.delta < 1.0:
                raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        elif self.k is not None or self.delta is not None:
            raise ValueError(
                f"k and delta apply only to entanglement_assisted, "
                f"not {self.strategy!r}"
            )


@dataclass(frozen=True, eq=False)
class Transcript:
    """Record of one trial.  ``answer`` and ``won`` are None exactly when the
    trial aborted; otherwise ``won`` restates answer != restriction."""

    x: BitString
    y: IndexSubset
    message: dict
    answer: BitString | None
    aborted: bool
    won: bool | None

    def __post_init__(self) -> None:
        if self.aborted:
            if self.answer is not None or self.won is not None:
                raise ValueError("aborted trials carry no answer or verdict")
        else:
            if self.answer is None or self.won is None:
                raise ValueError("completed trials need an answer and verdict")
            if self.won != (self.answer != restrict(self.x, self.y)):
                raise ValueError("verdict disagrees with answer")

    def to_dict(self) -> dict:
        return {
            "x": str(self.x),
            "y": list(self.y.indices),
            "message": self.message,
            "answer": None if self.answer is None else str(self.answer),
            "aborted": self.aborted,
            "won": self.won,
        }


@dataclass(frozen=True)
class RunStatistics:
    """Associatively mergeable batch summary."""

    strategy: str
    trials: int
    wins: int
    aborts: int
    win_rate: float | None
    abort_rate: float
    message_bits: dict
    empirical_conditional_entropy: float | None

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "trials": self.trials,
            "wins": self.wins,
            "aborts": self.aborts,
            "win_rate": self.win_rate,
            "abort_rate": self.abort_rate,
            "message_bits": self.message_bits,
            "empirical_conditional_entropy": self.empirical_conditional_entropy,
        }


def referee_draw(n: int, m: int,
                 rng: np.random.Generator) -> tuple[BitString, IndexSubset]:
    """Uniform input string and uniform size-m subset, in that draw order."""
    bits = rng.integers(0, 2, size=n)
    x = BitString(tuple(int(b) for b in bits))
    positions = rng.choice(n, size=m, replace=False)
    y = IndexSubset(tuple(sorted(int(p) + 1 for p in positions)))
    return x, y


@lru_cache(maxsize=None)
def _cover(n: int, m: int) -> CoverStrategy:
    return build_cover_strategy(n, m)


def run_trial(config: GameConfig, rng: np.random.Generator) -> Transcript:
    """Play one trial; all randomness is drawn from ``rng`` in a fixed order
    (input bits, subset, then strategy-internal draws)."""
    x, y = referee_draw(config.n, config.m, rng)
    truth = restrict(x, y)

    if config.strategy == STRATEGY_CLASSICAL_COVER:
        announced = _cover(config.n, config.m).message_for(x)
        message = {"kind": "classical_message", "bits": str(announced)}
        answer = restrict(announced, y)
    elif config.strategy == STRATEGY_QUANTUM:
        message = {"kind": "quantum_state", "qubits": config.n}
        answer = measure_exclusion(truth, rng)
    else:
        params = SteeringParameters(config.n, config.m, config.k, config.delta)
        round_result = run_steering_round(params, x, rng)
        if round_result.aborted:
            return Transcript(x=x, y=y, message={"kind": "abort"},
                              answer=None, aborted=True, won=None)
        message = {"kind": "set_index", "value": round_result.set_index}
        # The receiver measures the qubits the round steered, not the product
        # encoding they should equal (acceptance criterion 7), so every
        # completed round exercises the steering identities.
        state: StateVector | None = None
        for position in y.indices:
            qubit = round_result.receiver_states[position - 1]
            state = qubit if state is None else tensor_product(state, qubit)
        answer = measure_exclusion_dense(state, rng)
    return Transcript(x=x, y=y, message=message, answer=answer,
                      aborted=False, won=answer != truth)


def _preflight(config: GameConfig) -> None:
    """Surface configuration and resource violations before any trial runs."""
    if config.n > TRIAL_MAX_N:
        raise ResourceLimitError(
            f"a trial draws n = {config.n} input bits, past the budget of "
            f"{TRIAL_MAX_N}")
    if config.strategy == STRATEGY_CLASSICAL_COVER:
        _cover(config.n, config.m)
    if config.strategy == STRATEGY_ENTANGLEMENT_ASSISTED:
        if config.m > MAX_QUBITS:
            raise ResourceLimitError(
                f"steered receiver measurement needs m <= {MAX_QUBITS}, "
                f"got {config.m}")
        # A round walks (1 - p_abort)/p_g sets on average, k once p_g
        # underflows; capping k at 2**64 moves that mean only past any budget.
        p_g, k = p_global_steer(config.n, config.m), min(config.k, 2**64)
        sets = k if p_g == 0.0 else -math.expm1(k * math.log1p(-p_g)) / p_g
        if config.trials * sets > STEERING_SET_BUDGET:
            raise ResourceLimitError(
                f"{config.trials} steering trials walk ~{config.trials * sets:.3g}"
                f" shared sets, past the budget of {STEERING_SET_BUDGET}")


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    # Child i of SeedSequence(seed); constructed directly so workers need not
    # materialize the whole spawn list.
    return make_rng(np.random.SeedSequence(seed, spawn_key=(trial_index,)))


def _message_bits(config: GameConfig) -> dict:
    if config.strategy == STRATEGY_QUANTUM:
        return {"qubits": float(config.n)}
    if config.strategy == STRATEGY_CLASSICAL_COVER:
        return {"bits": float(config.n)}
    # The announced set index costs log2(k) bits of information; a concrete
    # encoding needs ceil(log2 k) index bits plus one extra abort symbol.
    return {
        "set_index_bits": math.log2(config.k),
        "set_index_bits_ceil": math.ceil(math.log2(config.k)),
        "alphabet_with_abort": config.k + 1,
    }


def _run_range(config: GameConfig, start: int, stop: int,
               sink: Callable[[Transcript], None] | None = None):
    """Aggregate trials [start, stop); returns (wins, aborts, joint_counts)."""
    wins = 0
    aborts = 0
    counts = None
    if config.strategy == STRATEGY_CLASSICAL_COVER:
        strategy = _cover(config.n, config.m)
        counts = np.zeros((1 << config.n, len(strategy.messages)),
                          dtype=np.int64)
    for index in range(start, stop):
        transcript = run_trial(config, _trial_rng(config.seed, index))
        if transcript.aborted:
            aborts += 1
        elif transcript.won:
            wins += 1
        if counts is not None:
            x_index = transcript.x.to_index()
            counts[x_index, strategy.assignment[x_index]] += 1
        if sink is not None:
            sink(transcript)
    return wins, aborts, counts


def monte_carlo(config: GameConfig, workers: int = 1,
                transcript_sink: Callable[[Transcript], None] | None = None,
                ) -> RunStatistics:
    """Run ``config.trials`` independent trials and summarize them.

    With ``workers > 1`` trials are split into contiguous chunks over a
    process pool (one worker at most per usable CPU and per trial); per-trial
    substreams make the result identical to a serial run.  Streaming
    transcripts to ``transcript_sink`` forces the serial path so the sink
    sees trials in order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _preflight(config)
    workers = usable_workers(workers, config.trials)

    if workers == 1 or transcript_sink is not None:
        wins, aborts, counts = _run_range(config, 0, config.trials,
                                          transcript_sink)
    else:
        bounds = np.linspace(0, config.trials, workers + 1, dtype=np.int64)
        ranges = [(config, int(a), int(b))
                  for a, b in zip(bounds, bounds[1:]) if a < b]
        wins, aborts, counts = 0, 0, None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for w, a, c in pool.map(_run_range_star, ranges):
                wins += w
                aborts += a
                if c is not None:
                    counts = c if counts is None else counts + c

    completed = config.trials - aborts
    entropy = None
    if counts is not None:
        entropy = conditional_entropy(ProbabilityDistribution.from_counts(counts))
    return RunStatistics(
        strategy=config.strategy,
        trials=config.trials,
        wins=wins,
        aborts=aborts,
        win_rate=(wins / completed) if completed else None,
        abort_rate=aborts / config.trials,
        message_bits=_message_bits(config),
        empirical_conditional_entropy=entropy,
    )


def _run_range_star(args) -> tuple:
    return _run_range(*args)
