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

Trials are played in blocks of ``block_size(n)``: block b holds trials
b * block_size(n) onward and draws only from its own counter-based substream,
child b of SeedSequence(seed), in a fixed order (the block's inputs, its
subsets, then the strategy's draws row by row or for the whole block).  Block
boundaries depend on n alone, so statistics are identical however blocks are
distributed over workers.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
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
# Largest n one trial may draw, and the most input bits a block draws.  The
# draw holds 17 bytes per bit (int8 bits, float64 keys, int64 positions).
TRIAL_MAX_N = 10**6
# Trials per block below that budget.
BLOCK_TRIALS = 4096


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
            raise ValueError(f"strategy must be one of {STRATEGIES}, "
                             f"got {self.strategy!r}")
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
                raise ValueError("entanglement_assisted needs both k and delta")
            SteeringParameters(self.n, self.m, self.k, self.delta)  # checks k, delta
        elif self.k is not None or self.delta is not None:
            raise ValueError(f"k and delta apply only to entanglement_assisted, "
                             f"not {self.strategy!r}")


@dataclass(frozen=True, eq=False)
class Transcript:
    """Record of trial ``trial`` of a run.  ``answer`` and ``won`` are None
    exactly when the trial aborted; otherwise ``won`` restates
    answer != restriction."""

    x: BitString
    y: IndexSubset
    message: dict
    answer: BitString | None
    aborted: bool
    won: bool | None
    trial: int

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
            "trial": self.trial,
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
        return asdict(self)


def referee_draw(n: int, m: int, rng: np.random.Generator,
                 size: int) -> tuple[np.ndarray, np.ndarray]:
    """``size`` uniform inputs and uniform size-m subsets, in that draw order:
    x as a (size, n) int8 array of bits, then y as the (size, m) sorted
    0-based positions of the m smallest of n uniform keys per row."""
    x = rng.integers(0, 2, size=(size, n), dtype=np.int8)
    keys = rng.random((size, n))
    y = np.sort(np.argpartition(keys, m - 1, axis=1)[:, :m], axis=1)
    return x, y


@lru_cache(maxsize=None)
def _cover(n: int, m: int) -> CoverStrategy:
    return build_cover_strategy(n, m)


def block_size(n: int) -> int:
    """Trials per block: BLOCK_TRIALS, or fewer so that a block draws at most
    TRIAL_MAX_N input bits (one trial at n = TRIAL_MAX_N)."""
    return max(1, min(BLOCK_TRIALS, TRIAL_MAX_N // n))


def _steer_rows(config: GameConfig, x: np.ndarray, y: np.ndarray,
                rng: np.random.Generator, answer: np.ndarray,
                aborted: np.ndarray) -> list[dict]:
    """Steering rounds of a block, row by row from the block's generator:
    fills ``answer`` and ``aborted``, returns the announced messages."""
    params = SteeringParameters(config.n, config.m, config.k, config.delta)
    messages = []
    for row in range(len(x)):
        round_result = run_steering_round(params, BitString(x[row]), rng)
        aborted[row] = round_result.aborted
        messages.append({"kind": "abort"} if round_result.aborted else
                        {"kind": "set_index", "value": round_result.set_index})
        if round_result.aborted:
            continue
        # The receiver measures the qubits the round steered, not the product
        # encoding they should equal (acceptance criterion 7), so every
        # completed round exercises the steering identities.
        state = None
        for position in y[row]:
            qubit = round_result.receiver_states[position]
            state = qubit if state is None else tensor_product(state, qubit)
        answer[row] = measure_exclusion_dense(state, rng).bits
    return messages


def _play_block(config: GameConfig, rng: np.random.Generator, size: int,
                first: int = 0,
                sink: Callable[[Transcript], None] | None = None):
    """Play trials first .. first + size - 1, drawing only from ``rng``: the
    referee's inputs and subsets for the whole block, then the strategy's
    draws.  Returns (wins, aborts, flat joint counts of x and message)."""
    n, m = config.n, config.m
    x, y = referee_draw(n, m, rng, size)
    truth = np.take_along_axis(x, y, axis=1)
    aborted = np.zeros(size, dtype=bool)
    counts = None
    if config.strategy == STRATEGY_QUANTUM:
        answer = measure_exclusion(truth, rng)
        messages = ({"kind": "quantum_state", "qubits": n} for _ in x)
    elif config.strategy == STRATEGY_CLASSICAL_COVER:
        cover = _cover(n, m)
        x_index = x @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
        chosen = cover.assignment_array[x_index]
        answer = np.take_along_axis(cover.message_bits[chosen], y, axis=1)
        counts = np.bincount(x_index * len(cover.messages) + chosen,
                             minlength=len(cover.messages) << n)
        messages = ({"kind": "classical_message",
                     "bits": str(cover.messages[c])} for c in chosen)
    else:
        answer = np.zeros_like(truth)
        messages = _steer_rows(config, x, y, rng, answer, aborted)
    won = (answer != truth).any(axis=1) & ~aborted
    if sink is not None:
        for row, message in enumerate(messages):
            done = not aborted[row]
            sink(Transcript(x=BitString(x[row]), y=IndexSubset(y[row] + 1),
                            message=message,
                            answer=BitString(answer[row]) if done else None,
                            aborted=not done,
                            won=bool(won[row]) if done else None,
                            trial=first + row))
    return int(won.sum()), int(aborted.sum()), counts


def run_trial(config: GameConfig, rng: np.random.Generator) -> Transcript:
    """Play one trial, the block of size 1, drawing only from ``rng``."""
    transcripts: list[Transcript] = []
    _play_block(config, rng, 1, sink=transcripts.append)
    return transcripts[0]


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


def _merge(parts) -> tuple:
    """Sum (wins, aborts, joint counts or None) triples."""
    wins, aborts, counts = 0, 0, None
    for w, a, c in parts:
        wins, aborts = wins + w, aborts + a
        counts = c if counts is None else counts + c
    return wins, aborts, counts


def _run_blocks(config: GameConfig, first: int, stop: int,
                sink: Callable[[Transcript], None] | None = None):
    """Aggregate blocks [first, stop); returns (wins, aborts, joint counts).
    Block b plays trials from b * block_size(n) on, from its own substream,
    child b of SeedSequence(seed), constructed directly so that workers need
    not materialize the whole spawn list."""
    size = block_size(config.n)

    def play(block: int) -> tuple:
        rng = make_rng(np.random.SeedSequence(config.seed, spawn_key=(block,)))
        start = block * size
        return _play_block(config, rng, min(size, config.trials - start),
                           start, sink)
    return _merge(map(play, range(first, stop)))


def monte_carlo(config: GameConfig, workers: int = 1,
                transcript_sink: Callable[[Transcript], None] | None = None,
                ) -> RunStatistics:
    """Run ``config.trials`` independent trials and summarize them.

    With ``workers > 1`` the blocks of trials are split into contiguous
    ranges over a process pool (one worker at most per usable CPU and per
    block, so a call of one block starts none); per-block substreams make
    the result identical to a serial run.  Streaming transcripts to
    ``transcript_sink`` forces the serial path so the sink sees trials in
    order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _preflight(config)
    blocks = -(-config.trials // block_size(config.n))
    workers = usable_workers(workers, blocks)

    if workers == 1 or transcript_sink is not None:
        wins, aborts, counts = _run_blocks(config, 0, blocks, transcript_sink)
    else:
        edges = np.linspace(0, blocks, workers + 1, dtype=np.int64).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            wins, aborts, counts = _merge(pool.map(
                _run_blocks, itertools.repeat(config), edges[:-1], edges[1:]))

    completed = config.trials - aborts
    entropy = None
    if counts is not None:
        joint = counts.reshape(1 << config.n, -1)
        entropy = conditional_entropy(ProbabilityDistribution.from_counts(joint))
    return RunStatistics(
        strategy=config.strategy, trials=config.trials, wins=wins,
        aborts=aborts, win_rate=(wins / completed) if completed else None,
        abort_rate=aborts / config.trials, message_bits=_message_bits(config),
        empirical_conditional_entropy=entropy)
