"""Monte Carlo referee for the exclusion game.

Each trial draws a uniform input x and a uniform size-m subset y, runs one of
three sender/receiver strategies, and scores a win when the receiver's answer
differs from the true restriction of x on y:

* ``quantum``: the sender ships the n-qubit product encoding at the critical
  angle; the receiver applies the exclusion measurement to the qubits in y.
  The encoding is a product state, so the receiver's view is the encoding of
  the restriction alone, and its outcome lies at a distance d >= 1 from the
  truth, drawn from the distance law of ``pbr.sample_distance``.
* ``classical_cover``: the sender announces a covering message; the receiver
  answers with its restriction, which by construction never equals the truth.
* ``entanglement_assisted``: the sender announces the first shared set that
  steered (``steering.draw_rounds``) or aborts; a completed round leaves the
  receiver holding the product encoding (criterion 7), measured as above.

Block b holds trials b * BLOCK_TRIALS onward, whatever n is, and draws only
from its own counter-based substream, child b of SeedSequence(seed), so
statistics are identical however blocks are distributed over workers.
``GameConfig`` refuses n past TRIAL_MAX_N, so every entry point refuses an
oversized trial before it draws.  One function plays each strategy's
block, and ``_lines`` writes its rows' transcripts for a sink:

* ``_cover_block`` draws x (``referee_draw``), reads it as an index, and
  wins iff its message serves x: the two differ in more than n - m
  positions, so on every size-m subset.  With a sink it selects y
  (``select_subsets``, n keys per trial) and answers with the message's bits.
* ``_quantum_block`` plays ``quantum`` and, after the steering rounds,
  ``entanglement_assisted``: a trial or completed round wins iff d >= 1.
  With a sink it draws x, selects y and flips d positions of the truth
  (``pbr.flip_positions``, m keys per trial), max(1, TRIAL_MAX_N // n) rows
  at a time, so that a sink draws at most TRIAL_MAX_N input bits at once.

So a block draws [x (cover)], [the rounds], [d], then only with a sink [x
(quantum, steering)], the subset keys, [the flip keys], chunk by chunk: a
sinkless run draws a prefix of that, so its report is the same either way.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .classical import CoverStrategy, build_cover_strategy
from .pbr import (BitString, GameParameters, IndexSubset, flip_positions,
                  sample_distance)
from .qcore import (
    ResourceLimitError,
    conditional_entropy,
    make_rng,
    pool_map,
    usable_workers,
)
# Unused here; bound for perfbench/spans.py's tracer (ROADMAP item 1).
from .pbr import measure_exclusion, product_state, restrict  # noqa: F401
from .qcore import tensor_product  # noqa: F401
from .steering import run_steering_round  # noqa: F401
from .steering import SteeringParameters, draw_rounds

STRATEGY_QUANTUM = "quantum"
STRATEGY_CLASSICAL_COVER = "classical_cover"
STRATEGY_ENTANGLEMENT_ASSISTED = "entanglement_assisted"
STRATEGIES = (
    STRATEGY_QUANTUM,
    STRATEGY_CLASSICAL_COVER,
    STRATEGY_ENTANGLEMENT_ASSISTED,
)
# Largest n one trial may draw, and the most input bits a sink draws at a
# time: 17 bytes per bit (uint8 bits, float64 keys, int64 positions).
TRIAL_MAX_N = 10**6
# Trials per block, whatever n is.
BLOCK_TRIALS = 4096
# A run whose workers never fill 2**n inputs counts them in 2**n cells
# while 2**n <= DENSE_COUNT_RATIO * its inputs, else with ``np.unique``,
# whose fixed cost of about 14 us the dense count undercuts on a small
# cube.  The ratio is the measured crossover: on a 2-CPU Xeon the dense
# count was faster at every ratio tried (up to 32) at 2**12 cells, about
# even from 6 to 12 at 2**14, and slower past about 5 at 2**16.
DENSE_COUNT_RATIO = 10


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
        GameParameters(self.n, self.m)
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
        if self.n > TRIAL_MAX_N:
            raise ResourceLimitError(
                f"a trial draws n = {self.n} input bits, past the budget of "
                f"{TRIAL_MAX_N}")


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
        elif self.answer is None or self.won is None:
            raise ValueError("completed trials need an answer and verdict")
        elif self.y.indices[-1] > len(self.x):
            raise ValueError("subset index exceeds string length")
        elif self.won != (self.answer.bits != tuple(
                self.x.bits[i - 1] for i in self.y.indices)):
            raise ValueError("verdict disagrees with answer")


@dataclass(frozen=True)
class RunStatistics:
    """Summary of one batch of trials, the report's ``statistics``."""

    strategy: str
    trials: int
    wins: int
    aborts: int
    win_rate: float | None
    abort_rate: float
    message_bits: dict
    empirical_conditional_entropy: float | None

    def to_dict(self) -> dict:
        return dict(vars(self))


def referee_draw(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform inputs x, row i's the first n bits, MSB first, of its
    ceil(n / 64) uint64 words of ``rng.bit_generator.random_raw``."""
    return rng.bit_generator.random_raw((size, -(-n // 64)))


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) uint8 bits of ``referee_draw``'s words, by big-endian bytes."""
    return np.unpackbits(words.astype(">u8").view(np.uint8), axis=1, count=n)


def select_subsets(keys: np.ndarray, m: int) -> np.ndarray:
    """The (rows, m) sorted 0-based positions of each row's m smallest keys:
    a uniform size-m subset per row of uniform keys."""
    return np.sort(np.argpartition(keys, m - 1, axis=1)[:, :m], axis=1)


@lru_cache(maxsize=None)
def _cover(n: int, m: int) -> CoverStrategy:
    return build_cover_strategy(n, m)


def _lines(first: int, x: np.ndarray, y: np.ndarray, messages,
           answer: np.ndarray, won: np.ndarray, aborted: np.ndarray) -> str:
    """Rows' Transcripts, trials first onward, as ``json.dumps`` lines with
    sorted keys, bits as str and y 1-based; messages come as JSON text."""
    x, answer = ([row.decode() for row in np.pad(  # each row as a JSON str
        bits + 48, ((0, 0), (1, 1)), constant_values=34).astype(np.uint8)
        .view(f"S{bits.shape[1] + 2}")[:, 0].tolist()] for bits in (x, answer))
    return "".join(
        f'{{"aborted": {"true" if a else "false"}, "answer": '
        f'{"null" if a else said}, "message": {message}, "trial": {trial}, '
        f'"won": {"null" if a else ("false", "true")[w]}, "x": {bits}, '
        f'"y": {subset}}}\n' for trial, bits, subset, message, said, w, a in
        zip(itertools.count(first), x, (y + 1).tolist(), messages, answer,
            won.tolist(), aborted.tolist()))


def _cover_block(config: GameConfig, rng: np.random.Generator, size: int,
                 first: int, sink: Callable[[str], None] | None):
    """A ``classical_cover`` block; returns (wins, 0, x_index), its inputs,
    unsorted, as the top n bits of one word each (n <= COVER_MAX_N), which
    ``monte_carlo`` counts: H(X | M) is fixed by them, M a function of X."""
    n, m = config.n, config.m
    cover = _cover(n, m)
    words = referee_draw(n, rng, size)
    x_index = (words[:, 0] >> (64 - n)).astype(np.int64)
    chosen = cover.assignment[x_index]
    sent = cover.values[chosen]
    won = np.bitwise_count(sent ^ x_index) > n - m
    if sink is not None:
        y = select_subsets(rng.random((size, n)), m)
        texts = {c: f'{{"bits": "{cover.messages[c]}", "kind": '
                    '"classical_message"}' for c in set(chosen.tolist())}
        sink(_lines(first, _bits(words, n), y, map(texts.get, chosen.tolist()),
                    (sent[:, None] >> (n - 1 - y)) & 1, won, np.zeros_like(won)))
    return int(won.sum()), 0, x_index


def _quantum_block(config: GameConfig, rng: np.random.Generator, size: int,
                   first: int, sink: Callable[[str], None] | None):
    """A ``quantum`` or ``entanglement_assisted`` block; returns (wins,
    aborts, None)."""
    n, m = config.n, config.m
    aborted, set_index = np.zeros(size, dtype=bool), None
    if config.strategy == STRATEGY_ENTANGLEMENT_ASSISTED:
        aborted, set_index = draw_rounds(config, rng, size)  # checked n, m, k
    d = sample_distance(m, rng, size)
    won = (d > 0) & ~aborted
    step = max(1, TRIAL_MAX_N // n)  # rows per chunk of a sink's draws
    for start in range(0, size if sink is not None else 0, step):
        rows = slice(start, start + step)
        x = _bits(referee_draw(n, rng, len(d[rows])), n)
        y = select_subsets(rng.random(x.shape), m)
        answer = flip_positions(np.take_along_axis(x, y, axis=1), d[rows], rng)
        messages = ([f'{{"kind": "quantum_state", "qubits": {n}}}'] * len(x)
                    if set_index is None else
                    ['{"kind": "abort"}' if a else '{"kind": "set_index", '
                     f'"value": {int(j)}}}' for a, j in zip(
                         aborted[rows].tolist(), set_index[rows].tolist())])
        sink(_lines(first + start, x, y, messages, answer, won[rows],
                    aborted[rows]))
    return int(won.sum()), int(aborted.sum()), None


def _play_block(config: GameConfig, rng: np.random.Generator, size: int,
                first: int, sink: Callable[[str], None] | None):
    """Play the block of ``config``'s strategy, drawing only from ``rng``."""
    play = (_cover_block if config.strategy == STRATEGY_CLASSICAL_COVER
            else _quantum_block)
    return play(config, rng, size, first, sink)


def read_transcripts(lines: str) -> list[Transcript]:
    """The checked Transcripts of a transcript sink's JSON lines."""
    return [Transcript(**{**r, "x": BitString.from_string(r["x"]),
                          "y": IndexSubset(r["y"]), "answer": r["answer"]
                          and BitString.from_string(r["answer"])})
            for r in map(json.loads, lines.splitlines())]


def run_trial(config: GameConfig, rng: np.random.Generator) -> Transcript:
    """Play one trial, the block of size 1, drawing only from ``rng``."""
    lines: list[str] = []
    _play_block(config, rng, 1, 0, lines.append)
    return read_transcripts(lines[0])[0]


def _message_bits(config: GameConfig) -> dict:
    if config.strategy == STRATEGY_QUANTUM:
        return {"qubits": float(config.n)}
    if config.strategy == STRATEGY_CLASSICAL_COVER:
        return {"bits": float(config.n)}
    # The announced set index costs log2(k) bits of information; a concrete
    # encoding needs ceil(log2 k) index bits plus one extra abort symbol.
    return {
        "set_index_bits": math.log2(config.k),
        "set_index_bits_ceil": (config.k - 1).bit_length(),
        "alphabet_with_abort": config.k + 1,
    }


def _run_blocks(config: GameConfig, first: int, stop: int,
                sink: Callable[[str], None] | None = None):
    """Aggregate blocks [first, stop); returns (wins, aborts, counts of x or
    None, leftover input indices).  Block b plays trials from b *
    BLOCK_TRIALS on, from its own substream, child b of SeedSequence(seed),
    constructed directly so that workers need not materialize the whole
    spawn list.  Input indices wait until 2**n of them are pending; one
    ``bincount`` then folds them into 2**n counts, a fold paid for by 2**n
    trials or more.  The indices still pending at the end, fewer than 2**n +
    BLOCK_TRIALS, are returned as the list of the blocks' arrays, empty when
    no block drew inputs."""
    size, cells = BLOCK_TRIALS, 1 << config.n
    wins = aborts = held = 0
    pending: list[np.ndarray] = []
    counts = None
    for block in range(first, stop):
        rng = make_rng(np.random.SeedSequence(config.seed, spawn_key=(block,)))
        start = block * size
        w, a, x_index = _play_block(
            config, rng, min(size, config.trials - start), start, sink)
        wins, aborts = wins + w, aborts + a
        if x_index is None:
            continue
        pending.append(x_index)
        held += len(x_index)
        if held >= cells:
            folded = np.bincount(np.concatenate(pending), minlength=cells)
            counts = folded if counts is None else counts + folded
            pending, held = [], 0
    return wins, aborts, counts, pending


def monte_carlo(config: GameConfig, workers: int = 1,
                transcript_sink: Callable[[str], None] | None = None,
                ) -> RunStatistics:
    """Run ``config.trials`` independent trials and summarize them.

    The blocks of trials are split into one contiguous range per worker
    (``qcore.pool_map``; one worker at most per usable CPU and per block, so
    a call of one block starts no pool); per-block substreams make the
    result identical for any worker count.  A ``transcript_sink`` takes
    each chunk's JSON lines and forces one worker, so it sees trials in order.

    For ``classical_cover`` the cover is built, or refused, before any
    worker starts.  The workers' counts are summed and all their leftover
    inputs are counted once, densely or by ``np.unique`` as DENSE_COUNT_RATIO
    decides for the whole run.  A worker holds at most one 2**n count array
    and the parent each worker's counts and leftovers.
    """
    blocks = -(-config.trials // BLOCK_TRIALS)
    workers = usable_workers(workers, blocks if transcript_sink is None else 1)
    if config.strategy == STRATEGY_CLASSICAL_COVER:
        labels = _cover(config.n, config.m).assignment
    edges = [blocks * w // workers for w in range(workers + 1)]
    wins = aborts = 0
    folds, leftovers = [], [np.empty(0, dtype=np.int64)]
    for w, a, counts, pending in pool_map(
            workers, _run_blocks, itertools.repeat(config), edges[:-1],
            edges[1:], itertools.repeat(transcript_sink)):
        wins, aborts = wins + w, aborts + a
        if counts is not None:
            folds.append(counts)
        leftovers += pending

    completed = config.trials - aborts
    entropy = None
    if config.strategy == STRATEGY_CLASSICAL_COVER:
        seen = np.concatenate(leftovers)
        if not folds and len(labels) > DENSE_COUNT_RATIO * len(seen):
            inputs, counts = np.unique(seen, return_counts=True)
        else:
            counts = sum(folds, np.bincount(seen, minlength=len(labels)))
            inputs = np.flatnonzero(counts > 0)  # bools scan faster than ints
            counts = counts[inputs]
        entropy = conditional_entropy(counts, labels[inputs])
    return RunStatistics(
        strategy=config.strategy, trials=config.trials, wins=wins,
        aborts=aborts, win_rate=(wins / completed) if completed else None,
        abort_rate=aborts / config.trials, message_bits=_message_bits(config),
        empirical_conditional_entropy=entropy)
