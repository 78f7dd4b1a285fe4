"""Spans and counts around exclab's cross-module calls, for the traced run.

A ``Tracer`` rebinds module and class attributes (for example
``exclab.game.product_state``) to wrappers that record a span (name, start,
end, parent) or bump a count, and puts the originals back on ``uninstall``.
Callers look those names up at call time, so the wrappers see every call
made in this process; forked pool workers inherit the wrappers, but what
they record stays in the worker.  Nothing in exclab is edited.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from exclab import bounds, classical, game, pbr, qcore, steering


def _bounds_row_name(params) -> str:
    if params.n <= bounds.EXACT_GAMMA_MAX_N:
        return "bounds.row_exact"
    return "bounds.row_series"


def _steering_round_done(tracer: "Tracer", args, result) -> None:
    params = args[0]
    tracer.counts["steering.sets_tried"] += (
        params.k if result.aborted else result.set_index + 1)
    tracer.counts["steering.rounds_steered"] += not result.aborted


# (owner, attribute, span name or function of the first argument, hook).
# The owner is the module that makes the call, so the wrapper sits on the
# boundary between caller and callee.
SPANS = (
    (game, "monte_carlo", "game.monte_carlo", None),
    (game, "make_rng", "game.substream", None),
    (game, "referee_draw", "game.referee_draw", None),
    (game, "run_trial", "game.trial", None),
    (game, "Transcript", "game.transcript", None),
    (game, "product_state", "pbr.product_state", None),
    (game, "restrict", "pbr.restrict", None),
    (game, "measure_exclusion", "pbr.measure_exclusion", None),
    (pbr, "born_measure", "qcore.born_measure", None),
    (pbr, "exclusion_measurement", "pbr.exclusion_measurement", None),
    (game, "tensor_product", "qcore.tensor_product", None),
    (game, "conditional_entropy", "qcore.conditional_entropy", None),
    (game, "build_cover_strategy", "classical.build_cover_strategy", None),
    (classical.CoverStrategy, "message_for", "classical.message_for", None),
    (classical, "brute_force_min_exclusion", "classical.brute_force", None),
    (classical, "consistent_answer_set", "classical.consistent_answer_set",
     None),
    (classical, "excluded_count", "classical.excluded_count", None),
    (game, "run_steering_round", "steering.round", _steering_round_done),
    (steering, "build_kit", "steering.build_kit", None),
    (bounds, "separation_table", "bounds.separation_table", None),
    (bounds, "bounds_row", _bounds_row_name, None),
    (bounds, "gamma", "bounds.gamma", None),
)

# Hot calls that are only counted: a span each would cost more than the call.
COUNTS = (
    (steering, "steer_one", "steering.steer_one"),
    (qcore.StateVector, "__post_init__", "qcore.statevector"),
)


class Tracer:
    """In-memory spans and counts; ``spans[i]`` is (name, start, end, parent)
    with parent -1 for a span opened outside any other span."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open = [-1]
        self._saved: list = []

    def call(self, name, fn, *args, hook=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        self.counts[name] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, self._open[-1])
        if hook is not None:
            hook(self, args, result)
        return result

    def _span_wrapper(self, name, fn, hook):
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            return self.call(label, fn, *args, hook=hook, **kwargs)
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        for owner, attr, name, hook in SPANS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span_wrapper(name, original, hook))
        for owner, attr, name in COUNTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._count_wrapper(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, first: int = 0) -> dict[str, list[float]]:
        """Name -> self times (seconds) of spans ``first`` onward: each span's
        duration minus the durations of its direct children."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        by_name: dict[str, list[float]] = {}
        for index in range(first, len(self.spans)):
            name, start, end, _ = self.spans[index]
            by_name.setdefault(name, []).append(end - start - children[index])
        return by_name

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
