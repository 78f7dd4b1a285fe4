"""One workload in one fresh process: set-up probe, timed run, or traced run.

``run.py`` starts this script with exclab's ``src`` on PYTHONPATH and the
BLAS/OpenMP thread variables pinned to 1, and reads the JSON object it
prints as its last line.  Modes:

* ``--mode setup`` times ``import exclab`` plus warming every cache the
  workload uses, and prints ``{"setup_s": ...}``.
* ``--mode run --trace 0`` warms up untimed, then calls the operations in
  turn for ``--seconds`` seconds and prints each call's measured value.
* ``--mode run --trace 1`` does the same with spans installed (see
  ``spans.py``), reruns an eighth of its rounds untraced and traced back to
  back to measure the overhead, and prints the per-layer metrics.

Every call's output is checked; see ``checks.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import checks
from run import OUT_DIR, ROOT, THREAD_VARIABLES

# numpy and exclab are imported inside functions: the set-up probe times
# exclab's import, numpy's included.

# Distinct simulate seeds per run.  Calls cycle through them, so a repeated
# seed must reproduce its report byte for byte, and the count metrics of the
# traced run are taken over exactly one pass.
SEED_POOL = 16
TINY_SEED_POOL = 2
# Serial and 2-worker walls of the pool-overhead probe (traced run only).
POOL_PROBE_REPEATS = 3
DELTA = 0.05
# The host's speed drifts by up to 1.5x over tens of seconds (other tenants),
# moving every timing of a run together.  Each round therefore also times
# fixed work independent of exclab, and end-to-end timings are reported
# scaled to a host on which that work takes its reference time.
CALIBRATION_REF_S = 0.010
MEMORY_CALIBRATION_REF_S = 0.006
SETUP_CALIBRATIONS = 5
# The steering abort rate is tested once per run on one fixed-seed call, so
# a correct program fails the 3-sigma test for a given code version or not
# at all, instead of on ~0.3% of run seeds.
ABORT_CHECK_SEED = 0


@dataclass(frozen=True)
class Simulate:
    """One ``exclab simulate`` call shape; the seed varies per call."""

    strategy: str
    n: int
    m: int
    trials: int
    k: int | None = None

    def config(self, seed: int) -> dict:
        steering = self.strategy == "entanglement_assisted"
        return {"n": self.n, "m": self.m, "strategy": self.strategy,
                "trials": self.trials, "seed": seed,
                "delta": DELTA if steering else None, "k": self.k}

    def argv(self, seed: int, threads: int) -> list[str]:
        argv = ["simulate", "--strategy", self.strategy, "--n", str(self.n),
                "--m", str(self.m), "--trials", str(self.trials),
                "--seed", str(seed), "--threads", str(threads)]
        if self.k is not None:
            argv += ["--k", str(self.k), "--delta", str(DELTA)]
        return argv


@dataclass(frozen=True)
class Workload:
    threads: int
    quantum: Simulate
    cover: Simulate
    steering: Simulate
    bounds_n: tuple[int, ...]
    oracle: tuple[int, int]
    cover_build: tuple[int, int]
    abort_check_trials: int
    # Ops whose time goes to streaming the dense 2^m measurement; they follow
    # the host's memory bandwidth, not its interpreter speed.
    memory_bound: tuple[str, ...] = ()

    def simulate(self, op: str) -> Simulate:
        return getattr(self, op)


# Per-call sizes aim at 60-80 ms per simulate call on one core, so that a
# run takes many samples of each.  The steering k values are
# choose_k(m/n, 0.05).
SMALL_M = Workload(
    threads=1,
    quantum=Simulate("quantum", 12, 6, 150),
    cover=Simulate("classical_cover", 12, 6, 500),
    steering=Simulate("entanglement_assisted", 8, 4, 150, k=47),
    bounds_n=tuple(range(8, 65)) + (10**2, 10**3, 10**4),
    oracle=(5, 2),
    cover_build=(12, 6),
    abort_check_trials=3000,
)
LARGE_M = Workload(
    threads=1,
    quantum=Simulate("quantum", 12, 11, 8),
    cover=Simulate("classical_cover", 16, 8, 400),
    steering=Simulate("entanglement_assisted", 10, 10, 25, k=11),
    bounds_n=(10**5, 10**6, 10**7, 10**8),
    oracle=(5, 4),
    cover_build=(16, 8),
    abort_check_trials=800,
    memory_bound=("quantum", "steering"),
)
WORKLOADS = {
    "small-m": SMALL_M,
    "large-m": LARGE_M,
    # Same inputs as small-m; simulate and oracle use a 2-worker pool and
    # must reproduce small-m's reports byte for byte.
    "small-m-par2": replace(SMALL_M, threads=2),
}

SIMULATE_OPS = ("quantum", "cover", "steering")
# Ops that run on the pool when threads > 1.
PARALLEL_OPS = SIMULATE_OPS + ("oracle",)
# Rate ops report work per second; the others report milliseconds per call.
RATE_OPS = SIMULATE_OPS + ("bounds",)
OPS = RATE_OPS + ("oracle", "cover_build")


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work, small numpy calls and
    one dense product, like exclab's own mix; about 10 ms."""
    import numpy as np

    start = perf_counter()
    total = 0
    for i in range(1500):
        total += hash(tuple((i >> k) & 1 for k in range(8))) & 7
    v = np.ones(1)
    for _ in range(150):
        v = np.kron(v[:16], np.array([0.6, 0.8]))
        total += float(np.linalg.norm(v))
    a = np.full((160, 160), 0.5)
    total += float((a @ a)[0, 0])
    return perf_counter() - start


def calibrate_slowest_cpu() -> float:
    """The slowest ``calibrate`` over the CPUs this process may use: a
    2-worker call waits for its slower worker."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return max(times)


class MemoryCalibration:
    """Streams a 16 MB matrix, as exclab's dense measurements do; ~6 ms."""

    def __init__(self) -> None:
        import numpy as np

        self.matrix = np.full((1024, 1024), 0.5 + 0.0j)
        self.vector = np.ones(1024, dtype=np.complex128)

    def __call__(self) -> float:
        start = perf_counter()
        for _ in range(4):
            float(abs(self.matrix @ self.vector).sum())
        return perf_counter() - start


def host_scaled(value: float, slowdown: float, rate: bool) -> float:
    """``value`` as it would read on the reference host."""
    return value * slowdown if rate else value / slowdown


def warm_up(workload: Workload) -> None:
    """Fill every cache the workload's calls use."""
    from exclab import game, pbr, steering

    for m in sorted({workload.quantum.m, workload.steering.m}):
        pbr.exclusion_measurement(m)
    steering.build_kit(workload.steering.m)
    # One trial runs the cover construction that game caches per (n, m).
    cover = workload.cover
    game.monte_carlo(game.GameConfig(cover.n, cover.m, cover.strategy,
                                     trials=1, seed=0))


class Runner:
    """Calls the workload's operations, checks each output, keeps samples."""

    def __init__(self, workload: Workload, seed: int, pool: int,
                 tmp: Path, tracer=None) -> None:
        from exclab import cli, steering

        self.cli = cli
        self.workload = workload
        self.seeds = random.Random(seed).sample(range(2**31), pool)
        self.out = tmp / "report.json"
        self.tracer = tracer
        self.checker = checks.Checker()
        self.bounds_reference = checks.bounds_reference(workload.bounds_n)
        # op -> (value, host slowdown in the call's round)
        self.samples: dict[str, list[tuple[float, float]]] = {
            op: [] for op in OPS}
        self.slowdown = {"cpu": 1.0, "parallel": 1.0, "memory": 1.0}
        self.memory_calibration = (MemoryCalibration()
                                   if workload.memory_bound else None)
        self.reports: dict[tuple, bytes] = {}
        self.first_pass: dict[str, list[tuple[int, Counter]]] = {
            op: [] for op in SIMULATE_OPS}
        self.cover = None
        sim = workload.steering
        self.p_abort = steering.p_abort(sim.n, sim.m, sim.k)

    def _timed(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def call(self, op: str, seed: int | None, threads: int) -> float:
        """One checked call; returns its wall time in seconds."""
        label = f"{op} seed={seed} threads={threads}"
        self.out.unlink(missing_ok=True)
        first = (op, seed) not in self.reports
        before = Counter(self.tracer.counts) if self.tracer and first else None
        start = perf_counter()
        try:
            if op == "cover_build":
                from exclab import classical
                result = self._timed("classical.build_cover_strategy",
                                     classical.build_cover_strategy,
                                     *self.workload.cover_build)
            else:
                result = self._timed("cli.main", self.cli.main,
                                     self._argv(op, seed, threads))
            wall = perf_counter() - start
            problems = self._check(op, seed, result)
        except Exception:
            self.checker.record_exception(label)
            return perf_counter() - start
        if before is not None and op in SIMULATE_OPS:
            delta = Counter(self.tracer.counts)
            delta.subtract(before)
            self.first_pass[op].append((self.workload.simulate(op).trials, delta))
        if self.checker.record(label, problems):
            if threads > 1 and op in PARALLEL_OPS:
                slowdown = self.slowdown["parallel"]
            elif op in self.workload.memory_bound:
                slowdown = self.slowdown["memory"]
            else:
                slowdown = self.slowdown["cpu"]
            self.samples[op].append((self._value(op, wall), slowdown))
        return wall

    def _argv(self, op: str, seed: int | None, threads: int) -> list[str]:
        w = self.workload
        if op in SIMULATE_OPS:
            argv = w.simulate(op).argv(seed, threads)
        elif op == "bounds":
            argv = (["bounds", "--n"] + [str(n) for n in w.bounds_n]
                    + ["--m-rule", "power:0.75", "--format", "json"])
        else:
            argv = ["oracle", *map(str, w.oracle), "--threads", str(threads)]
        return argv + ["--output", str(self.out)]

    def _value(self, op: str, wall: float) -> float:
        if op in SIMULATE_OPS:
            return self.workload.simulate(op).trials / wall
        if op == "bounds":
            return len(self.workload.bounds_n) / wall
        return wall * 1e3

    def scaled_samples(self) -> dict[str, list[float]]:
        return {op: [host_scaled(value, slowdown, op in RATE_OPS)
                     for value, slowdown in samples]
                for op, samples in self.samples.items()}

    def calibrate(self, threads: int) -> None:
        """Measure the host's slowdown for the coming round."""
        self.slowdown["cpu"] = calibrate() / CALIBRATION_REF_S
        if threads > 1:
            self.slowdown["parallel"] = (calibrate_slowest_cpu()
                                         / CALIBRATION_REF_S)
        if self.memory_calibration is not None:
            self.slowdown["memory"] = (self.memory_calibration()
                                       / MEMORY_CALIBRATION_REF_S)

    def _check(self, op: str, seed: int | None, result) -> list[str]:
        if op == "cover_build":
            return self._check_cover(result)
        problems = [] if result == 0 else [f"exit code {result}"]
        raw = self.out.read_bytes()
        report = json.loads(raw)
        if op in SIMULATE_OPS:
            sim = self.workload.simulate(op)
            problems += checks.simulate_problems(report, sim.config(seed))
        elif op == "bounds":
            problems += checks.bounds_problems(report, self.bounds_reference)
        else:
            problems += checks.oracle_problems(report, *self.workload.oracle)
        if self.reports.setdefault((op, seed), raw) != raw:
            problems.append("report differs from the first report for the "
                            "same arguments and seed (serial reference in "
                            "small-m-par2)")
        return problems

    def _check_cover(self, strategy) -> list[str]:
        from exclab import classical

        if not isinstance(strategy, classical.CoverStrategy):
            return [f"returned {type(strategy).__name__}"]
        shape = ([m.to_index() for m in strategy.messages],
                 list(strategy.assignment))
        if self.cover is None:
            self.cover = shape
            return checks.cover_problems(*self.workload.cover_build, *shape)
        return [] if shape == self.cover else ["cover differs from the first build"]

    def serial_references(self) -> None:
        """Serial reports that the 2-worker calls must reproduce."""
        for op in SIMULATE_OPS:
            for seed in self.seeds:
                self.call(op, seed, threads=1)
        self.call("oracle", None, threads=1)
        for op in OPS:
            self.samples[op].clear()

    def loop(self, seconds: float, threads: int) -> list[tuple]:
        """Call the ops in turn, one call each per round, for ``seconds`` and
        at least one pass over the seeds; returns the (op, seed, wall) log.

        Rounds give every op the same number of samples, and interleaving
        spreads a slow spell of a shared machine over all of them."""
        log = []
        deadline = perf_counter() + seconds
        rounds = 0
        while rounds < len(self.seeds) or perf_counter() < deadline:
            self.calibrate(threads)
            seed = self.seeds[rounds % len(self.seeds)]
            for op in OPS:
                call_seed = seed if op in SIMULATE_OPS else None
                log.append((op, call_seed, self.call(op, call_seed, threads)))
            rounds += 1
        return log

    def check_abort_rate(self) -> None:
        """One fixed-seed steering call, its abort rate against p_abort."""
        sim = replace(self.workload.steering,
                      trials=self.workload.abort_check_trials)
        self.out.unlink(missing_ok=True)
        label = "steering abort rate"
        try:
            code = self.cli.main(sim.argv(ABORT_CHECK_SEED, self.workload.threads)
                                 + ["--output", str(self.out)])
            report = json.loads(self.out.read_bytes())
            stats = report["statistics"]
            problems = ([] if code == 0 else [f"exit code {code}"])
            problems += checks.simulate_problems(report,
                                                 sim.config(ABORT_CHECK_SEED))
            problems += checks.abort_rate_problems(stats["aborts"],
                                                   stats["trials"], self.p_abort)
        except Exception:
            self.checker.record_exception(label)
            return
        self.checker.record(label, problems)


def peak_rss_mb() -> float:
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return usage / 1024.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
    }


def run_untraced(workload: Workload, runner: Runner, seconds: float) -> dict:
    if workload.threads > 1:
        runner.serial_references()
    runner.loop(seconds, workload.threads)
    runner.check_abort_rate()
    return {"samples": runner.scaled_samples(),
            "raw_samples": {op: [value for value, _ in samples]
                            for op, samples in runner.samples.items()},
            "slowdowns": {op: [slowdown for _, slowdown in samples]
                          for op, samples in runner.samples.items()},
            "peak_rss_mb": peak_rss_mb()}


def run_traced(workload: Workload, runner: Runner, seconds: float,
               warm_end: int) -> dict:
    from exclab import bounds

    tracer = runner.tracer
    if workload.threads > 1:
        runner.serial_references()
    loop_start = len(tracer.spans)
    start = perf_counter()
    log = runner.loop(seconds, workload.threads)
    loop_wall = perf_counter() - start
    covered = sum(end - begin for _, begin, end, parent
                  in tracer.spans[loop_start:] if parent < 0)
    if "bounds.row_exact" not in tracer.counts:
        # The workload has no n <= 64 row; time the exact path once anyway
        # so the metric exists.
        bounds.separation_table(range(8, 65), bounds.MRule.parse("power:0.75"))
    overhead = overhead_probe(runner, log, workload.threads)
    tracer.uninstall()
    runner.tracer = None
    runner.check_abort_rate()
    serial, parallel = pool_probe(runner)
    return layer_metrics(runner, tracer, warm_end, {
        "game.parallel_speedup": serial / parallel,
        "game.pool_overhead_ms": (parallel - serial / 2.0) * 1e3,
        "trace.coverage": covered / loop_wall,
        "trace.overhead": overhead,
    })


def overhead_probe(runner: Runner, log: list[tuple], threads: int) -> float:
    """Traced over untraced wall for an eighth of the loop's rounds, each
    round run untraced and then traced, back to back so that both see the
    same host speed."""
    tracer = runner.tracer
    rounds = [log[i:i + len(OPS)] for i in range(0, len(log), len(OPS))]
    walls = {False: 0.0, True: 0.0}
    for calls in rounds[:max(1, len(rounds) // 8)]:
        tracer.uninstall()
        runner.tracer = None
        for traced in (False, True):
            walls[traced] += sum(runner.call(op, seed, threads)
                                 for op, seed, _ in calls)
            if not traced:
                tracer.install()
                runner.tracer = tracer
    return walls[True] / walls[False]


def pool_probe(runner: Runner) -> tuple[float, float]:
    """Median walls of the quantum call with 1 and with 2 workers."""
    seed = runner.seeds[0]
    walls = {1: [], 2: []}
    for _ in range(POOL_PROBE_REPEATS):
        for threads in walls:
            walls[threads].append(runner.call("quantum", seed, threads))
    return statistics.median(walls[1]), statistics.median(walls[2])


def layer_metrics(runner: Runner, tracer, warm_end: int, extra: dict) -> dict:
    times = tracer.self_times(warm_end)

    def median_self(name: str, scale: float) -> float:
        values = times.get(name)
        return statistics.median(values) * scale if values else 0.0

    def warm_total(name: str) -> float:
        return sum(end - start for span_name, start, end, _
                   in tracer.spans[:warm_end] if span_name == name)

    def per_trial(ops, name: str) -> float:
        passes = [entry for op in ops for entry in runner.first_pass[op]]
        trials = sum(t for t, _ in passes)
        return sum(delta[name] for _, delta in passes) / max(trials, 1)

    steering_pass = runner.first_pass["steering"]
    steered = sum(d["steering.rounds_steered"] for _, d in steering_pass)
    tried = sum(d["steering.sets_tried"] for _, d in steering_pass)
    layers = {
        "game.substream_us": median_self("game.substream", 1e6),
        "game.referee_draw_us": median_self("game.referee_draw", 1e6),
        "game.transcript_us": median_self("game.transcript", 1e6),
        "game.trial_self_us": median_self("game.trial", 1e6),
        "pbr.product_state_us": median_self("pbr.product_state", 1e6),
        "pbr.restrict_us": median_self("pbr.restrict", 1e6),
        "pbr.measure_exclusion_us": median_self("pbr.measure_exclusion", 1e6),
        "qcore.born_measure_us": median_self("qcore.born_measure", 1e6),
        "pbr.measurement_build_s": warm_total("pbr.exclusion_measurement"),
        "pbr.exclusion_measurement_calls_per_trial":
            per_trial(("quantum",), "pbr.exclusion_measurement"),
        "qcore.statevectors_per_trial":
            per_trial(SIMULATE_OPS, "qcore.statevector"),
        "qcore.tensor_product_us": median_self("qcore.tensor_product", 1e6),
        "qcore.conditional_entropy_ms":
            median_self("qcore.conditional_entropy", 1e3),
        "classical.message_for_us": median_self("classical.message_for", 1e6),
        "classical.brute_force_ms": median_self("classical.brute_force", 1e3),
        "classical.cover_messages": len(runner.cover[0]) if runner.cover else 0,
        "steering.round_us": median_self("steering.round", 1e6),
        "steering.steer_calls_per_trial":
            per_trial(("steering",), "steering.steer_one"),
        "steering.set_success_ratio": steered / max(tried, 1),
        "steering.build_kit_ms": warm_total("steering.build_kit") * 1e3,
        "bounds.row_exact_us": median_self("bounds.row_exact", 1e6),
        "bounds.row_series_ms": median_self("bounds.row_series", 1e3),
        "cli.self_ms": median_self("cli.main", 1e3),
    }
    layers.update(extra)
    return {"metrics": {name: {"value": value, "unit": layer_unit(name)}
                        for name, value in layers.items()}}


def layer_unit(name: str) -> str:
    """Per-layer units follow the metric name's suffix."""
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_per_trial", "count"), ("_messages", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--mode", required=True, choices=("setup", "run"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here (TSV)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "setup":
        start = perf_counter()
        import exclab  # noqa: F401  (the import is what is timed)
        warm_up(workload)
        raw = perf_counter() - start
        slowdown = statistics.median(
            calibrate() for _ in range(SETUP_CALIBRATIONS)) / CALIBRATION_REF_S
        print(json.dumps({"setup_s": host_scaled(raw, slowdown, False),
                          "raw_setup_s": raw}))
        return 0

    tracer = None
    warm_end = 0
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    warm_up(workload)
    if tracer is not None:
        warm_end = len(tracer.spans)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed,
                        TINY_SEED_POOL if args.tiny else SEED_POOL, tmp, tracer)
        if tracer is None:
            result = run_untraced(workload, runner, args.seconds)
        else:
            result = run_traced(workload, runner, args.seconds, warm_end)
            if args.spans:
                tracer.write(args.spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result.update({
        "attempted": runner.checker.attempted,
        "failed": runner.checker.failed,
        "problems": runner.checker.problems,
        "seeds": runner.seeds,
        "machine": machine(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
