"""exclab benchmark: one command, every metric by name and unit, checked.

    python3 perfbench/run.py                      all workloads, untraced
    python3 perfbench/run.py --workload large-m --seed 3 --seconds 10
    python3 perfbench/run.py --workload small-m --trace 1   per-layer metrics

Each workload runs in fresh processes of ``workload.py``: several set-up
probes (untraced only) and one measured run.  The BLAS and OpenMP thread
variables are pinned to 1 in the children's environment before numpy loads.
A summary table goes to stdout, a full result file (with the machine) to
``.perfbench_out/``, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
its per-layer ones.  Exit status 2 means the program or the benchmark could
not run; a run whose outputs fail a check still exits 0 with
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("small-m", "large-m", "small-m-par2")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
# Every process of one workload's run must end within this many seconds.
WORKLOAD_BUDGET_S = 170
# op -> (end-to-end metric, unit); every op metric is a median of per-call
# values, with its tail taken on the worse side.
OP_METRICS = {
    "quantum": ("quantum_trials_per_s", "trials/s", "higher"),
    "cover": ("cover_trials_per_s", "trials/s", "higher"),
    "steering": ("steering_trials_per_s", "trials/s", "higher"),
    "bounds": ("bounds_rows_per_s", "rows/s", "higher"),
    "oracle": ("oracle_ms", "ms", "lower"),
    "cover_build": ("cover_build_ms", "ms", "lower"),
}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh process group; return its last JSON line."""
    command = [sys.executable, str(HERE / "workload.py"), *args]
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args)} timed out") from None
    finally:
        # Pool workers share the group; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(OUT_DIR / f"tmp-{proc.pid}", ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(values: list[float], better: str) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, on the
    worse side; the worst sample when there are fewer than 20."""
    ordered = sorted(values, reverse=(better == "higher"))
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            index = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
            return f"p{pct:g}", ordered[index]
    return "max" if better == "lower" else "min", ordered[-1]


def summary(values: list[float], unit: str, better: str,
            raw: list[float]) -> dict:
    """Median and tail of host-scaled values, with the unscaled median."""
    if not values:
        return {"value": 0.0, "unit": unit, "samples": 0}
    label, worst = tail(values, better)
    return {"value": statistics.median(values), "unit": unit,
            "samples": len(values), "tail": label, "tail_value": worst,
            "raw_median": statistics.median(raw)}


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool,
               deadline: float) -> dict:
    probes = [run_child(["--workload", workload, "--mode", "setup"], deadline)
              for _ in range(1 if tiny else SETUP_PROBES)]
    result = run_child(["--workload", workload, "--mode", "run",
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", "0"] + (["--tiny"] if tiny else []),
                       deadline)
    metrics = {"setup_s": summary([p["setup_s"] for p in probes], "s", "lower",
                                  [p["raw_setup_s"] for p in probes])}
    for op, (name, unit, better) in OP_METRICS.items():
        metrics[name] = summary(result["samples"][op], unit, better,
                                result["raw_samples"][op])
    metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    attempted, failed = result["attempted"], result["failed"]
    # fail_ratio = failed / attempted is 0 when all is well; the metric is
    # its complement so that it is never 0.
    metrics["success_ratio"] = {"value": (attempted - failed) / attempted,
                                "unit": "ratio", "fail_ratio": failed / attempted}
    result["metrics"] = metrics
    return result


def traced(workload: str, seed: int, seconds: float, tiny: bool,
           deadline: float, spans_path: Path) -> dict:
    return run_child(["--workload", workload, "--mode", "run",
                      "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "1", "--spans", str(spans_path)]
                     + (["--tiny"] if tiny else []), deadline)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_names(metrics: dict, trace: int) -> None:
    """The metrics must be exactly those BENCHMARK.json declares, in unit."""
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in metrics.items()}
    if got != expected:
        raise BenchError(f"metrics {got} do not match BENCHMARK.json {expected}")


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} checked, "
          f"{result['failed']} failed")
    for name, entry in result["metrics"].items():
        line = f"  {name:42s} {entry['value']:>14.6g} {entry['unit']}"
        if "samples" in entry:
            line += f"  (n={entry['samples']}"
            if "tail" in entry:
                line += (f", {entry['tail']}={entry['tail_value']:.6g}"
                         f", unscaled median={entry['raw_median']:.6g}")
            line += ")"
        if "fail_ratio" in entry:
            line += f"  (fail_ratio={entry['fail_ratio']:.6g})"
        print(line)
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (BENCHMARK.json "
                             "run_seconds by default)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: one set-up probe, two seeds")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_child's cleanup still kills
    # the workload's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "exclab" / "cli.py").is_file():
        print(f"perfbench: no exclab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        seconds = args.seconds or load_spec()["run_seconds"]
        OUT_DIR.mkdir(exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in names:
            stem = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}"
            deadline = time.monotonic() + WORKLOAD_BUDGET_S
            if args.trace:
                result = traced(workload, args.seed, seconds, args.tiny,
                                deadline, stem.with_suffix(".spans.tsv"))
            else:
                result = end_to_end(workload, args.seed, seconds, args.tiny,
                                    deadline)
            check_names(result["metrics"], args.trace)
            result.update(workload=workload, seed=args.seed, seconds=seconds,
                          trace=args.trace)
            stem.with_suffix(".json").write_text(
                json.dumps(result, indent=1) + "\n", encoding="utf-8")
            print_table(workload, result)
            print(json.dumps({
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": e["value"], "unit": e["unit"]}
                            for name, e in result["metrics"].items()},
            }), flush=True)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
