"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Tiny mode: every workload, untraced and traced, with --tiny --seconds 1.
   Each run must print a result line whose metrics are exactly the ones
   BENCHMARK.json declares, each with its unit and a finite value, and whose
   outputs all pass their checks.
2. Mutation checks: deliberately wrong outputs (a loss, a serial report that
   differs from the parallel one, a failed oracle, a wrong bounds row, an
   off abort rate, a cover that misses an input) must each raise the failed
   count, hence fail_ratio, of the same ``Runner`` the benchmark uses.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def tiny_runs() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            argv = [*spec["command"], "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = spec["per_layer" if trace else "end_to_end"]
            expected = {m["name"]: m["unit"] for m in declared}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if got != expected:
                errors.append(f"{label}: metrics {got}, expected {expected}")
            if not all(isinstance(e["value"], (int, float))
                       and math.isfinite(e["value"])
                       for e in result["metrics"].values()):
                errors.append(f"{label}: non-finite metric value")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                errors.append(f"{label}: {proc.stdout}")
            print(f"tiny {label}: {result['attempted']} checked", flush=True)
    return errors


class Mutating:
    """Stands in for ``exclab.cli``: runs the real command, then rewrites
    the report it wrote with ``mutate`` when the command matches."""

    def __init__(self, cli, command: str, mutate) -> None:
        self.cli = cli
        self.command = command
        self.mutate = mutate

    def main(self, argv: list[str]) -> int:
        code = self.cli.main(argv)
        if argv[0] == self.command:
            out = Path(argv[argv.index("--output") + 1])
            report = json.loads(out.read_text(encoding="utf-8"))
            self.mutate(report)
            out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
        return code


def mutation_checks() -> list[str]:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import checks
    import workload
    from exclab import cli

    tmp = workload.OUT_DIR / "tmp-selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    errors = []

    def runner(name: str = "small-m"):
        return workload.Runner(workload.WORKLOADS[name], seed=1, pool=1, tmp=tmp)

    def expect_failure(label: str, run) -> None:
        r = run()
        if r.checker.failed == 0:
            errors.append(f"mutation '{label}' was not detected")
        else:
            print(f"mutation {label}: fail_ratio "
                  f"{r.checker.failed / r.checker.attempted:.3f}", flush=True)

    def call_mutated(command: str, op: str, mutate):
        def run():
            r = runner()
            r.cli = Mutating(cli, command, mutate)
            r.call(op, r.seeds[0] if op in workload.SIMULATE_OPS else None, 1)
            return r
        return run

    def loss(report):
        report["statistics"]["wins"] -= 1

    def oracle_fails(report):
        report["pass"] = False

    def bounds_off(report):
        report["rows"][-1]["gamma_log2"] *= 1.0 + 1e-6

    def serial_differs():
        r = runner("small-m-par2")
        r.serial_references()
        key = ("quantum", r.seeds[0])
        r.reports[key] = r.reports[key].replace(b'"wins"', b'"wins" ')
        r.call("quantum", r.seeds[0], 2)
        return r

    def more_aborts(report):
        stats = report["statistics"]
        stats["aborts"] = stats["trials"] // 10
        stats["wins"] = stats["trials"] - stats["aborts"]

    def abort_rate_off():
        r = runner()
        r.cli = Mutating(cli, "simulate", more_aborts)
        r.check_abort_rate()
        return r

    def cover_misses_input():
        r = runner()
        n, m = r.workload.cover_build
        r.checker.record("cover", checks.cover_problems(n, m, [0], [0] * (1 << n)))
        return r

    try:
        clean = runner()
        for op in workload.OPS:
            clean.call(op, clean.seeds[0] if op in workload.SIMULATE_OPS
                       else None, 1)
        if clean.checker.failed:
            errors.append(f"unmutated calls failed: {clean.checker.problems}")
        expect_failure("loss in a quantum report",
                       call_mutated("simulate", "quantum", loss))
        expect_failure("oracle pass false",
                       call_mutated("oracle", "oracle", oracle_fails))
        expect_failure("bounds row off by 1e-6",
                       call_mutated("bounds", "bounds", bounds_off))
        expect_failure("serial report differs from parallel", serial_differs)
        expect_failure("abort rate 0.1 against p_abort 0.017", abort_rate_off)
        expect_failure("cover leaves inputs unserved", cover_misses_input)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return errors


def main() -> int:
    errors = mutation_checks() + tiny_runs()
    for error in errors:
        print(f"SELFTEST FAILED: {error}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
