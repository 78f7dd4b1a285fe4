"""The benchmark under perfbench/ resolves exclab names and calls exclab
functions; these tests run its hooks so that a change which breaks them
fails here first.  The perfbench files are imported, never edited."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workload  # noqa: E402


def test_tracer_installs_and_uninstalls():
    hooked = [(owner, attr) for owner, attr, *_ in spans.SPANS + spans.COUNTS]
    originals = [owner.__dict__[attr] for owner, attr in hooked]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(hooked, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(hooked, originals))


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_warm_up_runs_for_every_workload(name):
    workload.warm_up(workload.WORKLOADS[name])


def test_one_checked_traced_call_of_every_op(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        runner = workload.Runner(workload.WORKLOADS["small-m"], seed=0,
                                 pool=1, tmp=tmp_path, tracer=tracer)
        for op in workload.OPS:
            seed = runner.seeds[0] if op in workload.SIMULATE_OPS else None
            runner.call(op, seed, threads=1)
    finally:
        tracer.uninstall()
    assert runner.checker.attempted == len(workload.OPS)
    assert runner.checker.failed == 0, runner.checker.problems


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_fixed_seed_abort_check_passes_for_every_workload(name, tmp_path):
    # The benchmark tests one fixed-seed steering call's abort count against
    # p_abort; a change to the steering draws that fails it fails here first.
    runner = workload.Runner(workload.WORKLOADS[name], seed=0, pool=1,
                             tmp=tmp_path)
    runner.check_abort_rate()
    assert runner.checker.attempted == 1
    assert runner.checker.failed == 0, runner.checker.problems
