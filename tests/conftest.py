"""Shared fixtures."""

import concurrent.futures
import os

import pytest

FAKE_CPUS = 3


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run process pools in process on a pretend 3-CPU host.

    ``concurrent.futures.ProcessPoolExecutor``, which ``qcore.pool_map`` (the
    one home of the pool) imports when it starts a pool, is replaced by a
    stand-in that maps in this process and records the ``max_workers`` it
    was asked for; the returned list collects them.  No worker process
    starts, so a huge request is safe to test.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(FAKE_CPUS)), raising=False)
    return sizes
