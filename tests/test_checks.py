"""The `verify` battery, check by check.

The exhaustive property sweeps live only in `pisano_lab._checks`. Each
check gets one test id that reads its entry from the session's single
`verify` run, and at least one seeded bug from `mutants.py` that it must
catch. The last tests run the battery's forked worker, which takes the odd
positions of `ALL_CHECKS` when two CPUs are usable.
"""

import os
import signal
import time

import pytest

from pisano_lab import _checks
from pisano_lab.cli import main

from mutants import MUTANTS, corrupt_at, spec

CHECKS = _checks.ALL_CHECKS


@pytest.mark.parametrize("index", range(len(CHECKS)), ids=[check.__name__ for check in CHECKS])
def test_check_passes(verify_run, index):
    # the report lists the checks in ALL_CHECKS order
    entry = verify_run.report["results"]["checks"][index]
    assert entry["passed"], entry


def test_every_check_is_registered():
    # a check_* function defined without the _check decorator would never run
    defined = {name for name in vars(_checks) if name.startswith("check_")}
    assert defined == {check.__name__ for check in CHECKS}


def test_every_check_has_a_mutant():
    assert {mutant.check for mutant in MUTANTS} == set(CHECKS)


@pytest.mark.parametrize(
    "mutant", MUTANTS, ids=[f"{m.check.__name__}-{m.attr}" + (m.tag and f"-{m.tag}") for m in MUTANTS]
)
def test_mutant_is_caught(monkeypatch, mutant):
    monkeypatch.setattr(mutant.module, mutant.attr, mutant.bug(getattr(mutant.module, mutant.attr)))
    result = mutant.check()
    assert result.passed is False
    assert result.detail == mutant.detail


def test_one_fib_mod_table_serves_a_run(monkeypatch):
    # fib-recurrence and negative-index-reflection read one table of 29 x 401
    # values per run, not one each
    calls = 0

    def counted(n, m, real=_checks.fib_mod):
        nonlocal calls
        calls += 1
        return real(n, m)

    monkeypatch.setattr(_checks, "fib_mod", counted)
    monkeypatch.setattr(_checks, "ALL_CHECKS", (_checks.check_fib_recurrence, _checks.check_negative_reflection))
    monkeypatch.setattr(_checks, "_two_cpus_one_thread", lambda: False)
    assert all(result.passed for result in _checks.run_all())
    assert calls == 29 * 401
    assert _checks._fib_table.cache_info().currsize == 0  # dropped when the run ends
    calls = 0
    assert _checks.check_negative_reflection().passed
    assert calls == 29 * 401  # a check called on its own builds its own


def test_rotation_check_compares_undirected_edges(monkeypatch):
    # a scene that draws one edge from its other end draws the same picture
    flipped_edge = corrupt_at(spec(7, 13), lambda edges: edges[:-1] + (edges[-1][::-1],))
    monkeypatch.setattr(_checks, "build_scene", flipped_edge(_checks.build_scene))
    assert _checks.check_rotation_equivalence().passed


TEST_PID = os.getpid()

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the battery forks a worker only when two CPUs are usable",
)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made during the test, one entry each."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
def test_run_all_on_one_cpu_equals_the_forked_run(forks):
    forked = _checks.run_all()
    assert len(forks) == 1
    assert_no_child_left()
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        pinned = _checks.run_all()
    finally:
        os.sched_setaffinity(0, cpus)
    assert len(forks) == 1  # one CPU: the whole battery ran in this process
    assert pinned == forked


@needs_two_cpus
def test_run_all_runs_here_when_no_process_can_be_forked(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    battery = (_checks.check_antipodal_sums, _checks.check_twenty_vertex_steps)
    monkeypatch.setattr(_checks, "ALL_CHECKS", battery)
    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    assert _checks.run_all() == [check() for check in battery]
    assert len(os.listdir("/proc/self/fd")) == open_fds  # the pipe was closed


def check_that_raises():
    raise ZeroDivisionError("seeded")


def check_that_dies_in_a_worker():
    if os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _checks.CheckResult("dies-in-a-worker", True, "")


def check_that_sleeps_in_a_worker():
    if os.getpid() != TEST_PID:
        time.sleep(30)
    return _checks.CheckResult("sleeps-in-a-worker", True, "")


# a broken check at an odd position runs in the worker, one at position 0 in
# this process, beside a worker that would sleep for 30 s unless it is killed
@needs_two_cpus
@pytest.mark.parametrize(
    "battery, message",
    [
        (
            (_checks.check_antipodal_sums, check_that_raises),
            "check_that_raises raised in the verify worker: ZeroDivisionError('seeded')",
        ),
        (
            (_checks.check_antipodal_sums, check_that_dies_in_a_worker),
            "the verify worker exited with code -9 in check_that_dies_in_a_worker",
        ),
        ((check_that_raises, check_that_sleeps_in_a_worker), "ZeroDivisionError('seeded')"),
    ],
    ids=["raises-in-the-worker", "dies-in-the-worker", "raises-beside-the-worker"],
)
def test_a_broken_check_exits_4_and_leaves_no_child(capsys, monkeypatch, forks, battery, message):
    monkeypatch.setattr(_checks, "ALL_CHECKS", battery)
    start = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("error: internal error: ") and err.count("\n") == 1, err
    assert message in err, err
    assert len(forks) == 1
    assert elapsed < 10
    assert_no_child_left()
