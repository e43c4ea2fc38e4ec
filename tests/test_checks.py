"""The `verify` battery, check by check.

The exhaustive property sweeps live only in `pisano_lab._checks`. Each
check gets one test id that reads its entry from the session's single
`verify` run, and at least one seeded bug from `mutants.py` that it must
catch.
"""

import pytest

from pisano_lab import _checks

from mutants import MUTANTS

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


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{m.check.__name__}-{m.attr}" for m in MUTANTS])
def test_mutant_is_caught(monkeypatch, mutant):
    monkeypatch.setattr(mutant.module, mutant.attr, mutant.bug(getattr(mutant.module, mutant.attr)))
    result = mutant.check()
    assert result.passed is False
    assert result.detail == mutant.detail
