"""The `verify` battery, check by check.

The exhaustive property sweeps live only in `pisano_lab._checks`. Each
check gets one test id that reads its entry from the session's single
`verify` run, and at least one seeded bug from `mutants.py` that it must
catch. The last tests run the whole battery in this process, as `verify`
does, and show how a check that raises ends the command.
"""

import collections

import pytest

from pisano_lab import _checks, complete
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
    assert all(result.passed for result in _checks.run_all())
    assert calls == 29 * 401
    assert _checks._fib_table.cache_info().currsize == 0  # dropped when the run ends
    calls = 0
    assert _checks.check_negative_reflection().passed
    assert calls == 29 * 401  # a check called on its own builds its own


# the calls each check makes, in one run, through the names `_checks` binds,
# into the functions it tests: a check made cheaper still tests every case
COUNTED = ("fib_mod", "subsequence_period", "verify_quasi", "build_scene", "compute_shift", "brute_force_shift")
CALLS_PER_CHECK = {
    "fib-recurrence": {"fib_mod": 29 * 401},
    "negative-index-reflection": {},  # reads the table fib-recurrence built
    "even-terms-at-multiples-of-3": {"fib_mod": 1001},
    "fives-at-multiples-of-5": {"fib_mod": 1001},
    "index-addition-identity": {"fib_mod": 241},
    "fifteen-step-multiplier": {"fib_mod": 181},
    "antipodal-sums": {},
    "period-contents": {"fib_mod": 2351},
    "polygon-parameters-vs-walk": {},
    "reversed-jump-periods": {"subsequence_period": 3540},
    "twenty-vertex-steps": {},
    "square-tuples": {},
    "pentagon-tuples": {},
    "dodecagon-tuples": {},
    "forward-recurrence-guarantee": {"verify_quasi": 600},
    "reverse-recurrence-guarantee": {"verify_quasi": 600},
    "forward-seed-identity": {"fib_mod": 68},
    "reverse-seed-identity": {"fib_mod": 66},
    "negative-index-parity": {"fib_mod": 402},
    "alignment-oracle-agreement": {"compute_shift": 960, "brute_force_shift": 960},
    "unit-digit-law": {"fib_mod": 16},
    "unit-values-are-units": {"fib_mod": 16},
    "inverse-anchor-positions": {"fib_mod": 48},
    "four-equally-spaced-zeros": {"subsequence_period": 960},
    "zero-subscript-classes": {},
    "adjacent-zero-one": {"subsequence_period": 960},
    "first-zero-minimality": {"subsequence_period": 960},
    "unit-group-tables": {},
    "diagram-vertex-counts": {"build_scene": 177},
    "diagram-labels": {"fib_mod": 60},
    "diagram-rotation-equivalence": {"build_scene": 3540},
    "diagram-determinism": {},
}


def test_each_check_makes_its_calls(monkeypatch):
    calls = collections.Counter()
    for name in COUNTED:

        def counted(*args, real=getattr(_checks, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(_checks, name, counted)
    made = {}

    def tallied(check):
        def run():
            calls.clear()
            result = check()
            made[result.name] = dict(calls)
            return result

        return run

    monkeypatch.setattr(_checks, "ALL_CHECKS", tuple(map(tallied, CHECKS)))
    assert all(result.passed for result in _checks.run_all())
    assert made == CALLS_PER_CHECK


def test_rotation_check_compares_undirected_edges(monkeypatch):
    # a scene that draws one edge from its other end draws the same picture
    flipped_edge = corrupt_at(spec(7, 13), lambda edges: edges[:-1] + (edges[-1][::-1],))
    monkeypatch.setattr(_checks, "build_scene", flipped_edge(_checks.build_scene))
    assert _checks.check_rotation_equivalence().passed


def test_run_all_reports_every_check_in_order(verify_run):
    results = _checks.run_all()
    assert len(results) == len(CHECKS) == 32
    # in ALL_CHECKS order, as the report of the session's verify run lists them
    assert [result.__dict__ for result in results] == verify_run.report["results"]["checks"]


# a term of the wrong kind must fail its check: a ValueError raised out of a
# check would end `verify` with exit 2 and no report, as if its arguments were bad
@pytest.mark.parametrize(
    "mutant",
    [m for m in MUTANTS if m.tag == "float" or (m.tag, m.module) == ("no-byte", complete)],
    ids=lambda m: m.check.__name__,
)
def test_a_term_of_the_wrong_kind_fails_verify_with_exit_1(capsys, monkeypatch, mutant):
    monkeypatch.setattr(mutant.module, mutant.attr, mutant.bug(getattr(mutant.module, mutant.attr)))
    code = main(["verify"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        f"FAIL {mutant.check().name}: {mutant.detail}"
    ]


def check_that_raises():
    raise ZeroDivisionError("seeded")


def test_a_check_that_raises_exits_4_with_nothing_on_stdout(capsys, monkeypatch):
    monkeypatch.setattr(_checks, "ALL_CHECKS", (check_that_raises, _checks.check_antipodal_sums))
    code = main(["verify"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("error: internal error: ") and err.count("\n") == 1, err
    assert "ZeroDivisionError('seeded')" in err, err
