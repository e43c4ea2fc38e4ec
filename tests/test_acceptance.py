"""Acceptance gate: one test per criterion, at the stated tolerances.

Criteria 1, 2, 9 and 10 pin the exact period tables for m = 10 and m = 8,
the Lucas coincidence and the golden SVGs. The exhaustive sweeps behind
criteria 3-8 live only in the `verify` battery (`pisano_lab._checks`):
criteria 3-5 time one direct call of their checks against a bound, and
criteria 6-8 look their checks up by name in the report of the shared
`verify_run` fixture. Criterion 11 gates the `verify` command itself.
Run with -v to get one pass/fail line per criterion; each test also
prints its own verdict.
"""

import time
from pathlib import Path

import pytest

from pisano_lab import _checks
from pisano_lab.cli import main
from pisano_lab.core import lucas_mod, pisano_period
from pisano_lab.render import build_scene, render_frames, render_svg
from pisano_lab.subseq import SubsequenceSpec, subsequence_period

from oracles import EXAMPLE_WALK_3_25, LUCAS_PERIOD_10, PARENT_PERIOD_10, PERIOD_MOD_8

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def assert_checks_passed(verify_report: dict, names: list[str]) -> None:
    """Each named check is in the `verify` report and passed; a missing name fails."""
    entries = {entry["name"]: entry for entry in verify_report["results"]["checks"]}
    for name in names:
        assert name in entries, f"the verify report has no check named {name!r}"
        assert entries[name]["passed"], entries[name]


def timed_checks(*checks) -> float:
    """Run each check once; assert that all passed and return the seconds taken."""
    start = time.perf_counter()
    results = [check() for check in checks]
    elapsed = time.perf_counter() - start
    for result in results:
        assert result.passed, result
    return elapsed


def test_check_lookup_fails_on_an_unknown_name():
    verify_report = {"results": {"checks": [{"name": "unit-digit-law", "passed": True}]}}
    assert_checks_passed(verify_report, ["unit-digit-law"])
    with pytest.raises(AssertionError, match="no check named 'adjacent-zero-one'"):
        assert_checks_passed(verify_report, ["unit-digit-law", "adjacent-zero-one"])


def test_criterion_01_period_of_10(capsys):
    start = time.perf_counter()
    result = pisano_period(10)
    elapsed = time.perf_counter() - start
    assert len(result) == 60
    assert result == PARENT_PERIOD_10
    assert elapsed < 0.001
    assert main(["period", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "length: 60" in lines
    assert "period: " + " ".join(str(v) for v in PARENT_PERIOD_10) in lines
    with capsys.disabled():
        report(1, f"period 10 has length 60 and the exact residues ({elapsed * 1000:.3f} ms)")


def test_criterion_02_period_of_8(capsys):
    start = time.perf_counter()
    result = pisano_period(8)
    elapsed = time.perf_counter() - start
    assert len(result) == 12
    assert result == PERIOD_MOD_8
    assert elapsed < 0.001
    assert main(["period", "8"]) == 0
    assert "length: 12" in capsys.readouterr().out
    with capsys.disabled():
        report(2, f"period 8 is (0,1,1,2,3,5,0,5,5,2,7,1) ({elapsed * 1000:.3f} ms)")


def test_criterion_03_star_polygons_match_the_walk_oracle(capsys):
    elapsed = timed_checks(_checks.check_polygon_parameters, _checks.check_twenty_vertex_steps)
    assert elapsed < 0.010
    with capsys.disabled():
        report(3, f"all 59 jump sizes agree with the circle walk ({elapsed * 1000:.2f} ms)")


def test_criterion_04_quasi_predictions_are_sound(capsys):
    elapsed = timed_checks(_checks.check_forward_guarantee, _checks.check_reverse_guarantee)
    assert elapsed < 0.100
    with capsys.disabled():
        report(4, f"zero exceptions over all 3540 pairs ({elapsed * 1000:.1f} ms)")


def test_criterion_05_shift_oracle_agreement(capsys):
    elapsed = timed_checks(_checks.check_alignment_agreement)
    assert elapsed < 1.0
    with capsys.disabled():
        report(5, f"closed form equals brute force on all 960 cases ({elapsed:.2f} s)")


def test_criterion_06_unit_digit_values(capsys, verify_run):
    assert_checks_passed(verify_run.report, ["unit-digit-law"])
    with capsys.disabled():
        report(6, "the published values and the sign law hold on all 16 units")


def test_criterion_07_zero_structure(capsys, verify_run):
    assert_checks_passed(
        verify_run.report,
        ["four-equally-spaced-zeros", "zero-subscript-classes", "adjacent-zero-one"],
    )
    with capsys.disabled():
        report(7, "four zeros 15 apart, quarter-point subscripts, and a 0,1 pair in all 960 periods")


def test_criterion_08_fixed_jump_observations(capsys, verify_run):
    assert_checks_passed(
        verify_run.report,
        ["antipodal-sums", "square-tuples", "pentagon-tuples", "dodecagon-tuples"],
    )
    with capsys.disabled():
        report(8, "antipodal, square, pentagon, and dodecagon observations hold for all starts")


def test_criterion_09_lucas_coincidence(capsys):
    assert tuple(lucas_mod(n, 10) for n in range(12)) == LUCAS_PERIOD_10
    assert subsequence_period(SubsequenceSpec(k=3, r=25)) == LUCAS_PERIOD_10
    assert subsequence_period(SubsequenceSpec(k=3, r=5)) == LUCAS_PERIOD_10
    with capsys.disabled():
        report(9, "jumps 25 and 5 from start 3 both reproduce the Lucas period")


def test_criterion_10_render_goldens(capsys):
    spec = SubsequenceSpec(k=3, r=25)
    frames = render_frames(spec)
    assert len(frames) == 12
    assert frames == render_frames(spec)  # byte-stable
    walk = EXAMPLE_WALK_3_25
    for s, frame in enumerate(frames):
        golden = (GOLDEN_DIR / f"steps-3-25-{s:02d}.svg").read_bytes()
        assert frame == golden, s
        edges = build_scene(spec, step_limit=s + 1)
        labels = [PARENT_PERIOD_10[a] for a, _ in edges] + [PARENT_PERIOD_10[edges[-1][1]]]
        assert tuple(labels) == walk[: s + 2], s
    assert len(build_scene(SubsequenceSpec(k=9, r=13), step_limit=10)) == 10
    document = render_svg(SubsequenceSpec(k=9, r=13), step_limit=10)
    assert document == (GOLDEN_DIR / "first-ten-9-13.svg").read_bytes()
    assert document == render_svg(SubsequenceSpec(k=9, r=13), step_limit=10)
    with capsys.disabled():
        report(10, "12 byte-stable frames in panel order plus the ten-edge figure")


def test_criterion_11_verify_command(capsys, verify_run):
    assert verify_run.code == 0
    assert verify_run.elapsed_s < 60.0
    assert verify_run.report["verified"] is True
    with capsys.disabled():
        report(11, f"verify exits 0 with every check green ({verify_run.elapsed_s:.2f} s)")
