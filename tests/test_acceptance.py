"""Acceptance gate: one test per criterion, at the stated tolerances.

Every check is exact (integer equality); the timing bounds are asserted
with the generous limits the contract states. Run with -v to get one
pass/fail line per criterion; each test also prints its own verdict.
"""

import math
import time
from pathlib import Path

from pisano_lab.cli import main
from pisano_lab.complete import ShiftDirection, brute_force_shift, compute_shift, first_zero_index
from pisano_lab.core import antipodal_sum, fib_mod, lucas_mod, pisano_period
from pisano_lab.quasi import QuasiClass, QuasiPrediction, predict_quasi, verify_quasi
from pisano_lab.render import build_scene, render_frames, render_svg
from pisano_lab.subseq import (
    DiagramType,
    SubsequenceSpec,
    dodecagon_tuple,
    is_cyclic_shift,
    pentagon_tuple,
    square_tuple,
    star_polygon,
    subsequence_period,
)

from oracles import (
    EXAMPLE_WALK_3_25,
    LUCAS_PERIOD_10,
    PARENT_PERIOD_10,
    PERIOD_MOD_8,
    U60_FIB_VALUES,
    circle_walk,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
UNITS_60 = tuple(r for r in range(1, 60) if math.gcd(r, 60) == 1)


def report(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def test_criterion_01_period_of_10(capsys):
    start = time.perf_counter()
    result = pisano_period(10)
    elapsed = time.perf_counter() - start
    assert result.length == 60
    assert result.period == PARENT_PERIOD_10
    assert elapsed < 0.001
    assert main(["period", "10"]) == 0
    out = capsys.readouterr().out
    assert "length: 60" in out
    assert " ".join(str(v) for v in PARENT_PERIOD_10) in out
    with capsys.disabled():
        report(1, f"period 10 has length 60 and the exact residues ({elapsed * 1000:.3f} ms)")


def test_criterion_02_period_of_8(capsys):
    start = time.perf_counter()
    result = pisano_period(8)
    elapsed = time.perf_counter() - start
    assert result.length == 12
    assert result.period == PERIOD_MOD_8
    assert elapsed < 0.001
    assert main(["period", "8"]) == 0
    assert "length: 12" in capsys.readouterr().out
    with capsys.disabled():
        report(2, f"period 8 is (0,1,1,2,3,5,0,5,5,2,7,1) ({elapsed * 1000:.3f} ms)")


def test_criterion_03_star_polygons_match_the_walk_oracle(capsys):
    start = time.perf_counter()
    for r in range(1, 60):
        poly = star_polygon(SubsequenceSpec(k=0, r=r))
        n, q = circle_walk(r)
        assert (poly.n, poly.q) == (n, q), r
        if n == 60:
            expected = DiagramType.TYPE3
        elif q in (1, n - 1):
            expected = DiagramType.TYPE1
        else:
            expected = DiagramType.TYPE2
        assert poly.diagram_type is expected, r
    elapsed = time.perf_counter() - start
    assert elapsed < 0.010
    anchors = {
        25: (12, 5, DiagramType.TYPE2),
        12: (5, 1, DiagramType.TYPE1),
        13: (60, 13, DiagramType.TYPE3),
    }
    for r, (n, q, diagram_type) in anchors.items():
        poly = star_polygon(SubsequenceSpec(k=0, r=r))
        assert (poly.n, poly.q, poly.diagram_type) == (n, q, diagram_type), r
    for r, q in {9: 3, 21: 7, 27: 9}.items():
        poly = star_polygon(SubsequenceSpec(k=0, r=r))
        assert (poly.n, poly.q) == (20, q), r
    with capsys.disabled():
        report(3, f"all 59 jump sizes agree with the circle walk ({elapsed * 1000:.2f} ms)")


def test_criterion_04_quasi_predictions_are_sound(capsys):
    consistent = {
        QuasiPrediction.FORWARD: (QuasiClass.FORWARD, QuasiClass.BOTH),
        QuasiPrediction.REVERSE: (QuasiClass.REVERSE, QuasiClass.BOTH),
    }
    start = time.perf_counter()
    exceptions = 0
    for k in range(60):
        for r in range(1, 60):
            prediction = predict_quasi(r)
            if prediction is QuasiPrediction.NO_GUARANTEE:
                continue
            observed = verify_quasi(subsequence_period(SubsequenceSpec(k=k, r=r)))
            if observed not in consistent[prediction]:
                exceptions += 1
    elapsed = time.perf_counter() - start
    assert exceptions == 0
    assert elapsed < 0.100
    with capsys.disabled():
        report(4, f"zero exceptions over all 3540 pairs ({elapsed * 1000:.1f} ms)")


def test_criterion_05_shift_oracle_agreement(capsys):
    start = time.perf_counter()
    for k in range(60):
        for r in UNITS_60:
            cert = compute_shift(k, r)
            assert (cert.direction, cert.shift) == brute_force_shift(k, r), (k, r)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    cert = compute_shift(9, 13)
    assert (cert.direction, cert.shift, cert.first_zero) == (ShiftDirection.FORWARD, 18, 12)
    assert first_zero_index(9, 13) == 12
    cert = compute_shift(15, 13)
    assert (cert.direction, cert.shift) == (ShiftDirection.FORWARD, 0)
    with capsys.disabled():
        report(5, f"closed form equals brute force on all 960 cases ({elapsed:.2f} s)")


def test_criterion_06_unit_digit_values(capsys):
    for r in UNITS_60:
        value = fib_mod(r, 10)
        assert value == U60_FIB_VALUES[r], r
        assert value == (r % 10 if r % 4 == 1 else (-r) % 10), r
    with capsys.disabled():
        report(6, "the published values and the sign law hold on all 16 units")


def test_criterion_07_zero_structure(capsys):
    for k in range(60):
        for r in UNITS_60:
            terms = subsequence_period(SubsequenceSpec(k=k, r=r)).terms
            zeros = [j for j, value in enumerate(terms) if value == 0]
            j0 = first_zero_index(k, r)
            assert zeros == [j0, j0 + 15, j0 + 30, j0 + 45], (k, r)
            subscripts = {(k + r * j) % 60 for j in zeros}
            assert subscripts == {0, 15, 30, 45}, (k, r)
            assert any(terms[j] == 0 and terms[(j + 1) % 60] == 1 for j in range(60)), (k, r)
    with capsys.disabled():
        report(7, "four zeros 15 apart, quarter-point subscripts, and a 0,1 pair in all 960 periods")


def test_criterion_08_fixed_jump_observations(capsys):
    for n in range(0, 60):
        assert antipodal_sum(n) == (0 if n % 15 == 0 else 10), n
    for k in range(60):
        square_sum = sum(square_tuple(k))
        assert square_sum == (0 if math.gcd(k, 15) == 15 else 20), k
        pentagon_sum = sum(pentagon_tuple(k))
        assert pentagon_sum == (20 if k % 12 in (0, 3, 6, 9) else 25), k
        dodecagon = dodecagon_tuple(k)
        assert sum(dodecagon) == (40 if k % 5 == 0 else 60), k
        if k % 5 != 0:
            assert is_cyclic_shift(dodecagon, LUCAS_PERIOD_10), k
    with capsys.disabled():
        report(8, "antipodal, square, pentagon, and dodecagon observations hold for all starts")


def test_criterion_09_lucas_coincidence(capsys):
    assert tuple(lucas_mod(n, 10) for n in range(12)) == LUCAS_PERIOD_10
    assert subsequence_period(SubsequenceSpec(k=3, r=25)).terms == LUCAS_PERIOD_10
    assert subsequence_period(SubsequenceSpec(k=3, r=5)).terms == LUCAS_PERIOD_10
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
        edges = build_scene(spec, step_limit=s + 1).edges
        labels = [PARENT_PERIOD_10[a] for a, _ in edges] + [PARENT_PERIOD_10[edges[-1][1]]]
        assert tuple(labels) == walk[: s + 2], s
    ten = build_scene(SubsequenceSpec(k=9, r=13), step_limit=10)
    assert len(ten.edges) == 10
    document = render_svg(ten)
    assert document == (GOLDEN_DIR / "first-ten-9-13.svg").read_bytes()
    assert document == render_svg(build_scene(SubsequenceSpec(k=9, r=13), step_limit=10))
    with capsys.disabled():
        report(10, "12 byte-stable frames in panel order plus the ten-edge figure")


def test_criterion_11_verify_command(capsys, verify_run):
    assert verify_run.code == 0
    assert verify_run.elapsed_s < 60.0
    assert verify_run.report["verified"] is True
    with capsys.disabled():
        report(11, f"verify exits 0 with every check green ({verify_run.elapsed_s:.2f} s)")
