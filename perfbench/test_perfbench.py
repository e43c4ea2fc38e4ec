"""Tests of the benchmark itself: every checker rejects a corrupted report.

Run from the repository root with `python3 -m pytest perfbench -q`.
Genuine reports come from the CLI in `src/`; each test first shows that the
checker accepts the genuine report, then corrupts one field and expects
Mismatch (or the error the benchmark counts as a failed invocation).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pisano_lab import cli  # noqa: E402

import checkers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checkers import Mismatch, Oracle  # noqa: E402


@pytest.fixture
def oracle() -> Oracle:
    return Oracle(ROOT / "tests" / "golden")


def report(capsys, *argv: str) -> dict:
    assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_verify_checker_rejects_a_failed_check(capsys, oracle):
    genuine = report(capsys, "verify")
    assert oracle.verify(genuine) == checkers.CHECK_COUNT
    genuine["results"]["checks"][5]["passed"] = False
    with pytest.raises(Mismatch):
        oracle.verify(genuine)


def test_verify_checker_rejects_a_missing_check_and_unverified_report(capsys, oracle):
    genuine = report(capsys, "verify")
    short = json.loads(json.dumps(genuine))
    del short["results"]["checks"][-1]
    with pytest.raises(Mismatch):
        oracle.verify(short)
    genuine["verified"] = False
    with pytest.raises(Mismatch):
        oracle.verify(genuine)


@pytest.mark.parametrize(
    "k, r, key, value",
    [
        (3, 7, "certificate", None),  # coprime: certificate dropped
        (3, 7, "quasi", "neither"),
        (9, 13, "terms", [0] * 60),
        (5, 12, "type", "Type2"),
        (5, 12, "prediction", "forward"),
        (10, 25, "q", 1),
    ],
)
def test_classify_checker_rejects_a_wrong_field(capsys, oracle, k, r, key, value):
    genuine = report(capsys, "classify", "--k", str(k), "--r", str(r))
    assert oracle.classify(genuine, k=k, r=r) == 1
    genuine["results"][key] = value
    with pytest.raises(Mismatch):
        oracle.classify(genuine, k=k, r=r)


def test_classify_checker_rejects_a_wrong_shift(capsys, oracle):
    genuine = report(capsys, "classify", "--k", "11", "--r", "47")
    cert = genuine["results"]["certificate"]
    cert["shift"] = (cert["shift"] + 1) % 60
    with pytest.raises(Mismatch):
        oracle.classify(genuine, k=11, r=47)


def test_classify_checker_ignores_added_keys(capsys, oracle):
    genuine = report(capsys, "classify", "--k", "3", "--r", "7")
    genuine["version"] = "9.9"
    genuine["results"]["elapsed_s"] = 0.1
    assert oracle.classify(genuine, k=3, r=7) == 1


def test_sweep_checker_rejects_a_wrong_row(capsys, oracle):
    genuine = report(capsys, "sweep")
    assert oracle.sweep(genuine) == 3540
    row = next(row for row in genuine["results"]["rows"] if row["shift"] is not None)
    row["direction"] = "reverse" if row["direction"] == "forward" else "forward"
    with pytest.raises(Mismatch):
        oracle.sweep(genuine)


def test_sweep_checker_rejects_a_missing_row(capsys, oracle):
    genuine = report(capsys, "sweep")
    genuine["results"]["rows"].pop(100)
    with pytest.raises(Mismatch):
        oracle.sweep(genuine)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda results: results["period"].__setitem__(7, (results["period"][7] + 1) % 250),
        lambda results: results["period"].__setitem__(0, 1),
        lambda results: results.update(period=results["period"] * 2, length=2 * results["length"]),
        lambda results: results.update(length=results["length"] - 1),
    ],
    ids=["residue", "start", "not-minimal", "length"],
)
def test_period_checker_rejects_a_corrupted_period(capsys, oracle, corrupt):
    genuine = report(capsys, "period", "--m", "250")
    assert oracle.period(genuine, m=250) == checkers.period_length(250) == 1500
    corrupt(genuine["results"])
    with pytest.raises(Mismatch):
        oracle.period(genuine, m=250)


def diagram_pair(capsys, oracle, tmp_path, k, r):
    full, frames = tmp_path / "full.svg", tmp_path / "frame.svg"
    common = ("diagram", "--k", str(k), "--r", str(r), "--out")
    assert oracle.diagram(report(capsys, *common, str(full)), k=k, r=r, out=full) == 1
    frames_report = report(capsys, *common, str(frames), "--frames")
    return frames_report, frames


def test_frames_checker_accepts_golden_pairs(capsys, oracle, tmp_path):
    for k, r, n in ((3, 25, 12), (9, 13, 60)):
        frames_report, frames = diagram_pair(capsys, oracle, tmp_path, k, r)
        assert oracle.frames(frames_report, k=k, r=r, out=frames) == n


def test_frames_checker_rejects_a_golden_mismatch(capsys, oracle, tmp_path):
    frames_report, frames = diagram_pair(capsys, oracle, tmp_path, 3, 25)
    third = tmp_path / "frame-02.svg"
    third.write_bytes(third.read_bytes().replace(b'font-size="11"', b'font-size="12"', 1))
    with pytest.raises(Mismatch):
        oracle.frames(frames_report, k=3, r=25, out=frames)


def test_frames_checker_rejects_a_last_frame_unlike_the_full_diagram(capsys, oracle, tmp_path):
    frames_report, frames = diagram_pair(capsys, oracle, tmp_path, 17, 7)
    last = tmp_path / "frame-59.svg"
    last.write_bytes(last.read_bytes().replace(b'stroke="blue"', b'stroke="red"', 1))
    with pytest.raises(Mismatch):
        oracle.frames(frames_report, k=17, r=7, out=frames)


def test_frames_checker_rejects_a_wrong_frame_count(capsys, oracle, tmp_path):
    frames_report, frames = diagram_pair(capsys, oracle, tmp_path, 17, 7)
    frames_report["results"]["frame_count"] = 59
    with pytest.raises(Mismatch):
        oracle.frames(frames_report, k=17, r=7, out=frames)


def test_diagram_checker_rejects_a_wrong_edge(capsys, oracle, tmp_path):
    out = tmp_path / "full.svg"
    genuine = report(capsys, "diagram", "--k", "4", "--r", "18", "--out", str(out))
    document = out.read_bytes()
    lines = document.split(b"\n")
    edge = next(i for i, line in enumerate(lines) if line.lstrip().startswith(b"<line "))
    lines[edge], lines[edge + 1] = lines[edge + 1], lines[edge]
    out.write_bytes(b"\n".join(lines))
    with pytest.raises(Mismatch):
        oracle.diagram(genuine, k=4, r=18, out=out)


def test_tally_counts_exit_codes_and_unparseable_output_as_failures(oracle):
    call = workloads.Call(("period", "--m", "10", "--format", "json"), lambda r: oracle.period(r, m=10))
    tally = run.Tally()
    assert tally.record(call, 2, "") == 0
    assert tally.record(call, 0, "not json") == 0
    assert tally.record(call, 0, json.dumps({"results": {"period": [0, 1], "length": 2}})) == 0
    assert (tally.attempted, tally.failed) == (3, 3)
    assert tally.first_failure.endswith("exit code 2")


def test_rounds_are_determined_by_the_seed(oracle, tmp_path):
    for name in workloads.WORKLOADS:
        def argvs(seed):
            return [call.argv for call in workloads.make_round(name, seed, oracle, tmp_path)]

        assert argvs(5) == argvs(5)
        if name != "verify-battery":
            assert argvs(5) != argvs(6)


def test_tail_keeps_ten_samples_beyond_it():
    value, percentile = run.tail([float(v) for v in range(1, 41)])
    assert value == 30.0
    assert percentile == 75.0


def test_self_time_subtracts_child_spans():
    spans = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 15, 25, 1], ["b", 50, 60, 0]]
    assert tracing.summarise(spans) == {"a": (1, 60, 100), "b": (2, 30, 40), "c": (1, 10, 10)}


def test_tracer_rebinds_every_importer_and_restores(capsys):
    from pisano_lab import _checks, complete, core

    modules = tracing.package_modules()
    original = core.fib_mod
    with tracing.Tracer(modules) as tracer:
        assert complete.fib_mod is _checks.fib_mod is core.fib_mod is not original
        tracing.clear_caches(modules)
        assert cli.main(["classify", "--k", "3", "--r", "7"]) == 0
        complete.brute_force_shift(3, 7)
    assert core.fib_mod is complete.fib_mod is _checks.fib_mod is original
    counts = {name: entry[0] for name, entry in tracing.summarise(tracer.spans).items()}
    assert counts["cli.cmd_classify"] == 1
    assert counts["complete.brute_force_shift"] == 1
    assert counts["core.fib_mod"] == 60
    assert len(tracer.arguments["core.fib_mod"]) == 60
    capsys.readouterr()


def test_peak_memory_measures_only_inside_the_call():
    modules = tracing.package_modules()
    from pisano_lab import core

    with tracing.PeakMemory(modules) as peaks:
        core.pisano_period(20000)
    small = peaks.peak_bytes["core.pisano_period"]
    with tracing.PeakMemory(modules) as peaks:
        core.pisano_period(40000)
    assert 0 < small < peaks.peak_bytes["core.pisano_period"]
