import contextlib
import enum
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import pisano_lab
from pisano_lab import cli, core
from pisano_lab.cli import _int_blocks, _json_pieces, _json_rows, _Lazy, main
from pisano_lab.core import MAX_LISTED_MODULUS, fib_mod, lucas_mod, pisano_length, pisano_period
from pisano_lab.render import render_frames, render_svg
from pisano_lab.subseq import SubsequenceSpec

from mutants import MUTANTS
from oracles import PERIOD_MOD_8

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_period_json_matches_text(capsys):
    code, text_out, _ = run(capsys, "period", "8")
    assert code == 0
    code, json_out, _ = run(capsys, "period", "8", "--format", "json")
    assert code == 0
    report = json.loads(json_out)
    assert report["command"] == "period"
    assert report["inputs"] == {"m": 8}
    assert report["results"]["length"] == 12
    assert tuple(report["results"]["period"]) == PERIOD_MOD_8
    # identical numeric content in both formats
    assert f"length: {report['results']['length']}" in text_out
    assert " ".join(str(v) for v in report["results"]["period"]) in text_out


def test_period_flag_form(capsys):
    code, out, _ = run(capsys, "period", "--m", "8")
    assert code == 0
    assert "length: 12" in out


def test_period_rejects_double_or_missing_modulus(capsys):
    code, out, err = run(capsys, "period", "8", "--m", "8")
    assert code == 2 and out == ""
    assert err.endswith("error: argument --m: not allowed with argument m\n"), err
    code, out, err = run(capsys, "period")
    assert code == 2 and out == ""
    assert err.endswith("error: one of the arguments m --m is required\n"), err


def test_period_refuses_a_modulus_above_the_length_cap_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "period", str(2**61 - 1))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_period_lists_residues_up_to_the_cap_and_the_length_alone_above(capsys, tmp_path):
    target = tmp_path / "cap.json"
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert main(["period", "--m", str(MAX_LISTED_MODULUS), "--format", "json", "--out", str(target)]) == 0
    with target.open(encoding="utf-8") as report:
        assert '"length": 1500000,\n    "period": [\n      0,\n      1,\n' in report.read(200)
    m = MAX_LISTED_MODULUS + 1
    code, out, _ = run(capsys, "period", str(m), "--format", "json")
    report = {"command": "period", "inputs": {"m": m}, "results": {"length": pisano_length(m)}}
    assert code == 0 and out == json.dumps(report, indent=2) + "\n"
    code, out, _ = run(capsys, "period", str(m))
    assert code == 0 and out == f"modulus: {m}\nlength: {pisano_length(m)}\n"


def test_period_makes_no_fib_mod_call(capsys, monkeypatch):
    # the period-moduli benchmark predicts, and its traced run requires, zero fib_mod calls
    calls = []

    def counted(n, m):
        calls.append((n, m))
        return fib_mod(n, m)

    for name, module in list(sys.modules.items()):
        if name.startswith("pisano_lab") and getattr(module, "fib_mod", None) is fib_mod:
            monkeypatch.setattr(module, "fib_mod", counted)
    for m in (2, 10, 6250, MAX_LISTED_MODULUS + 1):
        for fmt in ("text", "json"):
            assert run(capsys, "period", str(m), "--format", fmt)[0] == 0
    assert calls == []
    lucas_mod(7, 10)  # two fib_mod calls, counted: the patch is live
    assert len(calls) == 2


def test_classify_worked_example(capsys):
    code, out, _ = run(capsys, "classify", "--k", "9", "--r", "13", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["n"], results["q"], results["type"]) == (60, 13, "Type3")
    assert results["quasi"] == "forward"
    assert results["prediction"] == "forward"
    cert = results["certificate"]
    assert cert == {
        "unit_digit": 3,
        "log_index": 1,
        "zero_vertex": 15,
        "restart_index": 42,
        "first_zero": 12,
        "direction": "forward",
        "shift": 18,
    }


def test_classify_star_polygon_example(capsys):
    code, out, _ = run(capsys, "classify", "--k", "3", "--r", "25")
    assert code == 0
    for line in ("n: 12", "q: 5", "type: Type2", "convex: false", "quasi: forward"):
        assert line in out.splitlines()
    assert "certificate: none" in out


# each documented exit code, with the start of what the run prints on stdout
# ("" for nothing) and a piece of what it prints on stderr ("" for anything);
# "{tmp}" stands for a fresh directory. The two `verify` rows run with a
# seeded bug of tests/mutants.py patched in (SEEDED_BUGS). The first fails
# fib-recurrence, at position 0 of the battery. The second is the bug for
# negative-index-reflection, at position 1; the wrong F(-200) mod 30 fails
# fib-recurrence as well, and both FAIL lines must come in battery order.
# The two exit-4 rows run `period` with Wall's bound halved (30 for m = 10),
# which is not a period, so pisano_length refuses it before anything is
# printed, below the listing cap and above it
EXIT_CODES = {
    "period": (["period", "10"], 0, "modulus: 10", ""),
    "help": (["--help"], 0, "usage: pisano-lab", ""),
    "verify-with-a-seeded-bug": (["verify"], 1, f"FAIL fib-recurrence: {MUTANTS[0].detail}", ""),
    "verify-with-a-seeded-bug-at-an-odd-position": (
        ["verify"],
        1,
        "FAIL fib-recurrence: recurrence breaks at n=-200, m=30\n"
        f"FAIL negative-index-reflection: {MUTANTS[2].detail}\n",
        "",
    ),
    "modulus-twice": (["period", "8", "--m", "8"], 2, "", "usage: pisano-lab"),
    "modulus-missing": (["period"], 2, "", "usage: pisano-lab"),
    "diagram-without-out": (["diagram", "--k", "3", "--r", "25"], 2, "", "usage: pisano-lab"),
    "frames-with-steps": (
        ["diagram", "--k", "3", "--r", "25", "--frames", "--steps", "2", "--out", "{tmp}/x"],
        2,
        "",
        "usage: pisano-lab",
    ),
    "k-out-of-range": (["classify", "--k", "60", "--r", "1"], 2, "", "error: start index k"),
    "r-out-of-range": (["classify", "--k", "0", "--r", "60"], 2, "", "error: jump size r"),
    "r-missing": (["classify", "--k", "0"], 2, "", "the following arguments are required: --r"),
    "unknown-command": (["frobnicate"], 2, "", "invalid choice: 'frobnicate'"),
    "modulus-1": (["period", "1"], 2, "", "modulus"),
    "unwritable-out": (["diagram", "--k", "3", "--r", "25", "--out", "{tmp}/missing-dir/x.svg"], 3, "", "error: "),
    "doubled-length-below-the-listing-cap": (["period", "10"], 4, "", "error: internal error: "),
    "doubled-length-above-the-listing-cap": (["period", "2000003"], 4, "", "error: internal error: "),
}


def _halved(wall_bound):
    # half of Wall's bound is not a period of 10 or of 2000003
    def halved(m):
        bound, primes = wall_bound(m)
        return bound // 2, primes

    return halved


SEEDED_BUGS = {"verify-with-a-seeded-bug": MUTANTS[0], "verify-with-a-seeded-bug-at-an-odd-position": MUTANTS[2]}


@pytest.mark.parametrize(
    "row, argv, code, head, err_part", [(row, *case) for row, case in EXIT_CODES.items()], ids=EXIT_CODES
)
def test_exit_codes(capsys, monkeypatch, tmp_path, row, argv, code, head, err_part):
    if row in SEEDED_BUGS:
        mutant = SEEDED_BUGS[row]
        monkeypatch.setattr(mutant.module, mutant.attr, mutant.bug(getattr(mutant.module, mutant.attr)))
    if code == 4:
        monkeypatch.setattr(core, "_wall_bound", _halved(core._wall_bound))
    got, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert got == code
    assert out.startswith(head) and bool(out) == bool(head)
    assert err_part in err, err
    if code == 1:
        assert out.endswith("\nverified: false\n")
    if code == 4:
        assert err.startswith(err_part) and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_sweep_into_a_closed_pipe_exits_3_quietly():
    # a reader that stops after one line, as `| head -1` does; the 271 KB of
    # rows cannot all fit in the pipe before it is closed
    root = str(Path(pisano_lab.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "pisano_lab.cli", "sweep"]
    env = {**os.environ, "PYTHONPATH": root}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert child.stdout.readline().startswith(b"k=0 r=1 ")
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (3, b"")


# `cli.run` ends the process with os._exit, so the exit path is only ever
# tested in a child: `python -m pisano_lab.cli`, the package from this checkout,
# with stdout buffered as it is by default, so a lost final flush shows
def _child_env() -> dict[str, str]:
    root = str(Path(pisano_lab.__file__).resolve().parent.parent)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": root}


def _spawn(*argv: str, shell_redirect: str = "", **env: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "-m", "pisano_lab.cli", *argv]
    if shell_redirect:
        command = ["sh", "-c", f'exec "$@" {shell_redirect}', "sh", *command]
    return subprocess.run(command, capture_output=True, env={**_child_env(), **env}, timeout=60)


@pytest.mark.parametrize("argv", [("period", "10", "--format", "json"), ("sweep", "--format", "json")])
def test_a_child_flushes_all_of_stdout_before_it_exits(run_cli, argv):
    # the sweep is about 800 KB, so its last partial buffer is still unwritten
    # when main returns
    child = _spawn(*argv)
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == run_cli(*argv).stdout.encode("utf-8")


def test_a_child_writes_the_same_report_to_out_and_stdout(tmp_path):
    target = tmp_path / "report.json"
    child = _spawn("classify", "--k", "9", "--r", "13", "--format", "json", "--out", str(target))
    assert (child.returncode, child.stderr) == (0, b"")
    assert target.read_bytes() == child.stdout
    assert json.loads(child.stdout)["results"]["n"] == 60


# how a child ends, by case: its argv, a shell redirection of its streams,
# then its exit code and the start of its stdout and of its stderr (b"" for
# nothing; a stderr that is not empty is one line). `period 10` fits in
# stdout's buffer, so its first write to a full device is the final flush
CHILD_EXITS = {
    "refused-input": (["period", "1"], "", 2, b"", b"error: "),
    "help": (["--help"], "", 0, b"usage: pisano-lab", b""),
    "final-flush-to-a-full-device": (["period", "10"], ">/dev/full", 3, b"", b"error: "),
    "final-flush-with-stderr-full-too": (["period", "10"], ">/dev/full 2>/dev/full", 3, b"", b""),
    # a closed stdout is None in the child, which the final flush skips
    "stdout-closed": (["period", "10"], ">&-", 4, b"", b"error: internal error: "),
    # a closed stderr is None in the child: the error line is dropped, not printed to stdout
    "refused-input-with-stderr-closed": (["period", "1"], "2>&-", 2, b"", b""),
    "unwritable-out-with-stderr-closed": (
        ["classify", "--k", "0", "--r", "1", "--out", "/nonexistent/x.json"], "2>&-", 3, b"", b""
    ),
}


@pytest.mark.parametrize("argv, redirect, code, out_head, err_head", CHILD_EXITS.values(), ids=CHILD_EXITS)
def test_a_child_exits_with_the_code_of_main_or_of_its_final_flush(argv, redirect, code, out_head, err_head):
    child = _spawn(*argv, shell_redirect=redirect)
    assert child.returncode == code
    assert child.stdout.startswith(out_head) and bool(child.stdout) == bool(out_head)
    assert child.stderr.startswith(err_head) and child.stderr.count(b"\n") == bool(err_head), child.stderr


def test_an_unbuffered_child_with_stderr_closed_exits_3_when_stdout_is_full():
    # unbuffered, the first write fails inside main, whose error line then has
    # nowhere to go; it once went to the full stdout and raised out of main
    child = _spawn("period", "10", shell_redirect=">/dev/full 2>&-", PYTHONUNBUFFERED="1")
    assert (child.returncode, child.stdout, child.stderr) == (3, b"", b"")


def test_a_child_whose_final_flush_meets_a_closed_pipe_exits_3_quietly():
    # the reader is gone before the child's first write, its final flush
    argv = [sys.executable, "-m", "pisano_lab.cli", "period", "10"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as child:
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (3, b"")


def test_sweep_counts(run_cli):
    code, out, *_ = run_cli("sweep")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3540
    assert rows[0] == "k=0 r=1 n=60 q=1 type=Type3 quasi=forward prediction=forward shift=forward:0"
    assert rows[1].startswith("k=0 r=2 ")
    by_type = {"Type1": 0, "Type2": 0, "Type3": 0}
    for row in rows:
        for name in by_type:
            if f"type={name}" in row:
                by_type[name] += 1
    # 16 jump sizes are coprime to 60, and 19 expose a regular polygon
    assert by_type == {"Type1": 19 * 60, "Type2": 24 * 60, "Type3": 16 * 60}


def test_sweep_json_agrees_with_text(run_cli):
    code, out, *_ = run_cli("sweep", "--format", "json")
    assert code == 0
    report = json.loads(out)
    rows = report["results"]["rows"]
    assert report["results"]["row_count"] == 3540
    assert rows[0] == {
        "k": 0, "r": 1, "n": 60, "q": 1, "type": "Type3",
        "quasi": "forward", "prediction": "forward",
        "direction": "forward", "shift": 0,
    }
    assert rows[-1]["k"] == 59 and rows[-1]["r"] == 59
    assert sum(1 for row in rows if row["shift"] is not None) == 960


def test_verify_passes_and_reports_each_check(verify_run):
    # one PASS line per check and "verified: true", pinned byte for byte
    assert verify_run.stdout == (GOLDEN_DIR / "verify.txt").read_text(encoding="utf-8")


def test_verify_json_shape(verify_run):
    report = verify_run.report
    assert report["command"] == "verify"
    checks = report["results"]["checks"]
    # one JSON entry per text line, in the same order and with the same words
    lines = verify_run.stdout.splitlines()[:-1]
    assert [f"PASS {c['name']} ({c['detail']})" for c in checks] == lines


def test_report_written_to_out_path(capsys, tmp_path, run_cli):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "classify", "--k", "3", "--r", "25", "--out", str(target))
    assert code == 0
    report = json.loads(target.read_text())
    assert report["results"]["n"] == 12
    # in JSON mode the file holds exactly the bytes printed to stdout, and in
    # text mode, which makes the residues or rows again for the file, too;
    # the 37,500 residues of m = 6250 cross ten 4,096-int blocks
    for argv in (("period", "--m", "6250"), ("sweep",)):
        code, out, written, _ = run_cli(*argv, "--format", "json")
        assert code == 0
        assert written == out.encode("utf-8") == run_cli(*argv).written


# sha256 and length of the stdout of six commands; a change to these bytes
# must be deliberate
PINNED_STDOUT = [
    (("sweep", "--format", "json"), "7495a0e6c02d6bcfc987779415c6ad196df37c53eeec7805b77bc04678c761ea", 789_349),
    (("sweep",), "578d5330fbf56c049ac7620fab2302c7201856ff0018e14d89b7c64022968cc2", 271_086),
    (
        ("period", "--m", "6250", "--format", "json"),
        "12e97cfe091866ec2406a8fb258749a72a1c1096563c0c02ef04e3965a3411fa",
        443_461,
    ),
    (("period", "--m", "6250"), "30f2c45cc0ff6f056291193b8e564eba27e87385ca9bab64e50889ef731a1be7", 180_876),
    (("classify", "--k", "9", "--r", "13"), "c9bc3e6ffa0cb77d5ddf07e222dfd65ef7c0cb9d3e5fa7980800a54b0f2755da", 343),
    (("classify", "--k", "3", "--r", "25"), "09ad64410c029a7351f45f85339f3fdfd692235283fd415a381333af9286ca35", 132),
]


@pytest.mark.parametrize("argv, digest, size", PINNED_STDOUT, ids=[" ".join(a) for a, _, _ in PINNED_STDOUT])
def test_stdout_bytes_are_pinned(run_cli, argv, digest, size):
    code, out, *_ = run_cli(*argv)
    assert code == 0
    data = out.encode("utf-8")
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)


def test_verify_report_bytes_are_pinned(run_cli):
    # the --out bytes of the session's one verify run, which equal `verify --format json` stdout
    data = run_cli("verify").written
    digest = "82bc6495acfa33c8ee07ed78085f554cfcc10f26abb8963b81ec30724411f31f"
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, 4257)


# a sweep row as _json_rows takes it, its str and None fields spelled as JSON, and as json.dumps takes it
_SPELLED_ROW = (3, 7, 12, 5, '"Type2"', '"neither"', '"no_guarantee"', "null", "null")
_ROW = dict(zip(cli._SWEEP_KEYS, (3, 7, 12, 5, "Type2", "neither", "no_guarantee", None, None)))


@pytest.mark.parametrize(
    "items, plain, pieces",
    [
        ((7,), [7], _int_blocks),
        ((-2, 0, 2**70), [-2, 0, 2**70], _int_blocks),
        ((_SPELLED_ROW,), [_ROW], _json_rows),
        ((_SPELLED_ROW, _SPELLED_ROW), [_ROW, _ROW], _json_rows),
    ],
    ids=["one-int", "ints", "one-row", "rows"],
)
def test_dumps_encodes_a_lazy_list_as_stdlib_does(items, plain, pieces):
    # a _Lazy is only ever the last value of `results`, and never empty
    lazy = _Lazy(lambda: iter(items), pieces)
    report = {"command": "x", "inputs": {"m": 8}, "results": {"length": len(items), "items": lazy}}
    expected = {**report, "results": {"length": len(items), "items": plain}}
    assert "".join(_json_pieces(report)) == json.dumps(expected, indent=2)


def _traced(call):
    """The result of call() and the tracemalloc peak of making it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dumps_encodes_a_long_int_list_without_a_string_per_item():
    residues = pisano_period(6250)  # 37,500 residues
    value = {"results": {"period": _Lazy(lambda: iter(residues), _int_blocks)}}
    encoded, peak = _traced(lambda: "".join(_json_pieces(value)))
    assert encoded == json.dumps({"results": {"period": list(residues)}}, indent=2)
    # the pieces held by the join and the joined output cost about 2x the output;
    # a format string and a tuple as long as the list cost about 3x, a str per item about 9x
    assert peak < 2.5 * len(encoded)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_period_report_costs_little_beyond_the_scan(fmt):
    # the length comes first and the residues stream from the scan into either
    # output: no list, tuple, string or format string as long as the period.
    # 2 * 5**6 has 187,500 residues, whose list and tuple alone took 9 MB
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        code, peak = _traced(lambda: main(["period", "--m", "31250", "--format", fmt]))
    assert code == 0
    assert peak < 2**20


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sweep_holds_no_row_list(fmt):
    # the 3,540 rows are classified as they are written; their list of dicts,
    # held before the first byte, peaked above 1 MiB in either format
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        code, peak = _traced(lambda: main(["sweep", "--format", fmt]))
    assert code == 0
    assert peak < 2**19


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses brings inspect, ast, dis and tokenize into every CLI start,
    # typing costs several ms of its own, though annotations need neither, and
    # pathlib brings urllib.parse and ipaddress, though diagram's paths are str;
    # the child runs without site, so only the package's own imports count
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "pathlib", "urllib.parse", "ipaddress"]
    root = str(Path(pisano_lab.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import pisano_lab.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    child = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert child.stdout == "[]\n"


class _Colour(enum.Enum):
    RED = "red"


@pytest.mark.parametrize("bad", [_Colour.RED], ids=["enum"])
def test_dumps_refuses_other_types(bad):
    for value in (bad, [0, bad], {"results": {"rows": [bad]}}):
        with pytest.raises(TypeError):
            "".join(_json_pieces(value))


def test_a_value_json_cannot_encode_exits_4_with_nothing_written(capsys, monkeypatch, tmp_path):
    # a seeded bug: the recurrence class left in the classify report as an
    # enum where its .value belongs; no piece of the report may reach stdout
    # or --out before the encoder refuses it
    real = cli.verify_quasi
    monkeypatch.setattr(cli, "verify_quasi", lambda spec: SimpleNamespace(value=real(spec)))
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "classify", "--k", "9", "--r", "13", "--format", "json", "--out", str(target))
    assert (code, out) == (4, "")
    assert err.startswith("error: internal error: ") and err.count("\n") == 1, err
    assert target.read_bytes() == b""


def test_diagram_json_escapes_a_non_ascii_path(capsys, tmp_path):
    target = tmp_path / "étoile-星.svg"
    code, out, _ = run(capsys, "diagram", "--k", "3", "--r", "25", "--format", "json", "--out", str(target))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["files"] == [str(target)]
    assert out == json.dumps(report, indent=2) + "\n"
    assert out.isascii()


def test_diagram_single_file(capsys, tmp_path):
    target = tmp_path / "diagram.svg"
    code, out, _ = run(capsys, "diagram", "--k", "3", "--r", "25", "--out", str(target))
    assert code == 0
    assert f"wrote {target}" in out
    code, out, _ = run(capsys, "diagram", "--k", "3", "--r", "25", "--format", "json", "--out", str(target))
    assert code == 0 and json.loads(out)["results"]["edge_count"] == 12
    assert target.read_bytes() == render_svg(SubsequenceSpec(k=3, r=25))


def test_diagram_frames(capsys, tmp_path):
    target = tmp_path / "steps.svg"
    code, out, _ = run(capsys, "diagram", "--k", "3", "--r", "25", "--frames", "--out", str(target))
    assert code == 0
    paths = sorted(tmp_path.glob("steps-*.svg"))
    assert [p.name for p in paths] == [f"steps-{i:02d}.svg" for i in range(12)]
    for s, path in enumerate(paths):
        assert path.read_bytes() == (GOLDEN_DIR / f"steps-3-25-{s:02d}.svg").read_bytes(), s
    code, out, _ = run(capsys, "diagram", "--k", "3", "--r", "25", "--frames", "--format", "json", "--out", str(target))
    assert code == 0 and json.loads(out)["results"]["frame_count"] == 12


def test_diagram_steps_render_a_partial_walk(capsys, tmp_path):
    target = tmp_path / "ten.svg"
    code, _, _ = run(capsys, "diagram", "--k", "9", "--r", "13", "--steps", "10", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == (GOLDEN_DIR / "first-ten-9-13.svg").read_bytes()
    argv = ("diagram", "--k", "9", "--r", "13", "--steps", "10", "--format", "json", "--out", str(target))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["results"]["edge_count"] == 10


def test_diagram_argument_errors(capsys, tmp_path):
    target = str(tmp_path / "x.svg")
    assert run(capsys, "diagram", "--k", "3", "--r", "25", "--steps", "0", "--out", target)[0] == 2
    assert run(capsys, "diagram", "--k", "3", "--r", "25", "--steps", "13", "--out", target)[0] == 2
    code, out, err = run(capsys, "diagram", "--k", "3", "--r", "25")
    assert code == 2 and out == ""
    assert err.endswith("error: the following arguments are required: --out\n"), err
    code, out, err = run(capsys, "diagram", "--k", "3", "--r", "25", "--frames", "--steps", "2", "--out", target)
    assert code == 2 and out == ""
    assert err.endswith("error: argument --steps: not allowed with argument --frames\n"), err


def test_diagram_refused_steps_leave_no_file(capsys, tmp_path):
    target = tmp_path / "x.svg"
    for steps in ("0", "13"):
        code, out, err = run(capsys, "diagram", "--k", "3", "--r", "25", "--steps", steps, "--out", str(target))
        assert (code, out, err) == (2, "", f"error: step_limit must be in [1, 12], got {steps}\n")
        assert not target.exists(), steps


# --out as typed, in the working directory that holds the directory `sub`,
# and the files diagram opens and reports, or None for exit 3 with one error
# line and no file written: no spelling is normalised
_FRAMES = [f"-{index:02d}.svg" for index in range(12)]
_DIAGRAM_NAMES = {
    "dot-slash": ("./x.svg", (), ["./x.svg"]),
    "dot-slash-frames": ("./x.svg", ("--frames",), ["./x" + tail for tail in _FRAMES]),
    "double-slash": ("sub//y.svg", (), ["sub//y.svg"]),
    "dot-segment-frames": ("sub/./y.svg", ("--frames",), ["sub/./y" + tail for tail in _FRAMES]),
    "directory": ("sub/", (), None),
    "directory-frames": ("sub/", ("--frames",), ["sub/" + tail for tail in _FRAMES]),
    "trailing-slash": ("x.svg/", (), None),
    "trailing-slash-frames": ("x.svg/", ("--frames",), None),
}


@pytest.mark.parametrize("out, frames, files", _DIAGRAM_NAMES.values(), ids=_DIAGRAM_NAMES.keys())
def test_diagram_opens_and_reports_out_as_named(capsys, tmp_path, monkeypatch, out, frames, files):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, text, err = run(capsys, "diagram", "--k", "3", "--r", "25", *frames, "--out", out)
    if files is None:
        assert (code, text) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert [path.name for path in tmp_path.rglob("*")] == ["sub"]
        return
    assert (code, text, err) == (0, "".join(f"wrote {name}\n" for name in files), "")
    written = sorted(path.resolve() for path in tmp_path.rglob("*.svg"))
    assert written == sorted(Path(name).resolve() for name in files)
    if frames:
        for index, name in enumerate(files):
            assert Path(name).read_bytes() == (GOLDEN_DIR / f"steps-3-25-{index:02d}.svg").read_bytes(), name
    else:
        assert Path(files[0]).read_bytes() == render_svg(SubsequenceSpec(k=3, r=25))
    code, text, _ = run(capsys, "diagram", "--k", "3", "--r", "25", *frames, "--format", "json", "--out", out)
    assert code == 0 and json.loads(text)["results"]["files"] == files


def test_diagram_unwritable_path(capsys, tmp_path, monkeypatch):
    # an empty path names no file, so it must not become `-00.svg` frames
    monkeypatch.chdir(tmp_path)
    for target in (str(tmp_path / "missing-dir" / "x.svg"), ""):
        for frames in ((), ("--frames",)):
            code, out, err = run(capsys, "diagram", "--k", "3", "--r", "25", *frames, "--out", target)
            assert code == 3, (target, frames)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert out == ""
    # the empty path is refused before any frame is made: a scene that cannot
    # be built is never reached, so the command exits 3, not 4
    def no_scene(spec):
        raise RuntimeError("no frame may be made for an empty --out")

    monkeypatch.setattr("pisano_lab.render.build_scene", no_scene)
    code, out, err = run(capsys, "diagram", "--k", "3", "--r", "25", "--frames", "--out", "")
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_diagram_frames_go_through_render_frames(capsys, monkeypatch, tmp_path):
    # the draw-frames benchmark traces render.render_frames; --frames must reach it
    calls = []

    def counted(spec):
        calls.append(spec)
        return render_frames(spec)

    monkeypatch.setattr(cli, "render_frames", counted)
    code, _, _ = run(capsys, "diagram", "--k", "3", "--r", "25", "--frames", "--out", str(tmp_path / "s.svg"))
    assert code == 0
    assert calls == [SubsequenceSpec(k=3, r=25)]
    assert len(list(tmp_path.glob("s-*.svg"))) == 12


def test_diagram_frames_hold_one_frame(tmp_path):
    # each frame is written as it is made; a list of the 60 documents would
    # make the peak about 8x that of the single diagram
    def traced_peak(*frames):
        argv = ["diagram", "--k", "9", "--r", "13", *frames, "--out", str(tmp_path / "w.svg")]
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert main(argv) == 0  # warm-up
            code, peak = _traced(lambda: main(argv))
        assert code == 0
        return peak

    assert traced_peak("--frames") < 1.5 * traced_peak()
    assert sorted(p.name for p in tmp_path.glob("w-*.svg")) == [f"w-{i:02d}.svg" for i in range(60)]
    # the last frame is the whole diagram, and frame 9 the ten-edge golden
    assert (tmp_path / "w-59.svg").read_bytes() == (tmp_path / "w.svg").read_bytes()
    assert (tmp_path / "w-09.svg").read_bytes() == (GOLDEN_DIR / "first-ten-9-13.svg").read_bytes()


def test_report_unwritable_path_prints_nothing(capsys, tmp_path):
    # --out is opened before the first piece of the report is printed; an empty path names no file
    for target in (str(tmp_path / "missing-dir" / "r.json"), ""):
        code, out, err = run(capsys, "period", "8", "--format", "json", "--out", target)
        assert code == 3, target
        assert err.startswith("error: ")
        assert out == ""
