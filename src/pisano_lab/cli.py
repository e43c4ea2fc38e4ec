"""Command-line surface: pisano-lab <period|classify|sweep|verify|diagram>.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 I/O failure, 4 internal error (an exception no other code covers, a
program bug, reported on one `error: internal error:` line). A process
ends through `run`: it flushes stdout and stderr after `main` returns and
then calls `os._exit`, so interpreter teardown and `atexit` handlers do
not run (the package registers none); a broken pipe or an I/O error at
that final flush exits 3, the broken pipe with nothing on stderr.

The parser holds the argument rules (`period` takes its modulus once,
positionally or via --m; `diagram` requires --out and takes --frames or
--steps, not both) and exits 2 with its usage and error lines on stderr;
a value the library refuses exits 2 with one `error:` line. Every
`error:` line goes to stderr alone: when stderr was closed at the start,
the line is dropped, never written to stdout, and the exit code stays.
Every command prints plain text by default and the same content as JSON
with --format json; --out writes the JSON report to a file (for diagram,
--out is the SVG target instead). A JSON report is
`json.dumps(report, indent=2)` byte for byte, and --out writes those
bytes plus a newline: the stdlib encodes the report, and a list too long
to hold (the residues, the rows of `sweep`) writes its own items into the
stdlib's text. A value JSON cannot encode, a program bug, exits 4 before
any of the JSON report is written. The text of `period` and `classify` is
rendered from the report's fields, one `key: value` line each. Either
output is written piece by piece, and the residues of `period` in either
one are formatted by the same block formatter. --out is opened before
anything is printed, so an unwritable path exits 3 with nothing on stdout.

`period` reports `{"length": L, "period": [F(0) mod m, ..., F(L-1) mod m]}`
as its results (text: `modulus:`, `length:` and `period:` lines). It takes
L from Wall's theorem (core.pisano_length) before it scans, and streams the
residues from the scan into the report, so no list or tuple as long as the
period is held. Above core.MAX_LISTED_MODULUS (10**6) the results hold the
length alone, `{"length": L}` (text: `modulus:` and `length:` lines); a
modulus above core.MAX_MODULUS (10**12) exits 2. pisano_length checks that
Wall's bound is a period of m before it reduces it to L, so a bound that
is not exits 4 with nothing on stdout.

`sweep` reports `{"row_count": 3540, "rows": [...]}`, one row per (k, r),
k-major (text: one `k=... r=...` line per row). Like the residues of
`period`, the rows are made as they are written, so no list of them is
held: JSON mode classifies each (k, r) once, and text mode with --out
classifies it twice, once for each output. The polygon and the prediction
do not read k, so they are made once per jump; each row is then a tuple
whose strings are already spelled for its output (JSON-escaped, or as
text), written by one `%` of a fixed template: the JSON object at its
indent, or the text line.

`diagram` reports the SVG files it wrote (text: one `wrote PATH` line
each), each path opened and reported as --out spells it; an empty --out
exits 3 in either mode. With --frames it writes each construction frame as
it is made, so, like the residues and the rows above, no list of them is held.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext, suppress
from itertools import islice
from json.encoder import encode_basestring_ascii

# imported eagerly: perfbench/tracing.py expects _checks loaded once cli is imported
from . import _checks
from .complete import ShiftDirection, compute_shift
from .core import MAX_LISTED_MODULUS, _period_residues, pisano_length
from .quasi import QuasiClass, QuasiPrediction, predict_quasi, verify_quasi
from .render import render_frames, render_svg
from .subseq import CIRCLE_POINTS, DiagramType, SubsequenceSpec, star_polygon, subsequence_period

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_BAD_ARGUMENTS = 2
EXIT_IO_FAILURE = 3
EXIT_INTERNAL_ERROR = 4


# text spells a scalar as str() does, except a bool (as JSON does) and None
_TEXT_SCALARS: dict[type, Callable[[object], str]] = {
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "none"}.__getitem__,
}

# ints per `%` format of an int list: the template and the tuple for one
# block stay near 40 KB and 32 KB, whatever the length of the list
_INT_BLOCK = 4096


class _Lazy:
    """A list in a report whose items are made afresh by each iteration: the
    residues of a period or the rows of a sweep. So a report walked twice
    (the text view, then the JSON report for --out) makes its items twice
    and holds no list of them. `pieces(items, lead)` writes items of the
    list as JSON, each after `lead`: _int_blocks for the residues, and
    _json_rows for the rows."""

    def __init__(self, items: Callable[[], Iterator], pieces: Callable[[Iterable, str], Iterator[str]]) -> None:
        self.items, self.pieces = items, pieces

    def __iter__(self) -> Iterator:
        return self.items()


def _int_blocks(ints: Iterable[int], lead: str) -> Iterator[str]:
    """Each int as `%d` after `lead` (which holds no `%`), one C-level `%` per
    block of _INT_BLOCK ints, so no string is built per item and no piece
    grows with the list."""
    ints = iter(ints)
    while block := tuple(islice(ints, _INT_BLOCK)):
        yield ((lead + "%d") * len(block)) % block


def _json_pieces(report: dict) -> Iterator[str]:
    """The text of `json.dumps(report, indent=2)` in pieces, a _Lazy encoded
    as the list of its items. A value JSON cannot encode raises TypeError
    before the first piece.

    The stdlib encodes the report with the _Lazy held as `[]`, and the list's
    own pieces are spliced in there. The splice holds because a _Lazy is only
    ever the last value of `results` (the residues of `period`, the rows of
    `sweep`), so its `[]` is the last in the text and its items sit at the
    indent of a `results` value, and because it is never empty: a period has
    at least 3 residues and a sweep 3,540 rows.
    """
    held = []

    def hold(value: object) -> list:
        if type(value) is not _Lazy:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        held.append(value)
        return []

    text = json.dumps(report, indent=2, default=hold)
    if not held:
        yield text
        return
    head, _, tail = text.rpartition("[]")
    lazy = held[-1]
    items = iter(lazy)
    yield head + "["
    # only the first item comes after no comma
    yield from lazy.pieces(islice(items, 1), "\n      ")
    yield from lazy.pieces(items, ",\n      ")
    yield "\n    ]" + tail


def _text_lines(fields: dict, indent: str = "") -> Iterator[str]:
    """The text view of report fields: one newline-terminated `key: value`
    line per field, in order, in pieces. A dict becomes `key:` and an
    indented block, an int list or a _Lazy of ints is space-separated through
    _int_blocks, a bool reads true or false and None reads none.
    """
    for key, value in fields.items():
        kind = type(value)
        if kind is dict:
            yield f"{indent}{key}:\n"
            yield from _text_lines(value, indent + "  ")
        elif kind is list or kind is _Lazy:
            yield f"{indent}{key}:"
            yield from _int_blocks(value, " ")
            yield "\n"
        else:
            yield f"{indent}{key}: {_TEXT_SCALARS.get(kind, str)(value)}\n"


def _emit(report: dict, text: Callable[[], Iterable[str]], fmt: str, out_path: str | None) -> None:
    """Print the report as JSON, or the newline-terminated pieces of text(),
    which is called only in text mode; write the JSON report to out_path too.

    out_path is opened before anything is printed, so a path that cannot be
    written fails with no output. Neither output is joined into one string:
    text pieces go to stdout as they are made, and the JSON report is encoded
    once, piece by piece, each piece going to stdout (in JSON mode) and to
    out_path, both ending with a newline, so they get the same bytes. Two
    program bugs make `main` exit 4: a TypeError for a value JSON cannot
    encode surfaces before any JSON piece is written (in text mode, after
    the text), and a RuntimeError for a period scan that does not close,
    after the pieces before it.
    """
    with open(out_path, "w", encoding="utf-8") if out_path is not None else nullcontext() as out:
        sinks = [out.write] if out else []
        if fmt == "json":
            sinks.append(sys.stdout.write)
        else:
            sys.stdout.writelines(text())
        if sinks:
            for piece in _json_pieces(report):
                for write in sinks:
                    write(piece)
            for write in sinks:
                write("\n")


def cmd_period(args: argparse.Namespace) -> int:
    # the parser has taken exactly one of the two forms
    m = args.m_option if args.m is None else args.m
    # the length comes first, from Wall's bound checked at m before anything
    # is written, so the residues need not be stored: the report scans them
    # afresh each time it is written
    length = pisano_length(m)
    results: dict = {"length": length}
    if m <= MAX_LISTED_MODULUS:
        results["period"] = _Lazy(lambda: _period_residues(m, length), _int_blocks)
    report = {"command": "period", "inputs": {"m": m}, "results": results}
    _emit(report, lambda: _text_lines({"modulus": m, **results}), args.format, args.out)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    spec = SubsequenceSpec(k=args.k, r=args.r)
    poly = star_polygon(spec)
    # only a jump coprime to 60 (a diagram that visits all 60 points) has a shift
    cert = compute_shift(spec) if poly.n == CIRCLE_POINTS else None
    inputs = {"k": spec.k, "r": spec.r}
    results = {
        "n": poly.n,
        "q": poly.q,
        "type": poly.diagram_type.value,
        "convex": poly.convex,
        "terms": list(subsequence_period(spec)),
        "quasi": verify_quasi(spec).value,
        "prediction": predict_quasi(spec).value,
        # every field in declaration order, the direction by its value
        "certificate": {**vars(cert), "direction": cert.direction.value} if cert else None,
    }
    report = {"command": "classify", "inputs": inputs, "results": results}
    _emit(report, lambda: _text_lines({**inputs, **results}), args.format, args.out)
    return EXIT_OK


# the fields of a sweep row, in report order
_SWEEP_KEYS = ("k", "r", "n", "q", "type", "quasi", "prediction", "direction", "shift")

# the text line of a sweep row, whose shift reads `direction:shift`, or `-`
# for a jump not coprime to 60
_SWEEP_LINE = "k=%d r=%d n=%d q=%d type=%s quasi=%s prediction=%s shift=%s\n"


def _sweep_rows(
    spell: Callable[[str], str], shift: Callable[[str, int], tuple], no_shift: tuple
) -> Iterator[tuple]:
    """One row per (k, r), k-major, classified as it is made: the tuple of
    k, r, n, q, type, quasi and prediction, then `shift(direction, shift)`
    from the certificate of a jump coprime to 60, or `no_shift` for any other
    jump. Each str is spelled by `spell`, once per distinct value.

    Neither the polygon nor the prediction reads k, so both are made once per
    jump, before the k loop; the recurrence class and the certificate are
    made per row.
    """
    spelled = {
        member: spell(member.value)
        for kind in (DiagramType, QuasiClass, QuasiPrediction, ShiftDirection)
        for member in kind
    }
    jumps = []
    for r in range(1, CIRCLE_POINTS):
        spec = SubsequenceSpec(k=0, r=r)
        poly = star_polygon(spec)
        prediction = spelled[predict_quasi(spec)]
        jumps.append((r, poly.n, poly.q, spelled[poly.diagram_type], prediction, poly.n == CIRCLE_POINTS))
    for k in range(CIRCLE_POINTS):
        for r, n, q, diagram_type, prediction, unit in jumps:
            spec = SubsequenceSpec(k=k, r=r)
            if unit:
                cert = compute_shift(spec)
                tail = shift(spelled[cert.direction], cert.shift)
            else:
                tail = no_shift
            yield (k, r, n, q, diagram_type, spelled[verify_quasi(spec)], prediction, *tail)


def _json_rows(rows: Iterable[tuple], lead: str) -> Iterator[str]:
    """Each sweep row, whose str and None fields are spelled as JSON already,
    as a JSON object after `lead`, by one `%` of a template that holds the
    keys at the indent `lead` sets."""
    newline = lead.lstrip(",")
    fields = ",".join(f"{newline}  {encode_basestring_ascii(key)}: %s" for key in _SWEEP_KEYS)
    return map(f"{lead}{{{fields}{newline}}}".__mod__, rows)


def cmd_sweep(args: argparse.Namespace) -> int:
    # the rows are classified as they are written, once per output, so no
    # list of them is held
    rows = _Lazy(lambda: _sweep_rows(encode_basestring_ascii, lambda *tail: tail, ("null", "null")), _json_rows)
    results = {"row_count": CIRCLE_POINTS * (CIRCLE_POINTS - 1), "rows": rows}
    report = {"command": "sweep", "inputs": {}, "results": results}

    def text() -> Iterator[str]:
        lines = _sweep_rows(str, lambda direction, shift: (f"{direction}:{shift}",), ("-",))
        return map(_SWEEP_LINE.__mod__, lines)

    _emit(report, text, args.format, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = _checks.run_all()
    verified = all(result.passed for result in results)
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    report = {"command": "verify", "inputs": {}, "results": {"checks": checks}, "verified": verified}

    def text() -> Iterator[str]:
        for r in results:
            yield f"PASS {r.name} ({r.detail})\n" if r.passed else f"FAIL {r.name}: {r.detail}\n"
        yield from _text_lines({"verified": verified})

    _emit(report, text, args.format, args.out)
    return EXIT_OK if verified else EXIT_VERIFICATION_FAILED


def cmd_diagram(args: argparse.Namespace) -> int:
    """Write the diagram to --out, or with --frames frame s of the walk to
    `<base>-<s:02d>.svg`, base being --out less a `.svg` suffix: each path as
    named. An empty --out is refused before any frame is made, a refused
    --steps writes no file, and each frame is dropped once it is written."""
    spec = SubsequenceSpec(k=args.k, r=args.r)
    if not args.out:
        raise FileNotFoundError("an empty --out path names no file")
    results: dict
    if args.frames:
        base = args.out[:-4] if os.path.splitext(args.out)[1] == ".svg" else args.out
        files = []
        for index, document in enumerate(render_frames(spec)):
            files.append(f"{base}-{index:02d}.svg")
            with open(files[-1], "wb") as out:
                out.write(document)
            del document  # before the next frame is made: one document is alive at a time
        results = {"files": files, "frame_count": len(files)}
    else:
        document = render_svg(spec, step_limit=args.steps)
        with open(args.out, "wb") as out:
            out.write(document)
        files = [args.out]
        # render_svg has refused any step count outside [1, n]
        results = {"files": files, "edge_count": star_polygon(spec).n if args.steps is None else args.steps}
    report = {
        "command": "diagram",
        "inputs": {"k": spec.k, "r": spec.r, "steps": args.steps, "frames": args.frames},
        "results": results,
    }
    # --out named the SVG target above, so no report file is written here
    _emit(report, lambda: (f"wrote {path}\n" for path in files), args.format, None)
    return EXIT_OK


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_format(parser)
    parser.add_argument("--out", metavar="PATH", default=None, help="also write the JSON report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisano-lab",
        description="Fibonacci sequences modulo m: periods, subsequence diagrams, SVG output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    period = sub.add_parser("period", help="Pisano period of the Fibonacci sequence mod m")
    modulus = period.add_mutually_exclusive_group(required=True)
    modulus.add_argument("m", nargs="?", type=int, help="modulus, at least 2")
    modulus.add_argument("--m", dest="m_option", metavar="M", type=int, help="modulus, at least 2")
    _add_common(period)
    period.set_defaults(handler=cmd_period)

    classify = sub.add_parser("classify", help="classify the (k, r) subsequence diagram")
    classify.add_argument("--k", type=int, required=True, help="start index in [0, 59]")
    classify.add_argument("--r", type=int, required=True, help="jump size in [1, 59]")
    _add_common(classify)
    classify.set_defaults(handler=cmd_classify)

    sweep = sub.add_parser("sweep", help="classify all 60 x 59 subsequences")
    _add_common(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    verify = sub.add_parser("verify", help="run every verification sweep")
    _add_common(verify)
    verify.set_defaults(handler=cmd_verify)

    diagram = sub.add_parser("diagram", help="write SVG diagrams")
    diagram.add_argument("--k", type=int, required=True, help="start index in [0, 59]")
    diagram.add_argument("--r", type=int, required=True, help="jump size in [1, 59]")
    walk = diagram.add_mutually_exclusive_group()
    walk.add_argument("--steps", type=int, help="render only the first edges")
    walk.add_argument("--frames", action="store_true", help="write one SVG per construction step")
    diagram.add_argument(
        "--out", metavar="PATH", required=True, help="the SVG file to write; with --frames, the base of the frame files"
    )
    _add_format(diagram)
    diagram.set_defaults(handler=cmd_diagram)
    return parser


def _print_error(message: object) -> None:
    # print(file=None) would write to stdout, so a stderr closed at the start
    # drops the line, as a stderr that cannot be written does
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.write(f"error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        _print_error(exc)
        return EXIT_BAD_ARGUMENTS
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); suppress the shutdown noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO_FAILURE
    except OSError as exc:
        _print_error(exc)
        return EXIT_IO_FAILURE
    except Exception as exc:
        # a program bug, not bad input: one line, and a code of its own
        _print_error(f"internal error: {exc!r}")
        return EXIT_INTERNAL_ERROR


def run() -> None:
    """The process entry: exit with the code of `main`, once stdout and
    stderr are flushed, by `os._exit`, which skips the interpreter's module
    teardown and exit-time collections, as no output depends on them.

    The flush keeps `main`'s I/O rules: a broken pipe exits 3 with nothing
    on stderr, any other OSError exits 3 with one `error:` line, and a
    stream that is None (closed before the start) is skipped."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue
        try:
            stream.flush()
        except BrokenPipeError:
            code = EXIT_IO_FAILURE
        except OSError as exc:
            code = EXIT_IO_FAILURE
            if stream is sys.stdout:
                # stderr is flushed next, in this loop; if it fails too, the
                # line is lost, but the process still ends here
                _print_error(exc)
    os._exit(code)


if __name__ == "__main__":
    run()
