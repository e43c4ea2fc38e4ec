"""Command-line surface: pisano-lab <period|classify|sweep|verify|diagram>.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 I/O failure. Every command prints plain text by default and the same
content as JSON with --format json; --out writes the JSON report to a
file (for diagram, --out is the SVG target instead). A JSON report is
`json.dumps(report, indent=2)` byte for byte, and --out writes those
bytes plus a newline. The report is encoded once and written piece by
piece, to stdout and --out alike; --out is opened before anything is
printed, so an unwritable path exits 3 with nothing on stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator

# imported eagerly: perfbench/tracing.py expects _checks loaded once cli is imported
from . import _checks
from .complete import ShiftCertificate, compute_shift
from .core import pisano_period
from .quasi import predict_quasi, verify_quasi
from .render import build_scene, render_frames, render_svg
from .subseq import CIRCLE_POINTS, SubsequenceSpec, star_polygon, subsequence_period

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_BAD_ARGUMENTS = 2
EXIT_IO_FAILURE = 3


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


# Each scalar a report holds, mapped to a C-level function that encodes it as
# json.dumps does; containers are walked by _chunks, anything else is refused.
_SCALAR_ENCODERS: dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}

# ints per `%` format of an all-int list: the template and the tuple for one
# block stay near 40 KB and 32 KB, whatever the length of the list
_INT_BLOCK = 4096


def _chunks(value: object, newline: str = "\n") -> Iterator[str]:
    """The text of `json.dumps(value, indent=2)`, in pieces, for dicts with
    str keys, lists, str, int, bool and None; any other type raises TypeError
    when the walk reaches it.

    The stdlib takes its pure-Python encoder whenever `indent` is set, with
    one generator call per value. Here only containers recurse: the scalars
    of a container are encoded in its loop and joined into one piece until a
    nested container starts, and an all-int list is formatted by one C-level
    `%` per block of _INT_BLOCK ints, so no string is built per item and no
    piece grows with the length of a list.
    """
    encode = _SCALAR_ENCODERS.get(type(value))
    if encode is not None:
        yield encode(value)
        return
    kind = type(value)
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        yield "{}" if kind is dict else "[]"
        return
    inner = newline + "  "
    # an exact type test: %d would print True as 1 and 1.5 as 1
    if kind is list and set(map(type, value)) == {int}:
        ints = iter(value)
        yield "[" + inner + "%d" % next(ints)
        later_int = "," + inner + "%d"
        while block := tuple(islice(ints, _INT_BLOCK)):
            yield (later_int * len(block)) % block
        yield newline + "]"
        return
    if kind is dict:
        # encode_basestring_ascii raises TypeError on a key that is not a str
        keys = map("%s: ".__mod__, map(encode_basestring_ascii, value))
        items, brackets = value.values(), "{}"
    else:
        keys, items, brackets = repeat(""), value, "[]"
    parts = [brackets[0]]
    lead = inner
    for key, item in zip(keys, items):
        parts += lead, key
        lead = "," + inner
        scalar = _SCALAR_ENCODERS.get(type(item))
        if scalar is not None:
            parts.append(scalar(item))
        else:
            yield "".join(parts)
            parts = []
            yield from _chunks(item, inner)
    parts.append(newline + brackets[1])
    yield "".join(parts)


def _dumps(value: object) -> str:
    """The bytes of `json.dumps(value, indent=2)`, as one string; see _chunks."""
    return "".join(_chunks(value))


def _emit(
    report: dict,
    text_lines: Callable[[], Iterable[str]],
    args: argparse.Namespace,
    *,
    report_out: bool = True,
) -> None:
    """Print the report as JSON or as the text lines, built only in text mode.

    --out is opened before anything is printed, so a path that cannot be
    written fails with no output. The JSON report is then encoded once, piece
    by piece: each piece goes to stdout (in JSON mode) and to --out, and both
    end with a newline, so they get the same bytes and no string holds the
    whole report. A TypeError for a value no report should hold, a program
    bug, surfaces after the pieces before it are written.
    """
    # for diagram, --out names the SVG target, not a report file
    with open(args.out, "w", encoding="utf-8") if report_out and args.out else nullcontext() as out:
        sinks = [out.write] if out else []
        if args.format == "json":
            sinks.append(sys.stdout.write)
        else:
            print("\n".join(text_lines()))
        if sinks:
            for piece in _chunks(report):
                for write in sinks:
                    write(piece)
            for write in sinks:
                write("\n")


def cmd_period(args: argparse.Namespace) -> int:
    if args.m is not None and args.m_option is not None:
        print("error: give the modulus once, either positionally or via --m", file=sys.stderr)
        return EXIT_BAD_ARGUMENTS
    m = args.m if args.m is not None else args.m_option
    if m is None:
        print("error: a modulus is required", file=sys.stderr)
        return EXIT_BAD_ARGUMENTS
    # only the list the report encodes outlives the scan, not the tuple beside it
    period = list(pisano_period(m).period)
    report = {
        "command": "period",
        "inputs": {"m": m},
        "results": {"length": len(period), "period": period},
    }

    def text() -> list[str]:
        return [f"modulus: {m}", f"length: {len(period)}", ("period:" + " %d" * len(period)) % tuple(period)]

    _emit(report, text, args)
    return EXIT_OK


def _certificate_dict(cert: ShiftCertificate) -> dict:
    return {
        "unit_digit": cert.unit_digit,
        "log_index": cert.log_index,
        "zero_vertex": cert.zero_vertex,
        "restart_index": cert.restart_index,
        "first_zero": cert.first_zero,
        "direction": cert.direction.value,
        "shift": cert.shift,
    }


def cmd_classify(args: argparse.Namespace) -> int:
    spec = SubsequenceSpec(k=args.k, r=args.r)
    poly = star_polygon(spec)
    period = subsequence_period(spec)
    observed = verify_quasi(period)
    predicted = predict_quasi(spec.r)
    cert = compute_shift(spec.k, spec.r) if math.gcd(spec.r, CIRCLE_POINTS) == 1 else None
    report = {
        "command": "classify",
        "inputs": {"k": spec.k, "r": spec.r},
        "results": {
            "n": poly.n,
            "q": poly.q,
            "type": poly.diagram_type.value,
            "convex": poly.convex,
            "terms": list(period.terms),
            "quasi": observed.value,
            "prediction": predicted.value,
            "certificate": _certificate_dict(cert) if cert else None,
        },
    }

    def text() -> list[str]:
        lines = [
            f"k: {spec.k}",
            f"r: {spec.r}",
            f"n: {poly.n}",
            f"q: {poly.q}",
            f"type: {poly.diagram_type.value}",
            f"convex: {_bool_text(poly.convex)}",
            "terms: " + " ".join(str(v) for v in period.terms),
            f"quasi: {observed.value}",
            f"prediction: {predicted.value}",
        ]
        if cert:
            lines.append("certificate:")
            lines.extend(f"  {key}: {value}" for key, value in _certificate_dict(cert).items())
        else:
            lines.append("certificate: none")
        return lines

    _emit(report, text, args)
    return EXIT_OK


def _sweep_line(row: dict) -> str:
    shift_text = "-" if row["direction"] is None else f"{row['direction']}:{row['shift']}"
    return (
        f"k={row['k']} r={row['r']} n={row['n']} q={row['q']} type={row['type']} "
        f"quasi={row['quasi']} prediction={row['prediction']} shift={shift_text}"
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    for k in range(CIRCLE_POINTS):
        for r in range(1, CIRCLE_POINTS):
            spec = SubsequenceSpec(k=k, r=r)
            poly = star_polygon(spec)
            observed = verify_quasi(subsequence_period(spec))
            predicted = predict_quasi(r)
            if math.gcd(r, CIRCLE_POINTS) == 1:
                cert = compute_shift(k, r)
                direction, shift = cert.direction.value, cert.shift
            else:
                direction, shift = None, None
            rows.append(
                {
                    "k": k,
                    "r": r,
                    "n": poly.n,
                    "q": poly.q,
                    "type": poly.diagram_type.value,
                    "quasi": observed.value,
                    "prediction": predicted.value,
                    "direction": direction,
                    "shift": shift,
                }
            )
    report = {
        "command": "sweep",
        "inputs": {},
        "results": {"row_count": len(rows), "rows": rows},
    }
    _emit(report, lambda: map(_sweep_line, rows), args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = _checks.run_all()
    verified = all(result.passed for result in results)
    report = {
        "command": "verify",
        "inputs": {},
        "results": {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        },
        "verified": verified,
    }

    def text() -> list[str]:
        lines = [
            f"PASS {result.name} ({result.detail})" if result.passed else f"FAIL {result.name}: {result.detail}"
            for result in results
        ]
        lines.append(f"verified: {_bool_text(verified)}")
        return lines

    _emit(report, text, args)
    return EXIT_OK if verified else EXIT_VERIFICATION_FAILED


def cmd_diagram(args: argparse.Namespace) -> int:
    if args.frames and args.steps is not None:
        print("error: --frames and --steps cannot be combined", file=sys.stderr)
        return EXIT_BAD_ARGUMENTS
    spec = SubsequenceSpec(k=args.k, r=args.r)
    out = Path(args.out)
    results: dict
    if args.frames:
        frames = render_frames(spec)
        base = out.with_suffix("") if out.suffix == ".svg" else out
        files = []
        for index, document in enumerate(frames):
            path = Path(f"{base}-{index:02d}.svg")
            path.write_bytes(document)
            files.append(str(path))
        results = {"files": files, "frame_count": len(files)}
    else:
        scene = build_scene(spec, step_limit=args.steps)
        out.write_bytes(render_svg(scene))
        files = [str(out)]
        results = {"files": files, "edge_count": len(scene.edges)}
    report = {
        "command": "diagram",
        "inputs": {"k": spec.k, "r": spec.r, "steps": args.steps, "frames": args.frames},
        "results": results,
    }
    _emit(report, lambda: (f"wrote {path}" for path in files), args, report_out=False)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="PATH", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisano-lab",
        description="Fibonacci sequences modulo m: periods, subsequence diagrams, SVG output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    period = sub.add_parser("period", help="Pisano period of the Fibonacci sequence mod m")
    period.add_argument("m", nargs="?", type=int, default=None, help="modulus, at least 2")
    period.add_argument("--m", dest="m_option", type=int, default=None, help="modulus, at least 2")
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
    diagram.add_argument("--steps", type=int, default=None, help="render only the first edges")
    diagram.add_argument("--frames", action="store_true", help="write one SVG per construction step")
    _add_common(diagram)
    diagram.set_defaults(handler=cmd_diagram)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    if args.command == "diagram" and args.out is None:
        print("error: diagram requires --out PATH", file=sys.stderr)
        return EXIT_BAD_ARGUMENTS
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGUMENTS
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); suppress the shutdown noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE


if __name__ == "__main__":
    sys.exit(main())
