"""Oracles for pisano-lab CLI reports, written without importing pisano_lab.

Every expected value is recomputed here from the Fibonacci recurrence and
the walk on the 60-point circle, so a defect in the package cannot make its
own check pass. A checker takes the parsed JSON report of one invocation,
compares the fields under `results` (never the whole report, so added keys
are not failures), returns the number of items the invocation delivered and
raises Mismatch on the first field that disagrees.
"""

from __future__ import annotations

import math
from pathlib import Path

CIRCLE = 60
CHECK_COUNT = 32
# golden (k, r) pairs: all frames of (3, 25), and frame 9 (ten edges) of (9, 13)
GOLDEN_FRAMES = {(3, 25): "steps-3-25-{:02d}.svg"}
GOLDEN_SINGLE = {(9, 13): (9, "first-ten-9-13.svg")}


class Mismatch(Exception):
    """An output that disagrees with the oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def period_length(m: int) -> int:
    """Length of the minimal Fibonacci period mod m, by scanning for (0, 1)."""
    a, b, n = 0, 1, 0
    while True:
        a, b = b, (a + b) % m
        n += 1
        if a == 0 and b == 1:
            return n


def _residues(m: int) -> tuple[int, ...]:
    values, a, b = [], 0, 1
    for _ in range(period_length(m)):
        values.append(a)
        a, b = b, (a + b) % m
    return tuple(values)


PARENT = _residues(10)


def _walk(k: int, r: int) -> list[int]:
    points, p = [k], (k + r) % CIRCLE
    while p != k:
        points.append(p)
        p = (p + r) % CIRCLE
    return points


def _quasi(terms: list[int]) -> str:
    n = len(terms)
    forward = all(terms[(j + 1) % n] == (terms[j] + terms[j - 1]) % 10 for j in range(n))
    reverse = all(terms[j - 1] == (terms[j] + terms[(j + 1) % n]) % 10 for j in range(n))
    return {(True, True): "both", (True, False): "forward", (False, True): "reverse"}.get(
        (forward, reverse), "neither"
    )


def _prediction(r: int) -> str:
    if r % 3 != 0 and r % 4 == 1:
        return "forward"
    if r % 3 != 0 and r % 4 == 3:
        return "reverse"
    return "no_guarantee"


def _alignment(terms: list[int]) -> tuple[str, int]:
    """The one (direction, shift) reading the parent period as `terms`."""
    matches = [
        (direction, s)
        for s in range(CIRCLE)
        for direction, sign in (("forward", 1), ("reverse", -1))
        if all(terms[j] == PARENT[(s + sign * j) % CIRCLE] for j in range(CIRCLE))
    ]
    if len(matches) != 1:
        raise AssertionError(f"oracle found {len(matches)} alignments")
    return matches[0]


def classification(k: int, r: int) -> dict:
    """Expected `classify` results for (k, r), derived from the circle walk."""
    walk = _walk(k, r)
    n = len(walk)
    q = r * n // CIRCLE
    terms = [PARENT[p] for p in walk]
    if n == CIRCLE:
        kind = "Type3"
    elif q in (1, n - 1):
        kind = "Type1"
    else:
        kind = "Type2"
    certificate = None
    if n == CIRCLE:
        direction, shift = _alignment(terms)
        restart = next(j for j in range(n) if terms[j] == 0 and terms[(j + 1) % n] == 1)
        unit_digit = PARENT[r]
        certificate = {
            "unit_digit": unit_digit,
            "log_index": next(i for i in range(4) if pow(3, i, 10) == unit_digit),
            "zero_vertex": (k + r * restart) % CIRCLE,
            "restart_index": restart,
            "first_zero": terms.index(0),
            "direction": direction,
            "shift": shift,
        }
    return {
        "n": n,
        "q": q,
        "type": kind,
        "convex": q == 1,
        "terms": terms,
        "quasi": _quasi(terms),
        "prediction": _prediction(r),
        "certificate": certificate,
    }


def sweep_row(k: int, r: int, expected: dict) -> dict:
    cert = expected["certificate"]
    row = {key: expected[key] for key in ("n", "q", "type", "quasi", "prediction")}
    row.update(k=k, r=r, direction=cert and cert["direction"], shift=cert and cert["shift"])
    return row


def _svg_point(p: int) -> tuple[str, str]:
    rad = math.radians(90.0 - 6.0 * p)
    return f"{300.0 + 240.0 * math.cos(rad):.3f}", f"{300.0 - 240.0 * math.sin(rad):.3f}"


def edge_lines(k: int, r: int, count: int) -> list[bytes]:
    """The <line> elements a diagram of the first `count` walk edges draws."""
    lines = []
    for j in range(count):
        (x1, y1), (x2, y2) = _svg_point(k + r * j), _svg_point(k + r * (j + 1))
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="1"/>'.encode()
        )
    return lines


def _drawn_lines(document: bytes) -> list[bytes]:
    return [line.strip() for line in document.splitlines() if line.lstrip().startswith(b"<line ")]


class Oracle:
    """Checkers for every command, with caches shared across invocations."""

    def __init__(self, golden_dir: Path):
        self.golden_dir = golden_dir
        self._classifications: dict[tuple[int, int], dict] = {}
        self._lengths: dict[int, int] = {}
        self._full_diagrams: dict[tuple[int, int], bytes] = {}

    def expected(self, k: int, r: int) -> dict:
        if (k, r) not in self._classifications:
            self._classifications[k, r] = classification(k, r)
        return self._classifications[k, r]

    def verify(self, report: dict) -> int:
        checks = report["results"]["checks"]
        expect(len(checks) == CHECK_COUNT, f"{len(checks)} checks, expected {CHECK_COUNT}")
        failed = [c["name"] for c in checks if c["passed"] is not True]
        expect(not failed, f"checks not passed: {failed}")
        expect(report["verified"] is True, "report is not verified")
        return len(checks)

    def classify(self, report: dict, k: int, r: int) -> int:
        results = report["results"]
        for key, value in self.expected(k, r).items():
            expect(results[key] == value, f"classify k={k} r={r}: {key} is {results[key]!r}, expected {value!r}")
        return 1

    def sweep(self, report: dict) -> int:
        results = report["results"]
        rows = results["rows"]
        pairs = [(k, r) for k in range(CIRCLE) for r in range(1, CIRCLE)]
        expect(results["row_count"] == len(pairs) == len(rows), f"{len(rows)} rows, expected {len(pairs)}")
        for row, (k, r) in zip(rows, pairs):
            for key, value in sweep_row(k, r, self.expected(k, r)).items():
                expect(row[key] == value, f"sweep row k={k} r={r}: {key} is {row[key]!r}, expected {value!r}")
        return len(rows)

    def period(self, report: dict, m: int) -> int:
        results = report["results"]
        period = results["period"]
        if m not in self._lengths:
            self._lengths[m] = period_length(m)
        expect(period[:2] == [0, 1], f"period of m={m} starts with {period[:2]}")
        expect(
            all(period[i + 2] == (period[i] + period[i + 1]) % m for i in range(len(period) - 2)),
            f"period of m={m} breaks the recurrence",
        )
        expect(
            results["length"] == len(period) == self._lengths[m],
            f"m={m}: length {results['length']}, {len(period)} residues, scan says {self._lengths[m]}",
        )
        return len(period)

    def diagram(self, report: dict, k: int, r: int, out: Path) -> int:
        """A full diagram written to `out`; later frame checks compare with it."""
        results = report["results"]
        n = len(_walk(k, r))
        expect(results["files"] == [str(out)], f"diagram wrote {results['files']}, expected [{out}]")
        expect(results["edge_count"] == n, f"diagram k={k} r={r}: {results['edge_count']} edges, expected {n}")
        document = out.read_bytes()
        expect(_drawn_lines(document) == edge_lines(k, r, n), f"diagram k={k} r={r}: edges differ from the walk")
        self._full_diagrams[k, r] = document
        return 1

    def frames(self, report: dict, k: int, r: int, out: Path) -> int:
        """All construction frames of (k, r), written next to `out`."""
        results = report["results"]
        n = len(_walk(k, r))
        paths = [Path(f"{out.with_suffix('')}-{s:02d}.svg") for s in range(n)]
        expect(results["frame_count"] == n, f"frames k={k} r={r}: {results['frame_count']} frames, expected {n}")
        expect(results["files"] == [str(p) for p in paths], f"frames k={k} r={r}: unexpected file list")
        documents = [p.read_bytes() for p in paths]
        for s, document in enumerate(documents):
            expect(len(_drawn_lines(document)) == s + 1, f"frames k={k} r={r}: frame {s} draws the wrong edge count")
        expect(_drawn_lines(documents[-1]) == edge_lines(k, r, n), f"frames k={k} r={r}: last frame's edges differ")
        full = self._full_diagrams.get((k, r))
        expect(full is not None and documents[-1] == full, f"frames k={k} r={r}: last frame is not the full diagram")
        if (k, r) in GOLDEN_FRAMES:
            name = GOLDEN_FRAMES[k, r]
            for s, document in enumerate(documents):
                expect(document == (self.golden_dir / name.format(s)).read_bytes(), f"frame {s} of ({k}, {r}) != golden")
        if (k, r) in GOLDEN_SINGLE:
            s, name = GOLDEN_SINGLE[k, r]
            expect(documents[s] == (self.golden_dir / name).read_bytes(), f"frame {s} of ({k}, {r}) != golden {name}")
        return n
