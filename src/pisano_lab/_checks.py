"""Exhaustive verification sweeps behind the `verify` CLI command.

Each check covers one published property of the mod-10 subsequence
structure at its full (desk-scale) range and reports the first
counterexample it finds; a bug in the code under test makes a check
fail, never raise. These sweeps are the only copy of the exhaustive
property checks: the test suite reads their results from one `verify`
run and shows, with one seeded bug per check, that each check can fail.

A check is declared once, by decorating it with `_check(name, covered)`:
the function returns its first counterexample as a string, or None when
the property holds, and the decorator turns that into a `CheckResult`
and appends the check to `ALL_CHECKS`, the order in which `run_all` and
the `verify` report list them.

Within one check the heavy sweeps do not repeat work: the `fib_mod`
identity checks read each distinct argument from `fib_mod` once, and the
grid checks build each period or scene once per (k, r), each as one
C-level slice. Across checks one thing is shared: `fib-recurrence` and
`negative-index-reflection` read the same table of F(n) mod m, m in
[2, 30] and n in [-200, 200], built by `_fib_table` from the `fib_mod`
bound in this module at that moment. The table is keyed on that function
object, so a seeded bug patched in for one test, a new object, never
reads a table built from another. `fib-recurrence` builds it and
`negative-index-reflection`, the check after it, reads it; `run_all`
drops it when the run ends, and a check called on its own builds one
unless the last table built came from the same function. Nothing else
is shared, as the rest is cheap to rebuild: one `verify` run makes 17,224
`fib_mod` calls and 13,501 specs, all built positionally, and builds
8,760 subsequence periods for 3,540 distinct specs; four checks (one of
them through the shift oracle) each rebuild the 960 unit-jump periods.
`tests/test_checks.py` pins the calls each check makes into the
functions it tests, so a check made cheaper still tests every case.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator

from .complete import OracleFailureError, brute_force_shift, compute_shift, first_zero_index, unit_group
from .core import antipodal_sum, fib_mod, lucas_mod, pisano_period
from .quasi import QuasiClass, verify_quasi
from .render import build_scene, render_frames, render_svg
from .subseq import (
    CIRCLE_POINTS,
    DiagramType,
    SubsequenceSpec,
    _Record,
    dodecagon_tuple,
    is_cyclic_shift,
    pentagon_tuple,
    square_tuple,
    star_polygon,
    subsequence_period,
)


class CheckResult(_Record):
    """One check's verdict: its name, whether it passed, and its coverage or first counterexample."""

    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.__dict__.update(name=name, passed=passed, detail=detail)


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = ()


def _check(name: str, covered: str) -> Callable[[Callable[[], str | None]], Callable[[], CheckResult]]:
    """Register a check that returns its first counterexample, or None when it passes.

    The registered check reports `CheckResult(name, False, counterexample)`
    on failure and `CheckResult(name, True, covered)` on success, and is
    appended to `ALL_CHECKS`, so the battery runs in definition order.
    """

    def register(sweep: Callable[[], str | None]) -> Callable[[], CheckResult]:
        @functools.wraps(sweep)
        def check() -> CheckResult:
            counterexample = sweep()
            if counterexample is None:
                return CheckResult(name, True, covered)
            return CheckResult(name, False, counterexample)

        global ALL_CHECKS
        ALL_CHECKS += (check,)
        return check

    return register


def _unit_cases() -> Iterator[SubsequenceSpec]:
    """The spec of every (k, r) with r coprime to 60, k-major."""
    return itertools.starmap(SubsequenceSpec, itertools.product(range(60), unit_group(60)))


# ---------------------------------------------------------------------------
# core arithmetic


_TABLE_MODULI = range(2, 31)


@functools.lru_cache(maxsize=1)
def _fib_table(fib: Callable[[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """fib(n, m) for every m in _TABLE_MODULI, one row each, and n in [-200, 200],
    F(n) at position n + 200 of its row (see the module docstring)."""
    return tuple(tuple(fib(n, m) for n in range(-200, 201)) for m in _TABLE_MODULI)


@_check("fib-recurrence", "all n in [-200, 200], m in [2, 30]")
def check_fib_recurrence() -> str | None:
    for m, fib in zip(_TABLE_MODULI, _fib_table(fib_mod)):
        for n, (f0, f1, f2) in enumerate(zip(fib, fib[1:], fib[2:]), -200):
            if f2 != (f1 + f0) % m:
                return f"recurrence breaks at n={n}, m={m}"


@_check("negative-index-reflection", "all n in [0, 200], m in [2, 30]")
def check_negative_reflection() -> str | None:
    for m, fib in zip(_TABLE_MODULI, _fib_table(fib_mod)):
        # F(-n) and F(n) for n = 0, 1, ..., 200
        for n, (negative, positive) in enumerate(zip(fib[200::-1], fib[200:])):
            sign = 1 if n % 2 == 1 else -1
            if negative != (sign * positive) % m:
                return f"reflection breaks at n={n}, m={m}"


def _zero_law(m: int, step: int, law: str) -> str | None:
    """m divides F(n) exactly when step divides n, for n in [0, 1000]."""
    for n in range(0, 1001):
        if (fib_mod(n, m) == 0) != (n % step == 0):
            return f"{law} breaks at n={n}"


@_check("even-terms-at-multiples-of-3", "all n in [0, 1000]")
def check_parity_law() -> str | None:
    return _zero_law(2, 3, "parity law")


@_check("fives-at-multiples-of-5", "all n in [0, 1000]")
def check_five_law() -> str | None:
    return _zero_law(5, 5, "divisibility by 5")


@_check("index-addition-identity", "all a, b in [-60, 60]")
def check_index_addition() -> str | None:
    fib = {n: fib_mod(n, 10) for n in range(-120, 121)}
    for a in range(-60, 61):
        before, at = fib[a - 1], fib[a]
        for b in range(-60, 61):
            if fib[a + b] != (before * fib[b] + at * fib[b + 1]) % 10:
                return f"addition identity breaks at a={a}, b={b}"


@_check("fifteen-step-multiplier", "all n in [0, 60], j in [0, 8]")
def check_fifteen_step_multiplier() -> str | None:
    fib = [fib_mod(n, 10) for n in range(0, 181)]
    for n in range(0, 61):
        for j in range(0, 9):
            if fib[n + 15 * j] != (pow(7, j, 10) * fib[n]) % 10:
                return f"15-step multiplier breaks at n={n}, j={j}"


@_check("antipodal-sums", "all n in [0, 59]")
def check_antipodal_sums() -> str | None:
    for n in range(0, 60):
        total = antipodal_sum(n)
        expected = 0 if n % 15 == 0 else 10
        if total != expected:
            return f"antipodal sum at n={n} is {total}, expected {expected}"


@_check("period-contents", "all m in [2, 50]")
def check_period_contents() -> str | None:
    for m in range(2, 51):
        for j, value in enumerate(pisano_period(m)):
            if value != fib_mod(j, m):
                return f"period of m={m} disagrees with fib_mod at j={j}"


# ---------------------------------------------------------------------------
# subsequence diagrams


def _circle_walk(r: int) -> tuple[int, int]:
    """Walk the 60-point circle in steps of r; return (vertices, step q)."""
    visited = {0}
    p = r % CIRCLE_POINTS
    while p != 0:
        visited.add(p)
        p = (p + r) % CIRCLE_POINTS
    points = sorted(visited)
    n = len(points)
    spacings = {(points[(i + 1) % n] - points[i]) % CIRCLE_POINTS for i in range(n)}
    if len(spacings) != 1:
        raise AssertionError(f"walk for r={r} is not equally spaced")
    return n, r // spacings.pop()


@_check("polygon-parameters-vs-walk", "all r in [1, 59]")
def check_polygon_parameters() -> str | None:
    for r in range(1, 60):
        poly = star_polygon(SubsequenceSpec(0, r))
        n, q = _circle_walk(r)
        if (poly.n, poly.q) != (n, q):
            return f"r={r}: formula gives ({poly.n}, {poly.q}), walk gives ({n}, {q})"
        if math.gcd(poly.n, poly.q) != 1:
            return f"r={r}: n and q share a factor"
        if n == CIRCLE_POINTS:
            expected_type = DiagramType.TYPE3
        elif q in (1, n - 1):
            expected_type = DiagramType.TYPE1
        else:
            expected_type = DiagramType.TYPE2
        if poly.diagram_type != expected_type:
            return f"r={r}: type {poly.diagram_type.value}, walk says {expected_type.value}"
        if poly.convex != (q == 1):
            return f"r={r}: convex flag disagrees with q"


@_check("reversed-jump-periods", "all 3540 (k, r) pairs")
def check_reversed_jumps() -> str | None:
    for k in range(60):
        periods = {r: subsequence_period(SubsequenceSpec(k, r)) for r in range(1, 60)}
        for r in range(1, 60):
            forward = periods[r]
            # term j of the reversed jump is term -j (mod n) of the forward one
            if periods[60 - r] != forward[:1] + forward[:0:-1]:
                return f"(k={k}, r={r}): reversed jump is not the reversed period"


@_check("twenty-vertex-steps", "r in {9, 21, 27} give n=20 with q=3, 7, 9")
def check_twenty_vertex_steps() -> str | None:
    expected = {9: 3, 21: 7, 27: 9}
    for r, q in expected.items():
        poly = star_polygon(SubsequenceSpec(0, r))
        if (poly.n, poly.q) != (20, q):
            return f"r={r}: got ({poly.n}, {poly.q}), expected (20, {q})"


def _is_rotation(values: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """is_cyclic_shift(values, pattern), where values that it refuses, such as
    a term that is no int, are no rotation: a bug under test fails the check."""
    try:
        return is_cyclic_shift(values, pattern)
    except ValueError:
        return False


_SQUARE_CLASSES = {1: (1, 7, 9, 3), 3: (2, 4, 8, 6), 5: (5, 5, 5, 5), 15: (0, 0, 0, 0)}
_SQUARE_POWER_BASES = {1: 7, 3: 2, 5: 5}


@_check("square-tuples", "all k in [0, 59]")
def check_square_tuples() -> str | None:
    for k in range(60):
        values = square_tuple(k)
        g = math.gcd(k, 15)
        if not _is_rotation(values, _SQUARE_CLASSES[g]):
            return f"k={k}: {values} is not a rotation of the gcd={g} class"
        expected_sum = 0 if g == 15 else 20
        if sum(values) != expected_sum:
            return f"k={k}: sum {sum(values)}, expected {expected_sum}"
        if g == 15:
            if any(values):
                return f"k={k}: expected all zeros"
        else:
            # start ranges over a full cycle of the power sequence's periodic
            # tail; bases 2 and 5 are not purely periodic, so 0 alone is not
            # always a valid starting exponent
            base = _SQUARE_POWER_BASES[g]
            if not any(
                all(values[i] == pow(base, start + i, 10) for i in range(4)) for start in range(5)
            ):
                return f"k={k}: {values} does not match powers of {base}"


_PENTAGON_CLASSES = {
    0: (0, 4, 8, 2, 6),
    1: (1, 3, 5, 7, 9),
    2: (1, 7, 3, 9, 5),
    3: (8, 6, 4, 2, 0),
    4: (5, 9, 3, 7, 1),
    5: (1, 3, 5, 7, 9),
    6: (6, 2, 8, 4, 0),
    7: (9, 7, 5, 3, 1),
    8: (5, 9, 3, 7, 1),
    9: (0, 2, 4, 6, 8),
    10: (1, 7, 3, 9, 5),
    11: (9, 7, 5, 3, 1),
}


@_check("pentagon-tuples", "all k in [0, 59]")
def check_pentagon_tuples() -> str | None:
    for k in range(60):
        values = pentagon_tuple(k)
        if not _is_rotation(values, _PENTAGON_CLASSES[k % 12]):
            return f"k={k}: {values} is not a rotation of its class"
        expected_sum = 20 if k % 12 in (0, 3, 6, 9) else 25
        if sum(values) != expected_sum:
            return f"k={k}: sum {sum(values)}, expected {expected_sum}"


@_check("dodecagon-tuples", "all k in [0, 59]")
def check_dodecagon_tuples() -> str | None:
    lucas = tuple(lucas_mod(n, 10) for n in range(12))
    zero_five = (0, 5, 5) * 4
    for k in range(60):
        values = dodecagon_tuple(k)
        if k % 5 == 0:
            if sum(values) != 40 or not _is_rotation(values, zero_five):
                return f"k={k}: expected a rotation of the 0,5,5 pattern"
        else:
            if sum(values) != 60 or not _is_rotation(values, lucas):
                return f"k={k}: expected a rotation of the Lucas period"


# ---------------------------------------------------------------------------
# quasi recurrences


def _recurrence_guarantee(residue: int, promised: QuasiClass) -> str | None:
    """Every k, every r = residue (mod 4) with 3 not dividing r, obeys `promised`."""
    for r in range(1, 60):
        if r % 4 != residue or r % 3 == 0:
            continue
        for k in range(60):
            observed = verify_quasi(SubsequenceSpec(k, r))
            if observed not in (promised, QuasiClass.BOTH):
                return f"(k={k}, r={r}): observed {observed.value}"


@_check("forward-recurrence-guarantee", "all k, all r = 1 (mod 4) with 3 not dividing r")
def check_forward_guarantee() -> str | None:
    return _recurrence_guarantee(1, QuasiClass.FORWARD)


@_check("reverse-recurrence-guarantee", "all k, all r = 3 (mod 4) with 3 not dividing r")
def check_reverse_guarantee() -> str | None:
    return _recurrence_guarantee(3, QuasiClass.REVERSE)


def _seed_identity(residue: int, sign: int) -> str | None:
    """1 + F(1 - sign*r) = F(1 + sign*r) (mod 10) for r = residue (mod 4), 3 not dividing r."""
    for r in range(1, 201):
        if r % 4 == residue and r % 3 != 0:
            if (1 + fib_mod(1 - sign * r, 10)) % 10 != fib_mod(1 + sign * r, 10):
                return f"identity breaks at r={r}"


@_check("forward-seed-identity", "all r = 1 (mod 4), 3 not dividing r, up to 200")
def check_forward_seed_identity() -> str | None:
    return _seed_identity(1, sign=1)


@_check("reverse-seed-identity", "all r = 3 (mod 4), 3 not dividing r, up to 200")
def check_reverse_seed_identity() -> str | None:
    return _seed_identity(3, sign=-1)


@_check("negative-index-parity", "all n in [0, 200]")
def check_negative_index_parity() -> str | None:
    for n in range(0, 201):
        expected = (-fib_mod(n, 10)) % 10 if n % 2 == 0 else fib_mod(n, 10)
        if fib_mod(-n, 10) != expected:
            return f"parity rule breaks at n={n}"


# ---------------------------------------------------------------------------
# complete subsequences


@_check("alignment-oracle-agreement", "all 960 (k, r) cases")
def check_alignment_agreement() -> str | None:
    for spec in _unit_cases():
        cert = compute_shift(spec)
        try:
            direction, shift = brute_force_shift(spec)
        except OracleFailureError as exc:
            return f"(k={spec.k}, r={spec.r}): oracle failed: {exc}"
        if (cert.direction, cert.shift) != (direction, shift):
            return (
                f"(k={spec.k}, r={spec.r}): computed {cert.direction.value}:{cert.shift}, "
                f"oracle found {direction.value}:{shift}"
            )


_UNIT_DIGIT_VALUES = {
    1: 1, 7: 3, 11: 9, 13: 3, 17: 7, 19: 1, 23: 7, 29: 9,
    31: 9, 37: 7, 41: 1, 43: 7, 47: 3, 49: 9, 53: 3, 59: 1,
}


@_check("unit-digit-law", "all 16 units of U(60)")
def check_unit_digit_law() -> str | None:
    for r in unit_group(60):
        value = fib_mod(r, 10)
        if value != _UNIT_DIGIT_VALUES[r]:
            return f"r={r}: F(r) mod 10 is {value}, expected {_UNIT_DIGIT_VALUES[r]}"
        expected = r % 10 if r % 4 == 1 else (-r) % 10
        if value != expected:
            return f"r={r}: F(r) mod 10 is {value}, the sign law expects {expected}"


@_check("unit-values-are-units", "all 16 units of U(60)")
def check_unit_values_are_units() -> str | None:
    for r in unit_group(60):
        if fib_mod(r, 10) not in (1, 3, 7, 9):
            return f"r={r}: F(r) mod 10 is not a unit mod 10"


_INVERSE_ANCHORS = {1: 0, 3: 15, 7: 45, 9: 30}


@_check("inverse-anchor-positions", "both anchor variants for all 16 units")
def check_inverse_anchor_positions() -> str | None:
    for r in unit_group(60):
        value = fib_mod(r, 10)
        if value not in _INVERSE_ANCHORS:
            return f"r={r}: F({r}) mod 10 is {value}, not a unit"
        base = _INVERSE_ANCHORS[value]
        for anchor in (base - 1, base + 1):
            if (fib_mod(anchor, 10) * value) % 10 != 1:
                return f"r={r}: F({anchor}) is not the inverse of F({r})"


@_check("four-equally-spaced-zeros", "all 960 periods")
def check_four_zeros() -> str | None:
    for spec in _unit_cases():
        terms = subsequence_period(spec)
        j0 = first_zero_index(spec)
        # the four zeros are those at j0 + 15i, i = 0..3, and no others; j0 is
        # bounded first, as a slice from a negative j0 would wrap round the period
        if not (0 <= j0 < 15 and terms.count(0) == 4 and terms[j0::15] == (0, 0, 0, 0)):
            zeros = [j for j, value in enumerate(terms) if value == 0]
            return f"(k={spec.k}, r={spec.r}): zeros at {zeros}"


@_check("zero-subscript-classes", "all 960 periods")
def check_zero_subscripts() -> str | None:
    for spec in _unit_cases():
        j0 = first_zero_index(spec)
        subscripts = {(spec.k + spec.r * (j0 + 15 * i)) % 60 for i in range(4)}
        if subscripts != {0, 15, 30, 45}:
            return f"(k={spec.k}, r={spec.r}): subscripts {sorted(subscripts)}"


@_check("adjacent-zero-one", "all 960 periods")
def check_adjacent_zero_one() -> str | None:
    for spec in _unit_cases():
        terms = subsequence_period(spec)
        try:
            # the digits as bytes, the first repeated at the end for the pair that wraps round
            digits = bytes(terms + terms[:1])
        except (TypeError, ValueError):
            return f"(k={spec.k}, r={spec.r}): a term is not an int in [0, 255]"
        if b"\x00\x01" not in digits:
            return f"(k={spec.k}, r={spec.r}): no adjacent 0, 1 pair"


@_check("first-zero-minimality", "all 960 cases")
def check_first_zero_minimality() -> str | None:
    for spec in _unit_cases():
        terms = subsequence_period(spec)
        scanned = terms.index(0) if 0 in terms else None
        if scanned is None:
            return f"(k={spec.k}, r={spec.r}): the period has no zero"
        computed = first_zero_index(spec)
        if computed != scanned:
            return f"(k={spec.k}, r={spec.r}): computed {computed}, scan found {scanned}"


_U60_INVERSES = {
    1: 1, 7: 43, 11: 11, 13: 37, 17: 53, 19: 19, 23: 47, 29: 29,
    31: 31, 37: 13, 41: 41, 43: 7, 47: 23, 49: 49, 53: 17, 59: 59,
}


@_check("unit-group-tables", "U(10), U(60), and inverse involution for n in [2, 30]")
def check_unit_group_tables() -> str | None:
    g10 = unit_group(10)
    if tuple(g10) != (1, 3, 7, 9):
        return f"U(10) came out as {tuple(g10)}"
    if g10 != {1: 1, 3: 7, 7: 3, 9: 9}:
        return f"U(10) inverses came out as {g10}"
    if unit_group(60) != _U60_INVERSES:
        return "U(60) inverses disagree with the reference table"
    for n in range(2, 31):
        inverse = unit_group(n)
        for u, v in inverse.items():
            if (u * v) % n != 1 or inverse[v] != u:
                return f"U({n}): {u} and {v} are not mutual inverses"


# ---------------------------------------------------------------------------
# rendering


@_check("diagram-vertex-counts", "all r in [1, 59] for three start indices")
def check_diagram_vertex_counts() -> str | None:
    for k in (0, 3, 9):
        for r in range(1, 60):
            spec = SubsequenceSpec(k, r)
            vertices = {p for edge in build_scene(spec) for p in edge}
            if len(vertices) != star_polygon(spec).n:
                return f"(k={k}, r={r}): {len(vertices)} distinct endpoints"


def _expected_label_line(p: int, label: int) -> str:
    # independent re-derivation of the layout: index 0 at the top, clockwise
    rad = math.radians(90.0 - 6.0 * p)
    x = 300.0 + 264.0 * math.cos(rad)
    y = 300.0 - 264.0 * math.sin(rad)
    return (
        f'<text x="{x:.3f}" y="{y:.3f}" font-size="11" text-anchor="middle" '
        f'dominant-baseline="central">{label}</text>'
    )


@_check("diagram-labels", "all 60 labels at their clockwise-from-top positions")
def check_diagram_labels() -> str | None:
    document = render_svg(SubsequenceSpec(0, 1)).decode("utf-8")
    for p in range(60):
        if _expected_label_line(p, fib_mod(p, 10)) not in document:
            return f"label for circle index {p} is missing or misplaced"


@_check("diagram-rotation-equivalence", "all 3540 (k, r) pairs")
def check_rotation_equivalence() -> str | None:
    def edge_set(scene: tuple[tuple[int, int], ...]) -> set[tuple[int, int]]:
        # an undirected edge as its (low, high) endpoint pair
        return {(a, b) if a <= b else (b, a) for a, b in scene}

    # walk each orbit k, k + r, k + 2r, ... so that every scene is built once
    # and compared with the scene of the next start on its orbit; the first
    # counterexample is therefore the first in r-major, orbit order. The next
    # start draws the same closed walk from its second edge on, so the edge
    # sets are built only when that rotation differs
    for r in range(1, 60):
        g = math.gcd(r, CIRCLE_POINTS)
        for start in range(g):
            first = current = build_scene(SubsequenceSpec(start, r))
            k = start
            for _ in range(CIRCLE_POINTS // g):
                k_next = (k + r) % CIRCLE_POINTS
                following = first if k_next == start else build_scene(SubsequenceSpec(k_next, r))
                if following != current[1:] + current[:1] and edge_set(following) != edge_set(current):
                    return f"(k={k}, r={r}): rotated scene draws different edges"
                current, k = following, k_next


@_check("diagram-determinism", "repeated renders are byte-identical")
def check_render_determinism() -> str | None:
    spec = SubsequenceSpec(3, 25)
    if render_svg(spec) != render_svg(spec):
        return "two renders of the same full scene differ"
    # frame by frame, padded with None so that a different count also differs
    if any(a != b for a, b in itertools.zip_longest(render_frames(spec), render_frames(spec))):
        return "two frame sequences of the same spec differ"


def run_all() -> list[CheckResult]:
    """Run every check in this process; the results come in ALL_CHECKS order."""
    try:
        return [check() for check in ALL_CHECKS]
    finally:
        _fib_table.cache_clear()
