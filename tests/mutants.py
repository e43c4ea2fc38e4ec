"""Seeded bugs for the `verify` checks, at least one per check.

Each bug is a plausible slip: a wrong value at one argument, a dropped or
extra reduction, a flipped orientation, or a wrong table entry. Where the
check loops, the bug sits at the last case it visits, so a loop that stops
early lets it through; a `first-case` entry puts a second bug at the first
case, so a loop that starts late lets that one through. `MUTANTS` is the
one list, in the order of `_checks.ALL_CHECKS`;
`tests/test_checks.py::test_mutant_is_caught` runs each entry under the id
`<check>-<attr>`, followed by `-<tag>` when the entry has one.
"""

import itertools
from typing import Any, Callable, NamedTuple

from pisano_lab import _checks, complete, quasi, render
from pisano_lab.complete import ShiftCertificate, ShiftDirection
from pisano_lab.core import lucas_mod
from pisano_lab.subseq import DiagramType, StarPolygon, SubsequenceSpec


class Mutant(NamedTuple):
    check: Callable[[], _checks.CheckResult]
    attr: str  # the attribute of `module` to patch
    bug: Callable[[Any], Any]  # builds the buggy replacement from the real value
    detail: str  # the counterexample the check must report
    module: Any = _checks
    tag: str = ""  # tells apart two entries for the same check and attr


def corrupt_at(key: tuple, corrupt: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """A bug that changes the real function's result only for the arguments `key`."""

    def bug(real):
        def buggy(*args):
            result = real(*args)
            return corrupt(result) if args == key else result

        return buggy

    return bug


def fib_mod_wrong_at(n: int, m: int) -> Callable[[Any], Any]:
    return corrupt_at((n, m), lambda value: (value + 1) % m)


def spec(k: int, r: int) -> tuple:
    return (SubsequenceSpec(k=k, r=r),)


def term_off(j: int) -> Callable[[tuple], tuple]:
    """Term j of a tuple of residues one too large."""
    return lambda terms: terms[:j] + ((terms[j] + 1) % 10,) + terms[j + 1 :]


def period_wrong_at(k: int, r: int, j: int) -> Callable[[Any], Any]:
    """Term j of the (k, r) period one too large."""
    return corrupt_at(spec(k, r), term_off(j))


def unreduced_shift(real):
    # forgets the final mod-60 reduction of a forward shift
    def buggy(*args):
        cert = real(*args)
        if cert.direction is ShiftDirection.FORWARD:
            return ShiftCertificate(
                unit_digit=cert.unit_digit,
                log_index=cert.log_index,
                zero_vertex=cert.zero_vertex,
                restart_index=cert.restart_index,
                first_zero=cert.first_zero,
                direction=cert.direction,
                shift=60 - cert.restart_index,
            )
        return cert

    return buggy


def lucas_period_at(k: int, r: int) -> Callable[[Any], Any]:
    """The (k, r) period read from the Lucas table in place of the Fibonacci one: no term is 0."""
    return corrupt_at(spec(k, r), lambda terms: tuple(lucas_mod(k + r * j, 10) for j in range(len(terms))))


def moved_endpoint(edges):
    # dropping an edge of a closed polygon keeps every vertex, moving one does not
    (a, b), rest = edges[-1], edges[:-1]
    return rest + ((a, (b + 1) % 60),)


def dropped_edge(edges):
    return edges[:-1]


def frames_one_late(real):
    # state kept between calls: each call starts one frame later than the last
    calls = itertools.count()
    return lambda spec: itertools.islice(real(spec), next(calls), None)


def flipped(values):
    return values[::-1]


def counterclockwise(real):
    return lambda p: 90.0 + 6.0 * (p % 60)


def svg_one_longer(real):
    # state kept between calls: each document ends in one more newline than the last
    calls = itertools.count()
    return lambda spec: real(spec) + b"\n" * next(calls)


C = _checks
MUTANTS = [
    # F(200) mod 30 is read only by the last case, n = 198 with m = 30
    Mutant(
        C.check_fib_recurrence, "fib_mod", fib_mod_wrong_at(200, 30), "recurrence breaks at n=198, m=30"
    ),
    # F(-200) mod 2 is read only by the first case, n = -200 with m = 2
    Mutant(
        C.check_fib_recurrence,
        "fib_mod",
        fib_mod_wrong_at(-200, 2),
        "recurrence breaks at n=-200, m=2",
        tag="first-case",
    ),
    Mutant(
        C.check_negative_reflection, "fib_mod", fib_mod_wrong_at(-200, 30), "reflection breaks at n=200, m=30"
    ),
    # n = 0 reads F(0) on both sides, so n = 1 with m = 2 is the first case a bug can show
    Mutant(
        C.check_negative_reflection,
        "fib_mod",
        fib_mod_wrong_at(-1, 2),
        "reflection breaks at n=1, m=2",
        tag="first-case",
    ),
    Mutant(C.check_parity_law, "fib_mod", fib_mod_wrong_at(1000, 2), "parity law breaks at n=1000"),
    Mutant(C.check_five_law, "fib_mod", fib_mod_wrong_at(1000, 5), "divisibility by 5 breaks at n=1000"),
    # F(120) is read only by the last case, a = b = 60
    Mutant(
        C.check_index_addition, "fib_mod", fib_mod_wrong_at(120, 10), "addition identity breaks at a=60, b=60"
    ),
    Mutant(
        C.check_fifteen_step_multiplier,
        "fib_mod",
        fib_mod_wrong_at(180, 10),
        "15-step multiplier breaks at n=60, j=8",
    ),
    Mutant(
        C.check_antipodal_sums,
        "antipodal_sum",
        corrupt_at((59,), lambda total: total % 10),
        "antipodal sum at n=59 is 0, expected 10",
    ),
    Mutant(
        C.check_period_contents,
        "pisano_period",
        corrupt_at((50,), lambda period: period[:-1] + (period[-1] + 1,)),
        "period of m=50 disagrees with fib_mod at j=299",
    ),
    # 60 - 59 divides 60, so a Type1 test made before the full-circle test misfiles r = 59
    Mutant(
        C.check_polygon_parameters,
        "star_polygon",
        corrupt_at(spec(0, 59), lambda poly: StarPolygon(poly.n, poly.q, DiagramType.TYPE1, poly.convex)),
        "r=59: type Type1, walk says Type3",
    ),
    # r = 59 steps one point back each time: q = 59, not its mirror 1
    Mutant(
        C.check_polygon_parameters,
        "star_polygon",
        corrupt_at(spec(0, 59), lambda poly: StarPolygon(poly.n, poly.n - poly.q, poly.diagram_type, poly.convex)),
        "r=59: formula gives (60, 1), walk gives (60, 59)",
        tag="step",
    ),
    Mutant(
        C.check_polygon_parameters,
        "star_polygon",
        corrupt_at(spec(0, 59), lambda poly: StarPolygon(poly.n, poly.q, poly.diagram_type, not poly.convex)),
        "r=59: convex flag disagrees with q",
        tag="convex",
    ),
    # (59, 1) is the first pair whose reversed partner is the corrupted (59, 59)
    Mutant(
        C.check_reversed_jumps,
        "subsequence_period",
        period_wrong_at(59, 59, 0),
        "(k=59, r=1): reversed jump is not the reversed period",
    ),
    Mutant(
        C.check_twenty_vertex_steps,
        "star_polygon",
        corrupt_at(spec(0, 27), lambda poly: StarPolygon(poly.n, poly.n - poly.q, poly.diagram_type, poly.convex)),
        "r=27: got (20, 11), expected (20, 9)",
    ),
    Mutant(
        C.check_square_tuples,
        "square_tuple",
        corrupt_at((59,), flipped),
        "k=59: (3, 9, 7, 1) is not a rotation of the gcd=1 class",
    ),
    Mutant(
        C.check_pentagon_tuples,
        "pentagon_tuple",
        corrupt_at((59,), flipped),
        "k=59: (3, 5, 7, 9, 1) is not a rotation of its class",
    ),
    Mutant(
        C.check_dodecagon_tuples,
        "dodecagon_tuple",
        corrupt_at((59,), flipped),
        "k=59: expected a rotation of the Lucas period",
    ),
    # flipping a rotation of 0, 5, 5 gives another rotation, so the last term is changed instead
    Mutant(
        C.check_dodecagon_tuples,
        "dodecagon_tuple",
        corrupt_at((55,), term_off(11)),
        "k=55: expected a rotation of the 0,5,5 pattern",
        tag="zero-five",
    ),
    Mutant(
        C.check_forward_guarantee,
        "subsequence_period",
        period_wrong_at(59, 53, 0),
        "(k=59, r=53): observed neither",
        module=quasi,
    ),
    Mutant(
        C.check_reverse_guarantee,
        "subsequence_period",
        period_wrong_at(59, 59, 0),
        "(k=59, r=59): observed neither",
        module=quasi,
    ),
    Mutant(C.check_forward_seed_identity, "fib_mod", fib_mod_wrong_at(198, 10), "identity breaks at r=197"),
    Mutant(C.check_reverse_seed_identity, "fib_mod", fib_mod_wrong_at(200, 10), "identity breaks at r=199"),
    Mutant(
        C.check_negative_index_parity, "fib_mod", fib_mod_wrong_at(-200, 10), "parity rule breaks at n=200"
    ),
    Mutant(
        C.check_alignment_agreement,
        "compute_shift",
        unreduced_shift,
        "(k=0, r=1): computed forward:60, oracle found forward:0",
    ),
    Mutant(
        C.check_alignment_agreement,
        "brute_force_shift",
        corrupt_at(spec(59, 59), lambda found: (found[0], (found[1] + 1) % 60)),
        "(k=59, r=59): computed reverse:59, oracle found reverse:0",
    ),
    # a period with no (0, 1) pair leaves the oracle no alignment: the check must fail, not raise
    Mutant(
        C.check_alignment_agreement,
        "subsequence_period",
        corrupt_at(spec(59, 59), lambda terms: (0,) * 60),
        "(k=59, r=59): oracle failed: expected exactly one alignment for (k=59, r=59), found 0",
        module=complete,
    ),
    Mutant(
        C.check_unit_digit_law, "fib_mod", fib_mod_wrong_at(59, 10), "r=59: F(r) mod 10 is 2, expected 1"
    ),
    Mutant(
        C.check_unit_values_are_units,
        "fib_mod",
        fib_mod_wrong_at(59, 10),
        "r=59: F(r) mod 10 is not a unit mod 10",
    ),
    # a non-unit F(r) has no anchor: the check must fail, not raise KeyError
    Mutant(
        C.check_inverse_anchor_positions,
        "fib_mod",
        fib_mod_wrong_at(59, 10),
        "r=59: F(59) mod 10 is 2, not a unit",
    ),
    # r = 17 is the last unit whose anchors, F(44) and F(46), the loop reads for the first time
    Mutant(
        C.check_inverse_anchor_positions,
        "fib_mod",
        fib_mod_wrong_at(46, 10),
        "r=17: F(46) is not the inverse of F(17)",
        tag="anchor",
    ),
    # the first zero of (59, 59) sits at j = 14
    Mutant(
        C.check_four_zeros,
        "subsequence_period",
        period_wrong_at(59, 59, 14),
        "(k=59, r=59): zeros at [29, 44, 59]",
    ),
    Mutant(
        C.check_zero_subscripts,
        "first_zero_index",
        corrupt_at(spec(59, 59), lambda j0: j0 + 1),
        "(k=59, r=59): subscripts [14, 29, 44, 59]",
    ),
    # the only 0, 1 pair of (59, 59) wraps around from its last term to its first
    Mutant(
        C.check_adjacent_zero_one,
        "subsequence_period",
        period_wrong_at(59, 59, 0),
        "(k=59, r=59): no adjacent 0, 1 pair",
    ),
    # a period without a zero: the check must fail, not raise StopIteration
    Mutant(
        C.check_first_zero_minimality,
        "subsequence_period",
        lucas_period_at(59, 59),
        "(k=59, r=59): the period has no zero",
    ),
    Mutant(
        C.check_first_zero_minimality,
        "first_zero_index",
        corrupt_at(spec(59, 59), lambda j0: j0 + 1),
        "(k=59, r=59): computed 15, scan found 14",
    ),
    Mutant(
        C.check_unit_group_tables,
        "unit_group",
        corrupt_at((30,), lambda inverse: {**inverse, 29: 1}),
        "U(30): 29 and 1 are not mutual inverses",
    ),
    Mutant(
        C.check_unit_group_tables,
        "unit_group",
        corrupt_at((10,), lambda inverse: {u: inverse[u] for u in reversed(inverse)}),
        "U(10) came out as (9, 7, 3, 1)",
        tag="u10-order",
    ),
    Mutant(
        C.check_unit_group_tables,
        "unit_group",
        corrupt_at((10,), lambda inverse: {**inverse, 3: 3, 7: 7}),
        "U(10) inverses came out as {1: 1, 3: 3, 7: 7, 9: 9}",
        tag="u10-inverses",
    ),
    Mutant(
        C.check_unit_group_tables,
        "unit_group",
        corrupt_at((60,), lambda inverse: {**inverse, 59: 1}),
        "U(60) inverses disagree with the reference table",
        tag="u60",
    ),
    # every point is a vertex when r = 59, so the last case a moved endpoint can show is r = 58
    Mutant(
        C.check_diagram_vertex_counts,
        "build_scene",
        corrupt_at(spec(9, 58), moved_endpoint),
        "(k=9, r=58): 31 distinct endpoints",
    ),
    # p = 1 and its mirror image p = 59 both carry the label 1, so p = 2 is the first miss
    Mutant(
        C.check_diagram_labels,
        "_angle_degrees",
        counterclockwise,
        "label for circle index 2 is missing or misplaced",
        module=render,
    ),
    # (1, 59) is the last scene the orbit walk builds: r = 59 walks 0, 59, ..., 2, 1
    Mutant(
        C.check_rotation_equivalence,
        "build_scene",
        corrupt_at(spec(1, 59), dropped_edge),
        "(k=2, r=59): rotated scene draws different edges",
    ),
    Mutant(
        C.check_render_determinism,
        "render_svg",
        svg_one_longer,
        "two renders of the same full scene differ",
    ),
    Mutant(
        C.check_render_determinism,
        "render_frames",
        frames_one_late,
        "two frame sequences of the same spec differ",
    ),
]

