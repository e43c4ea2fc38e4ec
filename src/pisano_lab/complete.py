"""Unit-group machinery and parent-sequence alignment for coprime jumps.

Any jump size coprime to 60 walks through every point of the circle, and
the resulting 60-term period is the parent sequence itself, run forward
or in reverse from some starting index. This module computes that
starting index (the shift) both by the closed-form procedure and by an
independent brute-force search. Each (k, r) entry point takes a
SubsequenceSpec, whose construction has checked k and r; a non-spec
raises ValueError, and a jump not coprime to 60 raises NotAUnitError.
The unit group U(n) comes back as its read-only inverse table, keyed by
the units in increasing order; the closed form reads the discrete log
base 3 in U(10) from a four-entry table, and returns a ShiftCertificate,
a frozen record on the `subseq._Record` base whose fields keep their
declared order.
"""

from __future__ import annotations

import enum
import math
from types import MappingProxyType

from .core import _require_modulus
from .subseq import CIRCLE_POINTS, PARENT_PERIOD, SubsequenceSpec, _Record, _require_spec, subsequence_period


class NotAUnitError(ValueError):
    """Raised for arguments that are not elements of the unit group in play."""


class OracleFailureError(RuntimeError):
    """Raised when the brute-force search finds no, or several, alignments,
    or a period term that is not a residue it can search.

    Any such outcome would contradict a proved fact about these periods, so
    it signals an implementation bug rather than bad user input.
    """


# Largest modulus unit_group accepts. The result is a mapping with up to n - 1
# entries, so an unbounded n could exhaust memory; the library itself needs
# only U(10) and U(60).
UNIT_GROUP_MAX_MODULUS = 10_000


def unit_group(n: int) -> MappingProxyType[int, int]:
    """U(n) as its read-only inverse table {u: u**-1 mod n}, 2 <= n <= UNIT_GROUP_MAX_MODULUS.

    The keys are the least residues coprime to n, in increasing order, so
    iterating the table walks U(n) and its length is the order of U(n).
    Inverses come from the extended gcd (via pow with exponent -1), not
    from any precomputed table.
    """
    _require_modulus(n)
    if n > UNIT_GROUP_MAX_MODULUS:
        raise ValueError(f"unit_group builds U(n) only for n <= {UNIT_GROUP_MAX_MODULUS}, got {n}")
    return MappingProxyType({u: pow(u, -1, n) for u in range(1, n) if math.gcd(u, n) == 1})


# 3 generates U(10): its powers 3**i mod 10 for i = 0..3 are 1, 3, 9, 7.
_LOG_BASE_3 = {1: 0, 3: 1, 9: 2, 7: 3}


def _require_unit(spec: SubsequenceSpec) -> None:
    _require_spec(spec)
    if math.gcd(spec.r, CIRCLE_POINTS) != 1:
        raise NotAUnitError(f"jump size {spec.r!r} is not an element of U(60)")


def first_zero_index(spec: SubsequenceSpec) -> int:
    """Least j >= 0 with F(k + r*j) mod 10 == 0; always lands in [0, 14].

    Zeros of the parent period sit exactly at indices divisible by 15, so
    j solves r*j = -k (mod 15). Equal spacing of the zeros makes that
    solution minimal.
    """
    _require_unit(spec)
    return (pow(spec.r, -1, 15) * -spec.k) % 15


class ShiftDirection(enum.Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


class ShiftCertificate(_Record):
    """Every intermediate of the alignment computation for one (k, r), as a
    frozen record whose fields keep the order below, which the `classify`
    report lists.

    unit_digit    -- U(10) element congruent to r (forward) or -r (reverse) mod 10
    log_index     -- discrete log of unit_digit relative to 3
    zero_vertex   -- circle index (a multiple of 15) of the aligning zero
    restart_index -- subsequence position where the parent's (0, 1) pair begins
    first_zero    -- least subsequence position holding a zero term
    shift         -- parent index N: term j of the subsequence is F(N + j) mod 10
                     when forward, F(N - j) mod 10 when reverse
    """

    unit_digit: int
    log_index: int
    zero_vertex: int
    restart_index: int
    first_zero: int
    direction: ShiftDirection
    shift: int

    def __init__(
        self,
        unit_digit: int,
        log_index: int,
        zero_vertex: int,
        restart_index: int,
        first_zero: int,
        direction: ShiftDirection,
        shift: int,
    ) -> None:
        self.__dict__.update(
            unit_digit=unit_digit,
            log_index=log_index,
            zero_vertex=zero_vertex,
            restart_index=restart_index,
            first_zero=first_zero,
            direction=direction,
            shift=shift,
        )


def compute_shift(spec: SubsequenceSpec) -> ShiftCertificate:
    """Align the (k, r) subsequence with the parent period, in closed form.

    The jump direction follows r mod 4 (1 forward, 3 reverse). The walk
    passes the parent's restart pair (0, 1) at the circle vertex 15 times
    the discrete log of the unit digit; solving k + r*j = vertex (mod 60)
    locates that pass within the subsequence, and the shift falls out.
    The forward case yields 60 - restart_index, stored reduced mod 60 so
    the shift stays in [0, 59].
    """
    first_zero = first_zero_index(spec)  # refuses a non-spec or a non-unit jump
    k, r = spec.k, spec.r
    forward = r % 4 == 1
    unit_digit = (r if forward else -r) % 10
    # r is coprime to 60, so its last digit, and that of -r, is a unit of U(10)
    log_index = _LOG_BASE_3[unit_digit]
    zero_vertex = 15 * log_index
    restart_index = (pow(r, -1, CIRCLE_POINTS) * (zero_vertex - k)) % CIRCLE_POINTS
    shift = (CIRCLE_POINTS - restart_index) % CIRCLE_POINTS if forward else restart_index
    return ShiftCertificate(
        unit_digit=unit_digit,
        log_index=log_index,
        zero_vertex=zero_vertex,
        restart_index=restart_index,
        first_zero=first_zero,
        direction=ShiftDirection.FORWARD if forward else ShiftDirection.REVERSE,
        shift=shift,
    )


def _window_starts(table: bytes, terms: bytes) -> list[int]:
    """Every start in [0, 59] of a 60-term window of table (120 terms) equal to terms."""
    if len(terms) != CIRCLE_POINTS:
        return []
    end = 2 * CIRCLE_POINTS - 1  # the window at start 59 ends at index 118
    starts = []
    start = table.find(terms, 0, end)
    while start >= 0:
        starts.append(start)
        start = table.find(terms, start + 1, end)
    return starts


def brute_force_shift(spec: SubsequenceSpec) -> tuple[ShiftDirection, int]:
    """Find the alignment by trying all 120 (direction, shift) candidates.

    Independent oracle for compute_shift: takes the full 60-term period
    from the parent table (subsequence_period) and demands exactly one
    exact match against a 60-term window of the parent period read
    forward or in reverse. Zero or multiple matches raise
    OracleFailureError, since the parent period contains exactly one
    adjacent (0, 1) pair in each direction. So does a period term that is
    not an int in [0, 255], which no residue mod 10 can be. The residues
    are bytes, so each direction is searched by repeated C-level
    `bytes.find` calls, each resuming one past the last match, which finds
    every matching window.
    """
    _require_unit(spec)
    try:
        terms = bytes(subsequence_period(spec))
    except (TypeError, ValueError):
        raise OracleFailureError(
            f"a term of the period of (k={spec.k}, r={spec.r}) is not an int in [0, 255]"
        ) from None
    # built on each call from the module's PARENT_PERIOD, which tests replace
    forward = bytes(PARENT_PERIOD) * 2
    # reverse[start + j] is PARENT_PERIOD[(shift - j) % 60] for start = 59 - shift
    reverse = forward[::-1]
    matches = [(ShiftDirection.FORWARD, shift) for shift in _window_starts(forward, terms)]
    matches += [(ShiftDirection.REVERSE, CIRCLE_POINTS - 1 - start) for start in _window_starts(reverse, terms)]
    if len(matches) != 1:
        raise OracleFailureError(
            f"expected exactly one alignment for (k={spec.k}, r={spec.r}), found {len(matches)}"
        )
    return matches[0]
