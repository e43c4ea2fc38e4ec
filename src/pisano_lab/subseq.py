"""Arithmetic-progression subsequences of the Fibonacci sequence mod 10.

The parent period has 60 terms. Picking every r-th term starting at index
k traces a polygon on the 60-point circle; this module computes those
periods, the polygon parameters (n vertices, step q), and the short
fixed-jump tuples for jump sizes 15, 12, and 5.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .core import _require_index, pisano_period

CIRCLE_POINTS = 60  # period length of the Fibonacci sequence mod 10

# the 60 parent residues F(0) .. F(59) mod 10
PARENT_PERIOD = pisano_period(10)

# 60 copies reach index 59 + 59*59, the last term any (k, r) period reads
_UNROLLED_PARENT = PARENT_PERIOD * CIRCLE_POINTS


@dataclass(frozen=True)
class SubsequenceSpec:
    """Start index k in [0, 59] and jump size r in [1, 59]."""

    k: int
    r: int

    def __post_init__(self) -> None:
        if type(self.k) is not int or type(self.r) is not int:
            raise ValueError(f"k and r must be ints, got k={self.k!r}, r={self.r!r}")
        if not 0 <= self.k <= 59:
            raise ValueError(f"start index k must be in [0, 59], got {self.k}")
        if not 1 <= self.r <= 59:
            raise ValueError(f"jump size r must be in [1, 59], got {self.r}")


def _require_spec(spec: SubsequenceSpec) -> None:
    # only a SubsequenceSpec has had its k and r checked by __post_init__
    if not isinstance(spec, SubsequenceSpec):
        raise ValueError(f"expected a SubsequenceSpec, got {spec!r}")


class DiagramType(enum.Enum):
    TYPE1 = "Type1"
    TYPE2 = "Type2"
    TYPE3 = "Type3"


@dataclass(frozen=True)
class StarPolygon:
    """Diagram parameters: n vertices visited in steps of q of them."""

    n: int
    q: int
    diagram_type: DiagramType
    convex: bool


def star_polygon(spec: SubsequenceSpec) -> StarPolygon:
    """Classify the diagram drawn by jump size r (k never matters).

    n = 60/gcd(r, 60) vertices, stepping q = r/gcd(r, 60) of them at a
    time. Full-circle diagrams (gcd(r, 60) = 1) are Type3, by convention
    including r = 1 and r = 59. Otherwise the diagram is Type1 when r or
    60 - r divides 60 (a regular n-gon), else Type2.
    """
    _require_spec(spec)
    r = spec.r
    g = math.gcd(r, CIRCLE_POINTS)
    n = CIRCLE_POINTS // g
    q = r // g
    if g == 1:
        diagram_type = DiagramType.TYPE3
    elif CIRCLE_POINTS % r == 0 or CIRCLE_POINTS % (CIRCLE_POINTS - r) == 0:
        diagram_type = DiagramType.TYPE1
    else:
        diagram_type = DiagramType.TYPE2
    return StarPolygon(n=n, q=q, diagram_type=diagram_type, convex=q == 1)


def subsequence_period(spec: SubsequenceSpec) -> tuple[int, ...]:
    """Terms F(k + r*j) mod 10 for one full period, j = 0 .. n-1.

    Terms start at j = 0, i.e. at F(k) mod 10; they are never rotated to
    any canonical form, since shift computations are defined relative to
    the first term. They are one C-level slice, from k in steps of r, of
    the parent period repeated 60 times: index k + r*j of that table is
    F(k + r*j) mod 10 without a reduction mod 60.
    """
    _require_spec(spec)
    k, r = spec.k, spec.r
    n = CIRCLE_POINTS // math.gcd(r, CIRCLE_POINTS)
    return _UNROLLED_PARENT[k : k + r * n : r]


def _fixed_jump_period(k: int, r: int) -> tuple[int, ...]:
    _require_index(k)
    # any int start lies on the circle after reduction mod 60
    return subsequence_period(SubsequenceSpec(k=k % CIRCLE_POINTS, r=r))


def square_tuple(k: int) -> tuple[int, ...]:
    """The four terms F(k + 15j) mod 10, j = 0..3 (jump size 15)."""
    return _fixed_jump_period(k, 15)


def pentagon_tuple(k: int) -> tuple[int, ...]:
    """The five terms F(k + 12j) mod 10, j = 0..4 (jump size 12)."""
    return _fixed_jump_period(k, 12)


def dodecagon_tuple(k: int) -> tuple[int, ...]:
    """The twelve terms F(k + 5j) mod 10, j = 0..11 (jump size 5)."""
    return _fixed_jump_period(k, 5)


def _tokens(values: Sequence[int]) -> str:
    # hex() reads an int through __index__, so True is 0x1 and matches 1 as it
    # does under ==; unlike str(), it has no length limit for huge ints
    try:
        return ",".join(map(hex, values)) + ","
    except TypeError:
        raise ValueError("is_cyclic_shift compares sequences of ints") from None


def is_cyclic_shift(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when b is a rotation of a (empty sequences match each other).

    Uses the doubling trick: b is a rotation of a exactly when it occurs
    as a window of a concatenated with itself. Both are written as
    comma-terminated tokens, so one C-level substring search, linear in
    the length, finds a window that starts on a term boundary; a window
    as long as the tokens of a is a rotation of all of a. Anything but
    two sequences of ints raises ValueError.
    """
    a_tokens, b_tokens = _tokens(a), _tokens(b)
    return len(a_tokens) == len(b_tokens) and "," + b_tokens in "," + a_tokens * 2
