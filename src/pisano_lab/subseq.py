"""Arithmetic-progression subsequences of the Fibonacci sequence mod 10.

The parent period has 60 terms. Picking every r-th term starting at index
k traces a polygon on the 60-point circle; this module computes those
periods, the polygon parameters (n vertices, step q), and the short
fixed-jump tuples for jump sizes 15, 12, and 5. Its records,
SubsequenceSpec and StarPolygon, are frozen values on the private
`_Record` base, which the other modules' records share.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence

from .core import _require_index, _spell_int, pisano_period

CIRCLE_POINTS = 60  # period length of the Fibonacci sequence mod 10

# the 60 parent residues F(0) .. F(59) mod 10
PARENT_PERIOD = pisano_period(10)

# 60 copies reach index 59 + 59*59, the last term any (k, r) period reads
_UNROLLED_PARENT = PARENT_PERIOD * CIRCLE_POINTS


class _Record:
    """Base of the package's frozen records.

    It stands in for `dataclass(frozen=True)`, whose import pulls `inspect`,
    `ast` and `dis` into every CLI start. A subclass lists its fields as
    annotations, and its `__init__` stores them in that order in the
    instance `__dict__`, which is the order `vars()` gives. A record equals
    only a record of its own class with equal fields (never a tuple),
    hashes as the tuple of its fields, shows as `Name(field=value, ...)`,
    and refuses assignment and deletion with AttributeError.
    """

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SubsequenceSpec(_Record):
    """Start index k in [0, 59] and jump size r in [1, 59], as a frozen record.

    The constructor is the one place that checks k and r: anything else
    raises ValueError.
    """

    k: int
    r: int

    def __init__(self, k: int, r: int) -> None:
        if type(k) is not int or type(r) is not int:
            raise ValueError(f"k and r must be ints, got k={k!r}, r={r!r}")
        if not 0 <= k <= 59:
            raise ValueError(f"start index k must be in [0, 59], got {_spell_int(k)}")
        if not 1 <= r <= 59:
            raise ValueError(f"jump size r must be in [1, 59], got {_spell_int(r)}")
        # made 13,501 times per `verify`: two item stores cost less than update()
        fields = self.__dict__
        fields["k"], fields["r"] = k, r


def _require_spec(spec: SubsequenceSpec) -> None:
    # only a SubsequenceSpec has had its k and r checked by its __init__
    if not isinstance(spec, SubsequenceSpec):
        raise ValueError(f"expected a SubsequenceSpec, got {spec!r}")


class DiagramType(enum.Enum):
    TYPE1 = "Type1"
    TYPE2 = "Type2"
    TYPE3 = "Type3"


class StarPolygon(_Record):
    """Diagram parameters, as a frozen record: n vertices visited in steps of q of them."""

    n: int
    q: int
    diagram_type: DiagramType
    convex: bool

    def __init__(self, n: int, q: int, diagram_type: DiagramType, convex: bool) -> None:
        self.__dict__.update(n=n, q=q, diagram_type=diagram_type, convex=convex)


def _vertex_count(r: int) -> int:
    # the walk in steps of r closes after 60 / gcd(r, 60) points
    return CIRCLE_POINTS // math.gcd(r, CIRCLE_POINTS)


def star_polygon(spec: SubsequenceSpec) -> StarPolygon:
    """Classify the diagram drawn by jump size r (k never matters).

    n = 60/gcd(r, 60) vertices, stepping q = r/gcd(r, 60) of them at a
    time. Full-circle diagrams (gcd(r, 60) = 1) are Type3, by convention
    including r = 1 and r = 59. Otherwise the diagram is Type1 when r or
    60 - r divides 60 (a regular n-gon), else Type2.
    """
    _require_spec(spec)
    r = spec.r
    n = _vertex_count(r)
    q = r * n // CIRCLE_POINTS  # r / gcd(r, 60)
    if n == CIRCLE_POINTS:
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
    return _UNROLLED_PARENT[k : k + r * _vertex_count(r) : r]


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


def is_cyclic_shift(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when b is a rotation of a (empty sequences match each other).

    b is compared with each rotation of a, so the cost is at most 60
    rotations of 60 terms. Anything but two sequences of ints, or a
    sequence of more than CIRCLE_POINTS terms, read from len() before any
    term, raises ValueError. operator.index reads True as 1, which it equals.
    """
    try:
        if len(a) <= CIRCLE_POINTS and len(b) <= CIRCLE_POINTS:
            # lists, not tuples: tuple(map(...)) here raised the peak RSS of a
            # `verify` child by about 0.1 MB
            a, b = [*map(operator.index, a)], [*map(operator.index, b)]
            return any(a[i:] + a[:i] == b for i in range(len(a) or 1))
    except TypeError:
        raise ValueError("is_cyclic_shift compares sequences of ints") from None
    except OverflowError:  # len() of a range longer than sys.maxsize
        pass
    raise ValueError(f"is_cyclic_shift compares sequences of at most {CIRCLE_POINTS} terms")
