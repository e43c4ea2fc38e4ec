"""Which subsequences obey the Fibonacci recurrence, forward or reversed."""

from __future__ import annotations

import enum
import math

from .subseq import CIRCLE_POINTS, SubsequencePeriod, SubsequenceSpec

_DIGITS = frozenset(range(10))


class QuasiClass(enum.Enum):
    """Empirical recurrence behaviour of one subsequence period."""

    FORWARD = "forward"
    REVERSE = "reverse"
    BOTH = "both"
    NEITHER = "neither"


class QuasiPrediction(enum.Enum):
    """What the sufficiency conditions promise for a given jump size."""

    FORWARD = "forward"
    REVERSE = "reverse"
    NO_GUARANTEE = "no_guarantee"


def predict_quasi(r: int) -> QuasiPrediction:
    """Prediction from the jump size alone.

    Jump sizes with r = 1 (mod 4) and 3 not dividing r always yield the
    forward recurrence; r = 3 (mod 4) with 3 not dividing r always yield
    the reverse one. Everything else carries no guarantee: the two
    conditions are sufficient, not known to be necessary.
    """
    if type(r) is not int:
        raise ValueError(f"jump size r must be an int, got {r!r}")
    if not 1 <= r <= 59:
        raise ValueError(f"jump size r must be in [1, 59], got {r}")
    if r % 3 != 0:
        if r % 4 == 1:
            return QuasiPrediction.FORWARD
        if r % 4 == 3:
            return QuasiPrediction.REVERSE
    return QuasiPrediction.NO_GUARANTEE


def verify_quasi(period: SubsequencePeriod) -> QuasiClass:
    """Check both cyclic recurrences over every position of the period.

    The subsequence is periodic, so the cyclic check (indices mod n) is
    equivalent to quantifying over the infinite sequence. Constant-ish
    periods such as (0, 0) can satisfy both directions at once.
    Anything that is not a SubsequencePeriod, or one whose terms are not
    a tuple of n = 60/gcd(r, 60) ints in 0..9, raises ValueError.
    """
    # a look-alike period never came from subsequence_period
    if not isinstance(period, SubsequencePeriod):
        raise ValueError(f"expected a SubsequencePeriod, got {period!r}")
    spec, t = period.spec, period.terms
    # nor did a hand-built one with other terms; exact types, so bool is refused too
    if not (
        isinstance(spec, SubsequenceSpec)
        and type(t) is tuple
        and len(t) == CIRCLE_POINTS // math.gcd(spec.r, CIRCLE_POINTS)
        and set(map(type, t)) <= {int}
        and _DIGITS.issuperset(t)
    ):
        raise ValueError(f"terms must be a tuple of 60/gcd(r, 60) ints in 0..9, got {period!r}")
    n = len(t)
    forward = all((t[j - 1] + t[j]) % 10 == t[(j + 1) % n] for j in range(n))
    reverse = all((t[(j + 1) % n] + t[j]) % 10 == t[j - 1] for j in range(n))
    if forward and reverse:
        return QuasiClass.BOTH
    if forward:
        return QuasiClass.FORWARD
    if reverse:
        return QuasiClass.REVERSE
    return QuasiClass.NEITHER
