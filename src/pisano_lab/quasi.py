"""Which subsequences obey the Fibonacci recurrence, forward or reversed."""

from __future__ import annotations

import enum

from .subseq import SubsequenceSpec, _require_spec, subsequence_period


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


def predict_quasi(spec: SubsequenceSpec) -> QuasiPrediction:
    """Prediction from the jump size alone (k never matters).

    Jump sizes with r = 1 (mod 4) and 3 not dividing r always yield the
    forward recurrence; r = 3 (mod 4) with 3 not dividing r always yield
    the reverse one. Everything else carries no guarantee: the two
    conditions are sufficient, not known to be necessary. Anything that
    is not a SubsequenceSpec raises ValueError.
    """
    _require_spec(spec)
    r = spec.r
    if r % 3 != 0:
        if r % 4 == 1:
            return QuasiPrediction.FORWARD
        if r % 4 == 3:
            return QuasiPrediction.REVERSE
    return QuasiPrediction.NO_GUARANTEE


def verify_quasi(spec: SubsequenceSpec) -> QuasiClass:
    """Check both cyclic recurrences over every position of the (k, r) period.

    The subsequence is periodic, so the cyclic check (indices mod n) is
    equivalent to quantifying over the infinite sequence. Constant-ish
    periods such as (0, 0) can satisfy both directions at once.
    Anything that is not a SubsequenceSpec raises ValueError.
    """
    t = subsequence_period(spec)
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
