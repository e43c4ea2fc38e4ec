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


# byte value -> its last digit, for the pair sums of at most 9 + 9
_LAST_DIGIT = bytes(value % 10 for value in range(256))


def verify_quasi(spec: SubsequenceSpec) -> QuasiClass:
    """Check both cyclic recurrences over every position of the (k, r) period.

    The subsequence is periodic, so the cyclic check (indices mod n) is
    equivalent to quantifying over the infinite sequence. Constant-ish
    periods such as (0, 0) can satisfy both directions at once.
    Anything that is not a SubsequenceSpec raises ValueError.

    Both directions read the same cyclic pair sums s[j] = t[j] + t[j+1]
    mod 10: the forward recurrence holds when s[j] == t[j+2] for every j,
    the reverse one when s[j] == t[j-1]. The first term decides most
    periods alone (2,088 of the 3,540 obey neither recurrence there); the
    rest are checked whole by C-level bytes operations. A period of n
    digits is read as an n-byte big-endian int, so adding it to its
    rotation by one adds each pair of bytes with no carry, and the bytes
    of the sum, translated to their last digit, are the pair sums.
    """
    t = subsequence_period(spec)
    n = len(t)
    if (t[-1] + t[0]) % 10 != t[1] and (t[0] + t[1]) % 10 != t[-1]:
        return QuasiClass.NEITHER
    b = bytes(t)
    sums = int.from_bytes(b, "big") + int.from_bytes(b[1:] + b[:1], "big")
    pair_sums = sums.to_bytes(n, "big").translate(_LAST_DIGIT)
    forward = pair_sums == b[2:] + b[:2]
    reverse = pair_sums == b[-1:] + b[:-1]
    if forward and reverse:
        return QuasiClass.BOTH
    if forward:
        return QuasiClass.FORWARD
    if reverse:
        return QuasiClass.REVERSE
    return QuasiClass.NEITHER
