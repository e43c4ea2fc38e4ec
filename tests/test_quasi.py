from collections import Counter
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pisano_lab import quasi
from pisano_lab.quasi import QuasiClass, QuasiPrediction, predict_quasi, verify_quasi
from pisano_lab.subseq import SubsequenceSpec, subsequence_period

from oracles import PARENT_PERIOD_10, slow_quasi_class


@pytest.mark.parametrize(
    "r, expected",
    [
        (25, QuasiPrediction.FORWARD),
        (23, QuasiPrediction.REVERSE),
        (9, QuasiPrediction.NO_GUARANTEE),   # divisible by 3
        (1, QuasiPrediction.FORWARD),
        (3, QuasiPrediction.NO_GUARANTEE),
        (2, QuasiPrediction.NO_GUARANTEE),   # even, outside both conditions
        (59, QuasiPrediction.REVERSE),
    ],
)
def test_predict_quasi_examples(r, expected):
    # k never matters
    for k in (0, 59):
        assert predict_quasi(SubsequenceSpec(k=k, r=r)) is expected


@pytest.mark.parametrize("bad", [0, 60, -7, 1.0, True])
def test_predict_quasi_range(bad):
    # a bare jump size is no spec, so one outside [1, 59] never reaches the prediction
    with pytest.raises(ValueError, match="expected a SubsequenceSpec"):
        predict_quasi(bad)


@pytest.mark.parametrize(
    "k, r, expected",
    [
        (3, 25, QuasiClass.FORWARD),
        (5, 15, QuasiClass.NEITHER),  # period (5, 5, 5, 5)
        (0, 30, QuasiClass.BOTH),     # period (0, 0)
        (0, 23, QuasiClass.REVERSE),
    ],
)
def test_verify_quasi_examples(k, r, expected):
    assert verify_quasi(SubsequenceSpec(k=k, r=r)) is expected


def test_verify_quasi_handles_short_periods():
    # cyclic check with wrapped indices still applies at n = 2
    spec = SubsequenceSpec(k=1, r=30)
    assert subsequence_period(spec) == (1, 9)
    assert verify_quasi(spec) is QuasiClass.NEITHER


def test_zero_five_five_period_satisfies_both():
    spec = SubsequenceSpec(k=0, r=5)
    assert subsequence_period(spec) == (0, 5, 5) * 4
    assert verify_quasi(spec) is QuasiClass.BOTH


def test_verified_class_is_cyclic_shift_invariant():
    # the recurrence classes depend on the cycle, not on where it starts:
    # starting s jumps later rotates the (3, 25) period by s terms
    spec = SubsequenceSpec(k=3, r=25)
    base, expected = subsequence_period(spec), verify_quasi(spec)
    for shift in range(1, 12):
        rotated = SubsequenceSpec(k=(3 + 25 * shift) % 60, r=25)
        assert subsequence_period(rotated) == base[shift:] + base[:shift]
        assert verify_quasi(rotated) is expected


def test_verified_class_matches_the_term_by_term_oracle_on_every_spec():
    # the periods come from the frozen parent table, not from subsequence_period;
    # they include n = 2 (r = 30) and constant periods such as (0, 0) and (5, 5, 5, 5)
    seen = Counter()
    for k in range(60):
        for r in range(1, 60):
            terms = [PARENT_PERIOD_10[(k + r * j) % 60] for j in range(60 // gcd(r, 60))]
            expected = slow_quasi_class(terms)
            assert verify_quasi(SubsequenceSpec(k=k, r=r)).value == expected, (k, r)
            seen[expected] += 1
    assert seen == {"neither": 2088, "forward": 672, "reverse": 672, "both": 108}


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=60))
def test_verified_class_matches_the_oracle_on_any_digit_cycle(terms):
    # cycles of any length and content, not only the 3,540 subsequence periods
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quasi, "subsequence_period", lambda spec: tuple(terms))
        assert verify_quasi(SubsequenceSpec(k=0, r=1)).value == slow_quasi_class(terms)
