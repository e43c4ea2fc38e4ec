import pytest

from pisano_lab.quasi import QuasiClass, QuasiPrediction, predict_quasi, verify_quasi
from pisano_lab.subseq import SubsequencePeriod, SubsequenceSpec, subsequence_period


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
    assert predict_quasi(r) is expected


@pytest.mark.parametrize("bad", [0, 60, -7, 1.0, True])
def test_predict_quasi_range(bad):
    with pytest.raises(ValueError):
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
    assert verify_quasi(subsequence_period(SubsequenceSpec(k=k, r=r))) is expected


def test_verify_quasi_handles_short_periods():
    # cyclic check with wrapped indices still applies at n = 2
    period = subsequence_period(SubsequenceSpec(k=1, r=30))  # terms (1, 9)
    assert period.terms == (1, 9)
    assert verify_quasi(period) is QuasiClass.NEITHER


def test_zero_five_five_period_satisfies_both():
    period = subsequence_period(SubsequenceSpec(k=0, r=5))
    assert period.terms == (0, 5, 5) * 4
    assert verify_quasi(period) is QuasiClass.BOTH


def test_verified_class_is_cyclic_shift_invariant():
    # the recurrence classes depend on the cycle, not on where it starts
    base = subsequence_period(SubsequenceSpec(k=3, r=25))
    for shift in range(1, 12):
        rotated = SubsequencePeriod(
            spec=base.spec, terms=base.terms[shift:] + base.terms[:shift]
        )
        assert verify_quasi(rotated) is verify_quasi(base)
