import pytest

from pisano_lab.quasi import QuasiClass, QuasiPrediction, predict_quasi, verify_quasi
from pisano_lab.subseq import SubsequenceSpec, subsequence_period


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
