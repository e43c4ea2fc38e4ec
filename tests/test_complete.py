import math

import pytest

from pisano_lab import complete
from pisano_lab.complete import (
    NotAUnitError,
    OracleFailureError,
    ShiftDirection,
    brute_force_shift,
    compute_shift,
    first_zero_index,
    unit_group,
)
from pisano_lab.core import InvalidModulusError
from pisano_lab.subseq import PARENT_PERIOD, SubsequenceSpec, subsequence_period

from oracles import EXAMPLE_PERIOD_9_13

UNITS_60 = tuple(unit_group(60))


def test_unit_group_of_2():
    inverse = unit_group(2)
    assert inverse == {1: 1}
    # the table is read-only
    with pytest.raises(TypeError):
        inverse[1] = 0


def test_unit_group_inverse_properties():
    for n in range(2, 40):
        inverse = unit_group(n)
        # the keys are the units in increasing order, which fixes the first
        # counterexample each unit-jump check reports
        assert list(inverse) == [u for u in range(1, n) if math.gcd(u, n) == 1], n
        for u, v in inverse.items():
            assert (u * v) % n == 1, (n, u)
            assert inverse[v] == u, (n, u)


def test_unit_group_rejects_bad_modulus():
    with pytest.raises(InvalidModulusError):
        unit_group(1)


def test_unit_group_is_capped():
    # pinned by value, so moving the documented cap of 10,000 fails here
    assert len(unit_group(10_000)) == 4000
    with pytest.raises(ValueError, match="only for n <="):
        unit_group(10_001)


@pytest.mark.parametrize("k, r, expected", [(9, 13, 12), (3, 7, 6), (0, 7, 0), (0, 59, 0)])
def test_first_zero_examples(k, r, expected):
    assert first_zero_index(SubsequenceSpec(k=k, r=r)) == expected


# a jump outside [1, 59], or not an int, makes no SubsequenceSpec (test_spec_validation)
@pytest.mark.parametrize("bad_r", [2, 6, 15])
def test_non_units_rejected(bad_r):
    spec = SubsequenceSpec(k=0, r=bad_r)
    for entry in (first_zero_index, compute_shift, brute_force_shift):
        with pytest.raises(NotAUnitError, match=f"jump size {bad_r} is not an element of U"):
            entry(spec)


def test_worked_example_certificate():
    cert = compute_shift(SubsequenceSpec(k=9, r=13))
    assert cert.unit_digit == 3
    assert cert.log_index == 1
    assert cert.zero_vertex == 15
    assert cert.restart_index == 42
    assert cert.first_zero == 12
    assert cert.direction is ShiftDirection.FORWARD
    assert cert.shift == 18


def test_parent_alignment_examples():
    cert = compute_shift(SubsequenceSpec(k=15, r=13))
    assert (cert.restart_index, cert.shift, cert.direction) == (0, 0, ShiftDirection.FORWARD)
    cert = compute_shift(SubsequenceSpec(k=0, r=1))
    assert (cert.unit_digit, cert.log_index, cert.zero_vertex) == (1, 0, 0)
    assert (cert.restart_index, cert.shift, cert.direction) == (0, 0, ShiftDirection.FORWARD)


def test_worked_example_period_and_shift():
    terms = subsequence_period(SubsequenceSpec(k=9, r=13))
    assert terms == EXAMPLE_PERIOD_9_13
    assert terms == PARENT_PERIOD[18:] + PARENT_PERIOD[:18]


@pytest.mark.parametrize(
    "k, r, expected",
    [
        (9, 13, (ShiftDirection.FORWARD, 18)),
        (0, 59, (ShiftDirection.REVERSE, 0)),
        (0, 1, (ShiftDirection.FORWARD, 0)),
        (15, 13, (ShiftDirection.FORWARD, 0)),
    ],
)
def test_brute_force_examples(k, r, expected):
    assert brute_force_shift(SubsequenceSpec(k=k, r=r)) == expected


def test_certificate_invariants_hold_everywhere():
    for k in range(60):
        for r in UNITS_60:
            cert = compute_shift(SubsequenceSpec(k=k, r=r))
            assert cert.unit_digit in (1, 3, 7, 9)
            expected_digit = r % 10 if r % 4 == 1 else (-r) % 10
            assert cert.unit_digit == expected_digit
            assert pow(3, cert.log_index, 10) == cert.unit_digit
            assert cert.zero_vertex == 15 * cert.log_index
            assert (k + r * cert.restart_index) % 60 == cert.zero_vertex % 60
            assert (k + r * cert.first_zero) % 15 == 0
            assert (cert.direction is ShiftDirection.FORWARD) == (r % 4 == 1)
            if cert.direction is ShiftDirection.FORWARD:
                assert cert.shift == (60 - cert.restart_index) % 60
            else:
                assert cert.shift == cert.restart_index
            assert 0 <= cert.shift <= 59


def test_oracle_failure_without_an_alignment(monkeypatch):
    # constant terms cannot match the parent period in either direction;
    # only the oracle's term source is patched, not the parent table
    monkeypatch.setattr(complete, "subsequence_period", lambda spec: (0,) * 60)
    with pytest.raises(OracleFailureError):
        brute_force_shift(SubsequenceSpec(k=0, r=13))


def test_oracle_failure_on_several_alignments(monkeypatch):
    # a 30-periodic table puts two windows of the same terms in each direction
    table = PARENT_PERIOD[:30] * 2
    monkeypatch.setattr(complete, "PARENT_PERIOD", table)
    monkeypatch.setattr(complete, "subsequence_period", lambda spec: table)
    with pytest.raises(OracleFailureError, match="found 2"):
        brute_force_shift(SubsequenceSpec(k=0, r=13))


def test_units_60_fixture_is_really_u60():
    assert UNITS_60 == tuple(r for r in range(1, 60) if math.gcd(r, 60) == 1)
