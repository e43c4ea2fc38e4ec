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
    index_log,
    unit_group,
)
from pisano_lab.core import InvalidModulusError
from pisano_lab.subseq import SubsequenceSpec, parent_period, subsequence_period

from oracles import EXAMPLE_PERIOD_9_13

UNITS_60 = unit_group(60).elements


def test_unit_group_of_2():
    group = unit_group(2)
    assert group.elements == (1,)
    assert group.order == 1
    assert group.inverse == {1: 1}
    # a frozen result holds a read-only table
    with pytest.raises(TypeError):
        group.inverse[1] = 0


def test_unit_group_inverse_properties():
    for n in range(2, 40):
        group = unit_group(n)
        assert group.order == len(group.elements)
        for u in group.elements:
            v = group.inverse[u]
            assert (u * v) % n == 1, (n, u)
            assert group.inverse[v] == u, (n, u)


def test_unit_group_rejects_bad_modulus():
    with pytest.raises(InvalidModulusError):
        unit_group(1)


def test_unit_group_is_capped():
    # pinned by value, so moving the documented cap of 10,000 fails here
    assert unit_group(10_000).order == 4000
    with pytest.raises(ValueError, match="only for n <="):
        unit_group(10_001)


@pytest.mark.parametrize("u, expected", [(1, 0), (3, 1), (9, 2), (7, 3)])
def test_index_log_examples(u, expected):
    assert index_log(u) == expected
    assert pow(3, expected, 10) == u


@pytest.mark.parametrize("bad", [0, 2, 5, 10, 13, -3, True, 1.0, 9.0])
def test_index_log_rejects_non_units(bad):
    with pytest.raises(NotAUnitError):
        index_log(bad)


@pytest.mark.parametrize("k, r, expected", [(9, 13, 12), (3, 7, 6), (0, 7, 0), (0, 59, 0)])
def test_first_zero_examples(k, r, expected):
    assert first_zero_index(k, r) == expected


@pytest.mark.parametrize("bad_r", [2, 6, 15, 60, 0, 1.0, True])
def test_non_units_rejected(bad_r):
    with pytest.raises(NotAUnitError):
        first_zero_index(0, bad_r)
    with pytest.raises(NotAUnitError):
        compute_shift(0, bad_r)
    with pytest.raises(NotAUnitError):
        brute_force_shift(0, bad_r)


def test_start_index_range_checked():
    with pytest.raises(ValueError):
        compute_shift(60, 13)
    with pytest.raises(ValueError):
        first_zero_index(-1, 13)
    for bad_k in (1.0, True):
        with pytest.raises(ValueError):
            compute_shift(bad_k, 7)
        with pytest.raises(ValueError):
            first_zero_index(bad_k, 7)


def test_worked_example_certificate():
    cert = compute_shift(9, 13)
    assert cert.unit_digit == 3
    assert cert.log_index == 1
    assert cert.zero_vertex == 15
    assert cert.restart_index == 42
    assert cert.first_zero == 12
    assert cert.direction is ShiftDirection.FORWARD
    assert cert.shift == 18


def test_parent_alignment_examples():
    cert = compute_shift(15, 13)
    assert (cert.restart_index, cert.shift, cert.direction) == (0, 0, ShiftDirection.FORWARD)
    cert = compute_shift(0, 1)
    assert (cert.unit_digit, cert.log_index, cert.zero_vertex) == (1, 0, 0)
    assert (cert.restart_index, cert.shift, cert.direction) == (0, 0, ShiftDirection.FORWARD)


def test_worked_example_period_and_shift():
    terms = subsequence_period(SubsequenceSpec(k=9, r=13))
    assert terms == EXAMPLE_PERIOD_9_13
    parent = parent_period()
    assert terms == parent[18:] + parent[:18]


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
    assert brute_force_shift(k, r) == expected


def test_certificate_invariants_hold_everywhere():
    for k in range(60):
        for r in UNITS_60:
            cert = compute_shift(k, r)
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
        brute_force_shift(0, 13)


def test_oracle_failure_on_several_alignments(monkeypatch):
    # a 30-periodic table puts two windows of the same terms in each direction
    table = parent_period()[:30] * 2
    monkeypatch.setattr(complete, "parent_period", lambda: table)
    monkeypatch.setattr(complete, "subsequence_period", lambda spec: table)
    with pytest.raises(OracleFailureError, match="found 2"):
        brute_force_shift(0, 13)


def test_units_60_fixture_is_really_u60():
    assert UNITS_60 == tuple(r for r in range(1, 60) if math.gcd(r, 60) == 1)
