import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pisano_lab import core
from pisano_lab.core import (
    MAX_LISTED_MODULUS,
    MAX_MODULUS,
    InvalidModulusError,
    antipodal_sum,
    fib_mod,
    lucas_mod,
    pisano_length,
    pisano_period,
)

from oracles import first_return_period, slow_fib, slow_pisano_length


@pytest.mark.parametrize(
    "n, m, expected",
    [
        (7, 10, 3),
        (0, 10, 0),
        (-4, 10, 7),  # F(-4) = -3
        (1, 10, 1),
        (60, 10, 0),
        (61, 10, 1),
    ],
)
def test_fib_mod_examples(n, m, expected):
    assert fib_mod(n, m) == expected


@pytest.mark.parametrize("n, m, expected", [(0, 10, 2), (1, 10, 1), (4, 10, 7)])
def test_lucas_mod_examples(n, m, expected):
    assert lucas_mod(n, m) == expected


def test_fib_mod_matches_slow_iteration():
    for m in (2, 3, 5, 7, 10, 11, 60, 97):
        for n in range(-100, 101):
            assert fib_mod(n, m) == slow_fib(n) % m, (n, m)


def test_fib_head_holds_f_0_to_32_exactly():
    assert core._FIB_HEAD == tuple(slow_fib(n) for n in range(33))


# _fib_pair reads the top five bits of n from its head table and doubles over
# the rest, so each n around a power of two moves the split of its bits
@pytest.mark.parametrize("m", [2, 10, 97, 10**12])
def test_fib_mod_matches_slow_iteration_around_powers_of_two(m):
    for k in range(13):
        for magnitude in (2**k - 1, 2**k, 2**k + 1):
            for n in (magnitude, -magnitude):
                assert fib_mod(n, m) == slow_fib(n) % m, (n, m)


def test_lucas_mod_matches_slow_iteration():
    for n in range(-50, 51):
        expected = (slow_fib(n - 1) + slow_fib(n + 1)) % 10
        assert lucas_mod(n, 10) == expected, n


@pytest.mark.parametrize("bad", [1, 0, -5, pytest.param(-(10**5000), id="-10**5000"), 10.0, 2.5, True])
def test_invalid_modulus_rejected(bad):
    with pytest.raises(InvalidModulusError):
        fib_mod(3, bad)
    with pytest.raises(InvalidModulusError):
        lucas_mod(3, bad)
    with pytest.raises(InvalidModulusError):
        pisano_period(bad)
    with pytest.raises(InvalidModulusError):
        pisano_length(bad)


@pytest.mark.parametrize("bad", [5.0, True, "5"])
def test_non_int_index_rejected(bad):
    with pytest.raises(ValueError):
        fib_mod(bad, 10)
    with pytest.raises(ValueError):
        lucas_mod(bad, 10)


@given(st.integers(-300, 300), st.integers(2, 80))
def test_recurrence_property(n, m):
    assert fib_mod(n + 2, m) == (fib_mod(n + 1, m) + fib_mod(n, m)) % m


@given(st.integers(0, 300), st.integers(2, 80))
def test_negative_index_reflection(n, m):
    sign = 1 if n % 2 == 1 else -1
    assert fib_mod(-n, m) == (sign * fib_mod(n, m)) % m


def test_pisano_period_of_2():
    assert pisano_period(2) == (0, 1, 1)


def test_pisano_lengths_match_slow_scan():
    for m in range(2, 61):
        assert pisano_length(m) == slow_pisano_length(m), m
        assert pisano_period(m) == first_return_period(m), m


def test_pisano_length_matches_first_return_scan_up_to_3000():
    for m in range(2, 3001):
        assert pisano_length(m) == len(first_return_period(m)), m


# Wall's bound at its extremes (2 * 5**k reaches 6m), high prime powers and a
# product of four of them
@pytest.mark.parametrize(
    "m", [2 * 5**k for k in range(1, 7)] + [62_500, 93_750, 3**7, 7**5, 11**4, 2**20, 2**3 * 3 * 7**2 * 13]
)
def test_pisano_length_matches_first_return_scan(m):
    assert pisano_length(m) == len(first_return_period(m))


def test_pisano_period_reaches_six_m_at_twice_a_power_of_five():
    # pi(m) <= 6m, with equality exactly at m = 2 * 5**k
    for k in range(1, 6):
        assert len(pisano_period(2 * 5**k)) == 12 * 5**k, k


# 59 and 61 do not close, which the scan's end check finds
@pytest.mark.parametrize("wrong", [59, 61])
def test_period_scan_refuses_a_length_that_does_not_close(monkeypatch, wrong):
    monkeypatch.setattr(core, "pisano_length", lambda m: wrong)
    with pytest.raises(RuntimeError, match=f"the period of m=10 .*close.* {wrong} terms"):
        pisano_period(10)


def _bound_for_10(monkeypatch, bound):
    primes = core._wall_bound(10)[1]
    monkeypatch.setattr(core, "_wall_bound", lambda m: (bound, primes))


def _verdict_for_10():
    """The refusal for m = 10 as its message, or the period it lists."""
    try:
        period = pisano_period(10)
    except RuntimeError as error:
        return str(error)
    assert period == first_return_period(10)
    return f"closes after {len(period)} terms"


# Wall's bound for m = 10 off by a factor: half of it does not close, and 7
# times it closes but has a prime outside the primes of Wall's bounds, which
# the reduction would never divide out; both are refused. Twice it closes,
# but its divisor 60 closed first, so it is reduced to the true length
@pytest.mark.parametrize(
    "wrong, message", [(30, "does not close after 30 terms"), (120, "closes after 60 terms"), (420, "outside")]
)
def test_pisano_length_certifies_the_wall_length(monkeypatch, wrong, message):
    _bound_for_10(monkeypatch, wrong)
    assert re.search(message, _verdict_for_10())


def test_pisano_length_refuses_a_modulus_above_the_cap_at_once():
    assert pisano_length(MAX_MODULUS) == 1_500_000_000_000
    start = time.perf_counter()
    for call in (pisano_length, pisano_period):
        # trial division of the prime 2**61 - 1 would take minutes; 10**5000 is
        # too long for str(), so the message names it by its bits
        for m in (2**61 - 1, 10**5000):
            with pytest.raises(ValueError, match="at most"):
                call(m)
    assert time.perf_counter() - start < 1


def test_pisano_period_refuses_a_modulus_above_the_listing_cap_at_once():
    assert len(pisano_period(MAX_LISTED_MODULUS)) == 1_500_000
    start = time.perf_counter()
    # a tuple of the 1.5 * 10**9 residues of 10**9 would exhaust memory
    with pytest.raises(ValueError, match="at most"):
        pisano_period(10**9)
    assert time.perf_counter() - start < 1


def test_pisano_period_is_minimal():
    for m in range(2, 21):
        length = len(pisano_period(m))
        for s in range(1, length):
            assert not (fib_mod(s, m) == 0 and fib_mod(s + 1, m) == 1), (m, s)


@pytest.mark.parametrize("n, expected", [(0, 0), (1, 10), (45, 0)])
def test_antipodal_sum_examples(n, expected):
    assert antipodal_sum(n) == expected


# F mod 10 has period 60 on every integer, so antipodal_sum reduces n mod 60
# first; unreduced, the first index took a third of a second
@pytest.mark.parametrize(
    "n, small",
    [(2**10**6 + 7, 2**10**6 % 60 + 7), (-(2**10**6) - 7, -(2**10**6 % 60) - 7)],
    ids=["2**10**6+7", "-2**10**6-7"],
)
def test_antipodal_sum_of_a_huge_index_equals_that_of_a_small_one(n, small):
    start = time.perf_counter()
    assert antipodal_sum(n) == antipodal_sum(small)
    assert time.perf_counter() - start < 0.1


def test_antipodal_sum_refuses_a_bool():
    with pytest.raises(ValueError):
        antipodal_sum(True)


@pytest.mark.parametrize(
    "call, n, expected", [(fib_mod, 7, 13), (fib_mod, -8, MAX_MODULUS - 21), (lucas_mod, 7, 29)]
)
def test_a_modulus_at_the_cap_is_accepted(call, n, expected):
    assert call(n, MAX_MODULUS) == expected


# a huge modulus made each doubling step quadratic in its digits: the second
# pair of arguments took 38.6 s before the cap
@pytest.mark.parametrize(
    "n, m",
    [(3, MAX_MODULUS + 1), (2**40000 - 1, 10**4000 + 7), (3, 10**5000)],
    ids=["cap+1", "2**40000-1,10**4000+7", "10**5000"],
)
def test_fib_mod_and_lucas_mod_refuse_a_modulus_above_the_cap_at_once(n, m):
    start = time.perf_counter()
    for call in (fib_mod, lucas_mod):
        with pytest.raises(InvalidModulusError, match="at most"):
            call(n, m)
    assert time.perf_counter() - start < 1


# an index of more than LONG_INDEX_BITS bits is reduced mod pisano_length(m):
# on both sides of that threshold, either sign and either parity, the value is
# the unreduced fast-doubling one; pi(2) = 3 is odd, pi(10) and pi(p) even
@pytest.mark.parametrize("m", [2, 10, 999_999_999_959])
@pytest.mark.parametrize("bits", [core.LONG_INDEX_BITS, core.LONG_INDEX_BITS + 1])
def test_fib_mod_reduces_a_long_index_exactly(bits, m):
    for magnitude in (2 ** (bits - 1) + 1, 2**bits - 2):
        value = core._fib_pair(magnitude, m)[0]
        assert fib_mod(magnitude, m) == value
        # F(-n) = (-1)**(n+1) * F(n)
        assert fib_mod(-magnitude, m) == (value if magnitude & 1 else -value % m)


def test_fib_mod_and_lucas_mod_cost_is_bounded_in_n():
    # an 8-million-bit index took about 7 s before it was reduced mod pi(m)
    n = 2 ** (8 * 10**6) - 1
    start = time.perf_counter()
    assert fib_mod(-n, 999_999_999_959) == fib_mod(-n % pisano_length(999_999_999_959), 999_999_999_959)
    assert lucas_mod(n, 10) == lucas_mod(n % 60, 10)
    assert time.perf_counter() - start < 2
