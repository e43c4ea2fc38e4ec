import pytest
from hypothesis import given
from hypothesis import strategies as st

from pisano_lab.core import InvalidModulusError, antipodal_sum, fib_mod, lucas_mod, pisano_period

from oracles import slow_fib, slow_pisano_length


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


def test_lucas_mod_matches_slow_iteration():
    for n in range(-50, 51):
        expected = (slow_fib(n - 1) + slow_fib(n + 1)) % 10
        assert lucas_mod(n, 10) == expected, n


@pytest.mark.parametrize("bad", [1, 0, -5, 10.0, 2.5, True])
def test_invalid_modulus_rejected(bad):
    with pytest.raises(InvalidModulusError):
        fib_mod(3, bad)
    with pytest.raises(InvalidModulusError):
        lucas_mod(3, bad)
    with pytest.raises(InvalidModulusError):
        pisano_period(bad)


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
    for m in range(2, 21):
        assert len(pisano_period(m)) == slow_pisano_length(m), m


def test_pisano_period_reaches_six_m_at_twice_a_power_of_five():
    # pi(m) <= 6m, with equality exactly at m = 2 * 5**k: a scan cap one term short fails here
    for k in range(1, 6):
        assert len(pisano_period(2 * 5**k)) == 12 * 5**k, k


def test_pisano_period_is_minimal():
    for m in range(2, 21):
        length = len(pisano_period(m))
        for s in range(1, length):
            assert not (fib_mod(s, m) == 0 and fib_mod(s + 1, m) == 1), (m, s)


@pytest.mark.parametrize("n, expected", [(0, 0), (1, 10), (45, 0)])
def test_antipodal_sum_examples(n, expected):
    assert antipodal_sum(n) == expected

