"""Exact Fibonacci and Lucas arithmetic modulo m, and Pisano periods.

Everything works on plain Python ints reduced to least nonnegative
residues, so no intermediate ever grows beyond the modulus.
"""

from __future__ import annotations

import math
from typing import Collection, Iterator


class InvalidModulusError(ValueError):
    """Raised when a modulus is not an int of at least 2."""


def _require_modulus(m: int) -> None:
    # an exact type test, so bool (an int subclass) is refused too
    if type(m) is not int:
        raise InvalidModulusError(f"modulus must be an int, got {m!r}")
    if m < 2:
        raise InvalidModulusError(f"modulus must be at least 2, got {m}")


def _require_index(n: int) -> None:
    # an exact type test, so bool is refused too
    if type(n) is not int:
        raise ValueError(f"index n must be an int, got {n!r}")


def _fib_pair(n: int, m: int) -> tuple[int, int]:
    """(F(n) mod m, F(n+1) mod m) for n >= 0, by iterative fast doubling."""
    a, b = 0, 1  # F(0), F(1)
    for bit in bin(n)[2:]:
        # F(2i) = F(i) * (2*F(i+1) - F(i)),  F(2i+1) = F(i)^2 + F(i+1)^2
        even = (a * (2 * b - a)) % m
        odd = (a * a + b * b) % m
        if bit == "1":
            a, b = odd, (even + odd) % m
        else:
            a, b = even, odd
    return a, b


def fib_mod(n: int, m: int) -> int:
    """F(n) mod m for any integer n, including negative indices.

    Negative indices go through the reflection F(-n) = (-1)**(n+1) * F(n),
    so one O(log |n|) fast-doubling pass covers the whole integer line.
    """
    _require_modulus(m)
    _require_index(n)
    if n >= 0:
        return _fib_pair(n, m)[0]
    value = _fib_pair(-n, m)[0]
    return value if n % 2 == 1 else (-value) % m


def lucas_mod(n: int, m: int) -> int:
    """L(n) mod m, computed as F(n-1) + F(n+1) reduced mod m."""
    _require_modulus(m)
    _require_index(n)
    return (fib_mod(n - 1, m) + fib_mod(n + 1, m)) % m


# the largest modulus pisano_length accepts: it factors m and Wall's bound for
# each prime power by trial division, about sqrt(m) = 10**6 steps at the cap
MAX_MODULUS = 10**12

# the largest modulus whose period residues pisano_period returns and `period`
# lists; below it the longest period is that of 2 * 5**8: 4,687,500 residues
MAX_LISTED_MODULUS = 10**6


def _prime_factors(n: int) -> dict[int, int]:
    """The prime factorisation of n >= 1 as {prime: exponent}, by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _wall_length(m: int) -> tuple[int, set[int]]:
    """pi(m) by Wall's theorem, with every prime that can divide it.

    pi(m) is the lcm of pi(p**e) over the prime powers of m (Wall 1960).
    For each, Wall's theorem bounds it by a multiple: pi(2) = 3, pi(5) = 20,
    pi(p) divides p - 1 when p = +-1 (mod 5) and 2(p + 1) when p = +-2
    (mod 5), and pi(p**e) divides p**(e-1) * pi(p). The bound is reduced to
    the true order by dividing out each of its prime factors while
    (F(d), F(d+1)) stays (0, 1) mod p**e. The primes of every bound, each p
    and the primes of its base, hold the primes of the length.
    """
    length, primes = 1, set()
    for p, e in _prime_factors(m).items():
        power = p**e
        base = 3 if p == 2 else 20 if p == 5 else p - 1 if p % 5 in (1, 4) else 2 * (p + 1)
        order = p ** (e - 1) * base
        bound_primes = {p, *_prime_factors(base)}
        for q in bound_primes:
            while order % q == 0 and _fib_pair(order // q, power) == (0, 1):
                order //= q
        length = math.lcm(length, order)
        primes |= bound_primes
    return length, primes


def _certify_length(m: int, length: int, primes: Collection[int]) -> None:
    """Raise RuntimeError unless length is pi(m), the first return of the pair (0, 1).

    primes must hold every prime factor of length. The pair must come back
    after length terms and, for no prime q of length, after length / q
    terms; that proves the length least without Wall's theorem.
    """
    rest = length
    for q in primes:
        if length % q == 0 and _fib_pair(length // q, m) == (0, 1):
            raise RuntimeError(f"the period of m={m} closes after {length // q} terms, before {length} terms")
        while rest % q == 0:
            rest //= q
    if rest != 1:
        raise RuntimeError(f"the length {length} for m={m} has a prime factor outside {sorted(primes)}")
    if _fib_pair(length, m) != (0, 1):
        raise RuntimeError(f"the period of m={m} does not close after {length} terms")


def pisano_length(m: int) -> int:
    """The length pi(m) of the Pisano period modulo m, without scanning it.

    The length comes from Wall's theorem and is certified before it is
    returned: a length that is not the least period of m, a program bug,
    raises RuntimeError. Refuses a modulus above MAX_MODULUS with
    ValueError, as trial division would run too long.
    """
    _require_modulus(m)
    if m > MAX_MODULUS:
        raise ValueError(f"modulus must be at most {MAX_MODULUS} for a period length, got {m}")
    length, primes = _wall_length(m)
    _certify_length(m, length, primes)
    return length


def _period_residues(m: int, length: int) -> Iterator[int]:
    """F(0) .. F(length-1) mod m, one at a time, for length = pisano_length(m).

    Before the first residue the length is certified again, over its own
    primes, and after the last one the scan checks that the recurrence
    closes too: a length that is not the least period, a program bug,
    raises RuntimeError.
    """
    _certify_length(m, length, _prime_factors(length))
    a, b = 0, 1  # F(i), F(i+1)
    for _ in range(length):
        yield a
        a, b = b, (a + b) % m
    if a != 0 or b != 1:
        raise RuntimeError(f"the period of m={m} does not close after {length} terms")


def pisano_period(m: int) -> tuple[int, ...]:
    """One full period of the Fibonacci sequence modulo m: F(0) .. F(len-1) mod m.

    The length is pisano_length(m), the first return of the adjacent pair
    (0, 1), so the period is minimal and starts with 0, 1; it has at most
    6m terms (Freyd and Brown 1992). A modulus above MAX_LISTED_MODULUS is
    refused with ValueError, as its tuple could hold billions of residues.
    """
    _require_modulus(m)
    if m > MAX_LISTED_MODULUS:
        raise ValueError(f"modulus must be at most {MAX_LISTED_MODULUS} for a listed period, got {m}")
    return tuple(_period_residues(m, pisano_length(m)))


def antipodal_sum(n: int) -> int:
    """F(n) mod 10 plus F(n+30) mod 10, as an unreduced integer.

    The sum is 0 when 15 divides n and 10 otherwise; reducing mod 10
    would collapse exactly the distinction this exposes.
    """
    return fib_mod(n, 10) + fib_mod(n + 30, 10)
