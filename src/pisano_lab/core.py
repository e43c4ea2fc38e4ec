"""Exact Fibonacci and Lucas arithmetic modulo m, and Pisano periods.

Everything works on plain Python ints reduced to least nonnegative
residues, so no intermediate ever grows beyond the modulus.
"""

from __future__ import annotations

import math
from collections.abc import Iterator


class InvalidModulusError(ValueError):
    """Raised when a modulus is not an int of at least 2 and at most MAX_MODULUS."""


# the largest modulus any function here accepts; pisano_length factors m and
# Wall's bound for each prime power by trial division, about sqrt(m) = 10**6
# steps at the cap, and each fast-doubling step works on ints below 10**25,
# so the cost of fib_mod is linear in the bits of n up to LONG_INDEX_BITS
MAX_MODULUS = 10**12

# fib_mod reduces an index of more bits than this mod pisano_length(m) first,
# so no index costs more than one pisano_length or a pass over this many bits
LONG_INDEX_BITS = 100_000

# the largest modulus whose period residues pisano_period returns and `period`
# lists; below it the longest period is that of 2 * 5**8: 4,687,500 residues
MAX_LISTED_MODULUS = 10**6


def _spell_int(n: int) -> str:
    # str() refuses an int of more than 4300 digits, so one of over 10,000 bits is named by its bits
    return str(n) if n.bit_length() <= 10_000 else f"an int of {n.bit_length()} bits"


def _spell_value(value: object) -> str:
    # repr() of an int, or of an int subclass, is int's str(): a long one is named by its bits and type
    if isinstance(value, int) and value.bit_length() > 10_000:
        return f"{_spell_int(value)} of type {type(value).__name__}"
    return repr(value)


def _require_modulus(m: int) -> None:
    # an exact type test, so bool (an int subclass) is refused too
    if type(m) is not int:
        raise InvalidModulusError(f"modulus must be an int, got {_spell_value(m)}")
    if m < 2:
        raise InvalidModulusError(f"modulus must be at least 2, got {_spell_int(m)}")
    if m > MAX_MODULUS:
        raise InvalidModulusError(f"modulus must be at most {MAX_MODULUS}, got {_spell_int(m)}")


def _require_index(n: int) -> None:
    # an exact type test, so bool is refused too
    if type(n) is not int:
        raise ValueError(f"index n must be an int, got {_spell_value(n)}")


# F(0) .. F(256), exact: fib_mod reads an |n| of at most 256 here with no
# doubling step, and _fib_pair reads the pair the top eight bits of a larger n
# name, so it takes eight fewer steps
_FIB_HEAD = [0, 1]
while len(_FIB_HEAD) <= 256:
    _FIB_HEAD.append(_FIB_HEAD[-2] + _FIB_HEAD[-1])
_FIB_HEAD = tuple(_FIB_HEAD)


def _fib_pair(n: int, m: int) -> tuple[int, int]:
    """(F(n) mod m, F(n+1) mod m) for n >= 0 and m >= 2, by iterative fast doubling."""
    rest = bin(n)[10:]  # the bits of n below its top eight
    head = n >> len(rest)
    a, b = _FIB_HEAD[head] % m, _FIB_HEAD[head + 1] % m
    for bit in rest:
        # F(2i) = F(i) * (2*F(i+1) - F(i)),  F(2i+1) = F(i)^2 + F(i+1)^2
        even = (a * (2 * b - a)) % m
        odd = (a * a + b * b) % m
        if bit == "1":
            a, b = odd, (even + odd) % m
        else:
            a, b = even, odd
    return a, b


def fib_mod(n: int, m: int) -> int:
    """F(n) mod m for any integer n, including negative indices, and 2 <= m <= MAX_MODULUS.

    Negative indices go through the reflection F(-n) = (-1)**(n+1) * F(n).
    An |n| of at most 256 is one lookup of the exact F(|n|), reduced mod m;
    a larger |n| takes one O(log |n|) fast-doubling pass. An n of more
    than LONG_INDEX_BITS bits is first reduced mod pisano_length(m), which
    is exact, as F mod m repeats every pi(m) terms on the whole integer
    line. So no n costs more than one pisano_length or one pass over
    LONG_INDEX_BITS bits at m near MAX_MODULUS: at most about 0.12 s on a
    shared 2-vCPU VM, whatever n is. A modulus above MAX_MODULUS raises
    InvalidModulusError.
    """
    # the guards call out only on a bad argument: verify makes 17,224 calls
    if type(m) is not int or m < 2 or m > MAX_MODULUS:
        _require_modulus(m)
    if type(n) is not int:
        _require_index(n)
    if 0 <= n < 257:  # 257 = len(_FIB_HEAD)
        return _FIB_HEAD[n] % m
    if -257 < n < 0:
        return (_FIB_HEAD[-n] if n & 1 else -_FIB_HEAD[-n]) % m
    if n.bit_length() > LONG_INDEX_BITS:
        n %= pisano_length(m)  # nonnegative, so the reflection below is skipped
    if n >= 0:
        return _fib_pair(n, m)[0]
    value = _fib_pair(-n, m)[0]
    return value if n & 1 else -value % m


def lucas_mod(n: int, m: int) -> int:
    """L(n) mod m for 2 <= m <= MAX_MODULUS, computed as F(n-1) + F(n+1) reduced mod m,
    so it costs at most two fib_mod calls."""
    _require_index(n)  # before n - 1, which would turn a bool into an int; fib_mod checks m
    return (fib_mod(n - 1, m) + fib_mod(n + 1, m)) % m


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


def _wall_bound(m: int) -> tuple[int, set[int]]:
    """A multiple of pi(m) by Wall's theorem, with every prime that can divide it.

    pi(m) is the lcm of pi(p**e) over the prime powers of m (Wall 1960).
    For each, Wall's theorem bounds it by a multiple: pi(2) = 3, pi(5) = 20,
    pi(p) divides p - 1 when p = +-1 (mod 5) and 2(p + 1) when p = +-2
    (mod 5), and pi(p**e) divides p**(e-1) * pi(p). The bound is the lcm of
    these multiples; the primes of every multiple, each p and the primes of
    its base, hold the primes of the bound.
    """
    bound, primes = 1, set()
    for p, e in _prime_factors(m).items():
        base = 3 if p == 2 else 20 if p == 5 else p - 1 if p % 5 in (1, 4) else 2 * (p + 1)
        bound = math.lcm(bound, p ** (e - 1) * base)
        primes |= {p, *_prime_factors(base)}
    return bound, primes


def pisano_length(m: int) -> int:
    """The length pi(m) of the Pisano period modulo m, without scanning it.

    Wall's bound must be a period of m: (F(L), F(L+1)) = (0, 1) mod m, with
    every prime of L in the primes of Wall's bound; a bound that is not, a
    program bug, raises RuntimeError. Each of its primes q is then divided
    out while the quotient stays a period. Every period is a multiple of
    the least one, so the result, a period that no prime divides down to
    another, is pi(m). Refuses a modulus above MAX_MODULUS with
    InvalidModulusError, as trial division would run too long.
    """
    _require_modulus(m)
    length, primes = _wall_bound(m)
    rest = length
    for q in primes:
        while rest % q == 0:
            rest //= q
    if rest != 1:
        raise RuntimeError(f"the length {length} for m={m} has a prime factor outside {sorted(primes)}")
    if _fib_pair(length, m) != (0, 1):
        raise RuntimeError(f"the period of m={m} does not close after {length} terms")
    for q in primes:
        while length % q == 0 and _fib_pair(length // q, m) == (0, 1):
            length //= q
    return length


def _period_residues(m: int, length: int) -> Iterator[int]:
    """F(0) .. F(length-1) mod m, one at a time, for length = pisano_length(m).

    pisano_length has checked the length at m; after the last residue the
    scan checks that the recurrence closes too, so a length that does not
    close, a program bug, raises RuntimeError.
    """
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
    would collapse exactly the distinction this exposes. F mod 10 has
    period 60 on every integer, negative ones included, so n is reduced
    mod 60 first and the cost does not grow with n.
    """
    _require_index(n)
    n %= 60
    return fib_mod(n, 10) + fib_mod(n + 30, 10)
