"""Exact Fibonacci and Lucas arithmetic modulo m, and Pisano periods.

Everything works on plain Python ints reduced to least nonnegative
residues, so no intermediate ever grows beyond the modulus.
"""

from __future__ import annotations


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


def pisano_period(m: int) -> tuple[int, ...]:
    """One full period of the Fibonacci sequence modulo m: F(0) .. F(len-1) mod m.

    Scans for the first recurrence of the adjacent pair (0, 1), so the
    length is minimal and the residues start with 0, 1. The period
    has at most 6m terms, with equality exactly when m = 2 * 5**k, k >= 1
    (Freyd and Brown 1992), so the cap below can only fire on an
    implementation bug, and then after at most 6m residues.
    """
    _require_modulus(m)
    residues = []
    append = residues.append
    a, b = 0, 1  # F(i), F(i+1)
    for _ in range(6 * m):
        append(a)
        a, b = b, (a + b) % m
        if a == 0 and b == 1:
            break
    else:
        raise RuntimeError("period scan exceeded the bound of 6m terms")
    return tuple(residues)


def antipodal_sum(n: int) -> int:
    """F(n) mod 10 plus F(n+30) mod 10, as an unreduced integer.

    The sum is 0 when 15 divides n and 10 otherwise; reducing mod 10
    would collapse exactly the distinction this exposes.
    """
    return fib_mod(n, 10) + fib_mod(n + 30, 10)
