"""Frozen reference data and independent oracles shared by the tests.

The tables here were transcribed by hand from published brute-force
listings; the oracles recompute things by the most naive route available
(plain big-integer iteration, window-by-window comparison) so they share
no code path with the implementations they check.
"""

from __future__ import annotations

# fmt: off
# F(0) .. F(59) reduced mod 10, one full parent period.
PARENT_PERIOD_10 = (
    0, 1, 1, 2, 3, 5, 8, 3, 1, 4, 5, 9, 4, 3, 7, 0,
    7, 7, 4, 1, 5, 6, 1, 7, 8, 5, 3, 8, 1, 9, 0,
    9, 9, 8, 7, 5, 2, 7, 9, 6, 5, 1, 6, 7, 3, 0,
    3, 3, 6, 9, 5, 4, 9, 3, 2, 5, 7, 2, 9, 1,
)

# One full period of the Fibonacci sequence mod 8.
PERIOD_MOD_8 = (0, 1, 1, 2, 3, 5, 0, 5, 5, 2, 7, 1)

# One full period of the Lucas sequence mod 10.
LUCAS_PERIOD_10 = (2, 1, 3, 4, 7, 1, 8, 9, 7, 6, 3, 9)

# Published jump-15 tuples for start indices 0 .. 14.
SQUARE_TABLE = {
    0: (0, 0, 0, 0), 1: (1, 7, 9, 3), 2: (1, 7, 9, 3), 3: (2, 4, 8, 6),
    4: (3, 1, 7, 9), 5: (5, 5, 5, 5), 6: (8, 6, 2, 4), 7: (3, 1, 7, 9),
    8: (1, 7, 9, 3), 9: (4, 8, 6, 2), 10: (5, 5, 5, 5), 11: (9, 3, 1, 7),
    12: (4, 8, 6, 2), 13: (3, 1, 7, 9), 14: (7, 9, 3, 1),
}

# Published jump-12 tuples for start indices 0 .. 11.
PENTAGON_TABLE = {
    0: (0, 4, 8, 2, 6), 1: (1, 3, 5, 7, 9), 2: (1, 7, 3, 9, 5),
    3: (2, 0, 8, 6, 4), 4: (3, 7, 1, 5, 9), 5: (5, 7, 9, 1, 3),
    6: (8, 4, 0, 6, 2), 7: (3, 1, 9, 7, 5), 8: (1, 5, 9, 3, 7),
    9: (4, 6, 8, 0, 2), 10: (5, 1, 7, 3, 9), 11: (9, 7, 5, 3, 1),
}

# Published jump-5 tuples for start indices 0 .. 4.
DODECAGON_TABLE = {
    0: (0, 5, 5, 0, 5, 5, 0, 5, 5, 0, 5, 5),
    1: (1, 8, 9, 7, 6, 3, 9, 2, 1, 3, 4, 7),
    2: (1, 3, 4, 7, 1, 8, 9, 7, 6, 3, 9, 2),
    3: (2, 1, 3, 4, 7, 1, 8, 9, 7, 6, 3, 9),
    4: (3, 4, 7, 1, 8, 9, 7, 6, 3, 9, 2, 1),
}

# The published 60-term period of the (k=9, r=13) subsequence.
EXAMPLE_PERIOD_9_13 = (
    4, 1, 5, 6, 1, 7, 8, 5, 3, 8, 1, 9, 0, 9, 9, 8, 7, 5, 2, 7,
    9, 6, 5, 1, 6, 7, 3, 0, 3, 3, 6, 9, 5, 4, 9, 3, 2, 5, 7, 2,
    9, 1, 0, 1, 1, 2, 3, 5, 8, 3, 1, 4, 5, 9, 4, 3, 7, 0, 7, 7,
)

# Vertex labels met by the (k=3, r=25) walk, including the closing return.
EXAMPLE_WALK_3_25 = (2, 1, 3, 4, 7, 1, 8, 9, 7, 6, 3, 9, 2)
# fmt: on


def slow_fib(n: int) -> int:
    """Signed big-integer Fibonacci by plain iteration."""
    a, b = 0, 1
    if n >= 0:
        for _ in range(n):
            a, b = b, a + b
    else:
        for _ in range(-n):
            a, b = b - a, a
    return a


def slow_pisano_length(m: int) -> int:
    """First index restarting the mod-m sequence with the pair 0, 1.

    Works on unreduced big-integer Fibonacci values, so it shares nothing
    with the pair-scanning implementation.
    """
    a, b = 0, 1
    r = 1
    while True:
        a, b = b, a + b
        if a % m == 0 and b % m == 1:
            return r
        r += 1


def first_return_period(m: int) -> tuple[int, ...]:
    """One period of the Fibonacci sequence mod m, F(0) .. F(len-1), scanned
    pair by pair up to the first return of the pair (0, 1).

    The period has at most 6m terms (Freyd and Brown 1992), so the scan
    stops there with RuntimeError.
    """
    residues = []
    a, b = 0, 1  # F(i), F(i+1)
    for _ in range(6 * m):
        residues.append(a)
        a, b = b, (a + b) % m
        if a == 0 and b == 1:
            return tuple(residues)
    raise RuntimeError("period scan exceeded the bound of 6m terms")


def slow_quasi_class(terms) -> str:
    """Which recurrences the cyclic sequence `terms` obeys mod 10, as a
    QuasiClass value: forward when t[j+1] = t[j-1] + t[j] at every j, reverse
    when t[j-1] = t[j] + t[j+1] at every j, indices mod n, checked term by
    term."""
    n = len(terms)
    forward = all((terms[j - 1] + terms[j]) % 10 == terms[(j + 1) % n] for j in range(n))
    reverse = all((terms[j] + terms[(j + 1) % n]) % 10 == terms[j - 1] for j in range(n))
    return {(True, True): "both", (True, False): "forward", (False, True): "reverse"}.get((forward, reverse), "neither")


def slow_cyclic_shift(a, b) -> bool:
    """True when b is a rotation of a, by comparing b with every window of a + a."""
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    doubled = tuple(a) + tuple(a)
    target = tuple(b)
    return any(doubled[s : s + len(a)] == target for s in range(len(a)))
