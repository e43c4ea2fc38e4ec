import math
import time
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pisano_lab.complete import brute_force_shift, compute_shift, first_zero_index
from pisano_lab.core import fib_mod
from pisano_lab.quasi import predict_quasi, verify_quasi
from pisano_lab.render import build_scene, render_frames, render_svg
from pisano_lab.subseq import (
    PARENT_PERIOD,
    DiagramType,
    SubsequenceSpec,
    dodecagon_tuple,
    is_cyclic_shift,
    pentagon_tuple,
    square_tuple,
    star_polygon,
    subsequence_period,
)

from oracles import (
    DODECAGON_TABLE,
    PARENT_PERIOD_10,
    PENTAGON_TABLE,
    SQUARE_TABLE,
    slow_cyclic_shift,
)

ALL_SPECS = [SubsequenceSpec(k=k, r=r) for k in range(60) for r in range(1, 60)]


def test_parent_period_matches_reference():
    assert PARENT_PERIOD == PARENT_PERIOD_10


@pytest.mark.parametrize(
    "k, r", [(-1, 5), (60, 5), (0, 0), (0, 60), (12, -3), (1.5, 2), (True, 2), (0, 7.0), (0, True)]
)
def test_spec_validation(k, r):
    with pytest.raises(ValueError):
        SubsequenceSpec(k=k, r=r)


@pytest.mark.parametrize(
    "entry",
    [
        subsequence_period,
        star_polygon,
        verify_quasi,
        predict_quasi,
        compute_shift,
        brute_force_shift,
        first_zero_index,
        build_scene,
        render_svg,
        render_frames,
    ],
)
@pytest.mark.parametrize(
    "fake", [SimpleNamespace(k=3590, r=1), (3, 25)], ids=["out-of-range-namespace", "tuple"]
)
def test_entry_points_refuse_a_non_spec(entry, fake):
    # a look-alike object never ran the range checks of SubsequenceSpec
    with pytest.raises(ValueError):
        entry(fake)


def test_polygon_and_prediction_do_not_read_k():
    # `sweep` makes both once per jump and uses them for all 60 start indices
    for r in range(1, 60):
        at_zero = star_polygon(SubsequenceSpec(k=0, r=r)), predict_quasi(SubsequenceSpec(k=0, r=r))
        for k in range(1, 60):
            spec = SubsequenceSpec(k=k, r=r)
            assert (star_polygon(spec), predict_quasi(spec)) == at_zero, (k, r)


@pytest.mark.parametrize(
    "k, r, n, q, diagram_type, convex",
    [
        (3, 25, 12, 5, DiagramType.TYPE2, False),
        (3, 12, 5, 1, DiagramType.TYPE1, True),
        (9, 13, 60, 13, DiagramType.TYPE3, False),
        (0, 1, 60, 1, DiagramType.TYPE3, True),
        (0, 59, 60, 59, DiagramType.TYPE3, False),
        (0, 30, 2, 1, DiagramType.TYPE1, True),
    ],
)
def test_star_polygon_examples(k, r, n, q, diagram_type, convex):
    poly = star_polygon(SubsequenceSpec(k=k, r=r))
    assert (poly.n, poly.q, poly.diagram_type, poly.convex) == (n, q, diagram_type, convex)


@pytest.mark.parametrize(
    "k, r, expected",
    [
        (3, 25, (2, 1, 3, 4, 7, 1, 8, 9, 7, 6, 3, 9)),
        (0, 30, (0, 0)),
        (3, 12, (2, 0, 8, 6, 4)),
    ],
)
def test_subsequence_period_examples(k, r, expected):
    assert subsequence_period(SubsequenceSpec(k=k, r=r)) == expected


def test_period_length_and_closure():
    for spec in ALL_SPECS:
        terms = subsequence_period(spec)
        n = 60 // math.gcd(spec.r, 60)
        assert len(terms) == n
        assert fib_mod(spec.k + spec.r * n, 10) == terms[0], spec


def test_period_terms_match_fib_mod():
    # fib_mod at every unreduced index k + r*j the specs reach, each read once
    fib = {n: fib_mod(n, 10) for n in range(59 + 59 * 59 + 1)}
    for spec in ALL_SPECS:
        for j, term in enumerate(subsequence_period(spec)):
            assert term == fib[spec.k + spec.r * j], (spec, j)


def test_square_tuples_match_published_table():
    for k, expected in SQUARE_TABLE.items():
        assert square_tuple(k) == expected, k
    # any int start, reduced onto the circle
    for k in (-7, 10**30):
        assert square_tuple(k) == tuple(fib_mod(k + 15 * j, 10) for j in range(4)), k
    for bad in (1.0, True):
        with pytest.raises(ValueError):
            square_tuple(bad)


def test_pentagon_tuples_match_published_table():
    for k, expected in PENTAGON_TABLE.items():
        assert pentagon_tuple(k) == expected, k


def test_dodecagon_tuples_match_published_table():
    for k, expected in DODECAGON_TABLE.items():
        assert dodecagon_tuple(k) == expected, k


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((1, 7, 9, 3), (9, 3, 1, 7), True),
        ((1, 7, 9, 3), (1, 9, 7, 3), False),
        ((0, 0, 0, 0), (0, 0, 0, 0), True),
        ((), (), True),
        ((1, 2), (1, 2, 1), False),
        ((-1, 2), (1, 2), False),
        ((True, 0), (0, 1), True),
        # long ints, and ints on either side of 2**64, compare by value
        ((2**10**6,), (2**10**6 + 1,), False),
        ((2**10**6, 2**10**6 + 1), (2**10**6 + 1, 2**10**6), True),
        ((2**10**6, 2**10**6 + 1), (2**10**6, 2**10**6), False),
        ((2**64 - 1, 2**64, -(2**64)), (-(2**64), 2**64 - 1, 2**64), True),
        ((2**64 - 1, 2**64), (2**64, 2**64), False),
    ],
)
def test_is_cyclic_shift_examples(a, b, expected):
    assert is_cyclic_shift(a, b) is expected


@given(st.lists(st.integers(0, 9), min_size=1, max_size=60), st.integers(0, 59))
def test_rotations_are_cyclic_shifts(values, offset):
    shift = offset % len(values)
    rotated = values[shift:] + values[:shift]
    assert is_cyclic_shift(values, rotated)
    assert is_cyclic_shift(rotated, values)


@given(st.lists(st.integers(0, 9), max_size=20), st.lists(st.integers(0, 9), max_size=20))
def test_cyclic_shifts_preserve_multisets(a, b):
    if is_cyclic_shift(a, b):
        assert sorted(a) == sorted(b)


TERMS = st.lists(st.sampled_from([-1, 0, 1, 2, False, True, 10**40]), max_size=8)


@given(TERMS, TERMS, st.integers(0, 7))
def test_is_cyclic_shift_matches_the_window_reference(a, b, offset):
    shift = offset % max(len(a), 1)
    rotated = a[shift:] + a[:shift]
    for x, y in ((a, b), (a, rotated), (rotated, b)):
        assert is_cyclic_shift(x, y) is slow_cyclic_shift(x, y), (x, y)


def test_is_cyclic_shift_answers_up_to_60_terms_and_refuses_more():
    assert is_cyclic_shift(range(60), [*range(1, 60), 0]) is True
    assert is_cyclic_shift(range(60), range(1, 61)) is False
    for a, b in ((range(61), range(61)), ((1,), range(61))):
        with pytest.raises(ValueError, match="at most 60 terms"):
            is_cyclic_shift(a, b)
    # the length is read first, so no term of a long range is read
    for a, b in ((range(10**9), (1,)), ((1,), range(10**9)), (range(10**30), (1,)), ((1,), range(10**30))):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most 60 terms"):
            is_cyclic_shift(a, b)
        assert time.perf_counter() - start < 0.01


def test_is_cyclic_shift_rejects_non_int_terms():
    for bad in ((1.0,), ("1",)):
        with pytest.raises(ValueError):
            is_cyclic_shift(bad, (1,))
    # not sequences at all
    for a, b in ((5, 5), (None, (1,)), ([1], 5)):
        with pytest.raises(ValueError, match="sequences of ints"):
            is_cyclic_shift(a, b)
