"""Deterministic SVG diagrams of the mod-10 circle, drawn from a (k, r) spec.

Output is byte-identical across runs and platforms: trigonometry runs in
double precision, every coordinate is rounded exactly once to three
decimals at serialization, and element order is fixed (circle, ticks,
labels, edges).

A scene is the whole closed walk; a step limit or a frame draws a prefix
of it, and `render_frames` makes the frames one at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .core import _spell_int, _spell_value
from .subseq import CIRCLE_POINTS, PARENT_PERIOD, _VERTEX_COUNTS, SubsequenceSpec, _require_spec

CANVAS = 600
CENTER = 300.0
CIRCLE_RADIUS = 240.0
TICK_RADIUS = 252.0
LABEL_RADIUS = 264.0

# circle index i mod 60 at position i; 60 copies reach i = 59 + 59*60, the
# last walk point any scene reads (k = 59, r = 59, 60 edges)
_CIRCLE_INDICES = tuple(range(CIRCLE_POINTS)) * CIRCLE_POINTS

_EDGE = '  <line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" stroke-width="1"/>\n'


def _angle_degrees(p: int) -> float:
    # index 0 at the top of the circle, advancing clockwise, 6 degrees apart
    return 90.0 - 6.0 * (p % CIRCLE_POINTS)


def circle_layout() -> tuple[str, tuple[tuple[str, str], ...]]:
    """The document head and the formatted (x, y) of each circle point.

    The head is everything before the first edge: header, circle, tick
    path and the 60 labels, label p showing F(p) mod 10.
    """
    radians = [math.radians(_angle_degrees(p)) for p in range(CIRCLE_POINTS)]
    # screen y grows downward, so the y component subtracts the sine
    points, tick_ends, label_spots = (
        [(f"{CENTER + radius * math.cos(a):.3f}", f"{CENTER - radius * math.sin(a):.3f}") for a in radians]
        for radius in (CIRCLE_RADIUS, TICK_RADIUS, LABEL_RADIUS)
    )
    ticks = " ".join(f"M {x1} {y1} L {x2} {y2}" for (x1, y1), (x2, y2) in zip(points, tick_ends))
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'  <circle cx="{CENTER:.3f}" cy="{CENTER:.3f}" r="{CIRCLE_RADIUS:.3f}" '
        'fill="none" stroke="blue" stroke-width="1.5"/>',
        f'  <path stroke="blue" stroke-width="1" fill="none" d="{ticks}"/>',
        *(
            f'  <text x="{x}" y="{y}" font-size="11" text-anchor="middle" '
            f'dominant-baseline="central">{label}</text>'
            for (x, y), label in zip(label_spots, PARENT_PERIOD)
        ),
    ]
    return "".join(line + "\n" for line in head), tuple(points)


def build_scene(spec: SubsequenceSpec) -> tuple[tuple[int, int], ...]:
    """Enumerate the n edges of the closed walk for (k, r).

    Edge j connects circle indices (k + r*j) mod 60 and (k + r*(j+1))
    mod 60. The walk points are one C-level slice, from k in steps of r,
    of the circle indices repeated 60 times, and each edge pairs a point
    with the next; the list between zip and tuple gives the tuple its final
    length, so it is not grown and shrunk.
    """
    _require_spec(spec)
    k, r = spec.k, spec.r
    walk = _CIRCLE_INDICES[k : k + r * (_VERTEX_COUNTS[r] + 1) : r]
    return tuple([*zip(walk, walk[1:])])


def _edge_lines(edges: tuple[tuple[int, int], ...], points: tuple[tuple[str, str], ...]) -> list[str]:
    return [_EDGE % (points[a] + points[b]) for a, b in edges]


def _document(head: str, lines: list[str]) -> bytes:
    return (head + "".join(lines) + "</svg>\n").encode("utf-8")


def render_svg(spec: SubsequenceSpec, step_limit: int | None = None) -> bytes:
    """The standalone SVG 1.1 document of the first step_limit edges of
    `build_scene(spec)`, all n by default. A bad spec, or a step_limit that
    is not an int in [1, n], raises ValueError before any layout is formatted."""
    edges = build_scene(spec)
    if step_limit is not None:
        # an exact type test, so bool (an int subclass) is refused too
        if type(step_limit) is not int:
            raise ValueError(f"step_limit must be an int, got {_spell_value(step_limit)}")
        if not 1 <= step_limit <= len(edges):
            raise ValueError(f"step_limit must be in [1, {len(edges)}], got {_spell_int(step_limit)}")
        edges = edges[:step_limit]
    head, points = circle_layout()
    return _document(head, _edge_lines(edges, points))


def render_frames(spec: SubsequenceSpec) -> Iterator[bytes]:
    """One SVG per construction step, made one at a time; frame s shows the
    first s + 1 edges, and `list(render_frames(spec))` holds them all.

    Frame s equals `render_svg(spec, step_limit=s + 1)`, and the last frame
    is the complete closed diagram, `render_svg(spec)`. Not a generator
    function: the scene, the layout and the edge lines are built once, at
    the call, so a bad spec raises ValueError here, and each step of the
    returned iterator only joins its frame's document.
    """
    edges = build_scene(spec)  # first, so a bad spec pays for no layout
    head, points = circle_layout()
    lines = _edge_lines(edges, points)
    return (_document(head, lines[: s + 1]) for s in range(len(lines)))
