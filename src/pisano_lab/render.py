"""Deterministic SVG diagrams of the mod-10 circle and its subsequences.

Output is byte-identical across runs and platforms: trigonometry runs in
double precision, every coordinate is rounded exactly once to three
decimals at serialization, and element order is fixed (circle, ticks,
labels, edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .subseq import CIRCLE_POINTS, SubsequenceSpec, parent_period, star_polygon

CANVAS = 600
CENTER = 300.0
CIRCLE_RADIUS = 240.0
TICK_RADIUS = 252.0
LABEL_RADIUS = 264.0

# circle index i mod 60 at position i; 60 copies reach i = 59 + 59*60, the
# last walk point any scene reads (k = 59, r = 59, 60 edges)
_CIRCLE_INDICES = tuple(range(CIRCLE_POINTS)) * CIRCLE_POINTS


def _angle_degrees(p: int) -> float:
    # index 0 at the top of the circle, advancing clockwise, 6 degrees apart
    return 90.0 - 6.0 * (p % CIRCLE_POINTS)


@dataclass(frozen=True)
class CircleLayout:
    """Positions and labels of the 60 circle points."""

    labels: tuple[int, ...]

    def point(self, p: int, radius: float = CIRCLE_RADIUS) -> tuple[float, float]:
        """Screen coordinates of circle index p at the given radius.

        Screen y grows downward, so the y component subtracts the sine.
        """
        rad = math.radians(_angle_degrees(p))
        return (CENTER + radius * math.cos(rad), CENTER - radius * math.sin(rad))


def circle_layout() -> CircleLayout:
    """The standard layout: label p shows F(p) mod 10."""
    return CircleLayout(labels=parent_period())


@dataclass(frozen=True)
class DiagramScene:
    """The walk edges of one subsequence diagram."""

    spec: SubsequenceSpec
    edges: tuple[tuple[int, int], ...]


def build_scene(spec: SubsequenceSpec, step_limit: int | None = None) -> DiagramScene:
    """Enumerate the walk edges for (k, r); all n closing edges by default.

    Edge j connects circle indices (k + r*j) mod 60 and (k + r*(j+1))
    mod 60. The walk points are one C-level slice, from k in steps of r,
    of the circle indices repeated 60 times, and each edge pairs a point
    with the next. A step_limit in [1, n] keeps only the first edges, as
    in the step-by-step construction frames; any other step_limit, or one
    that is not an int, raises ValueError.
    """
    n = star_polygon(spec).n
    if step_limit is not None:
        # an exact type test, so bool (an int subclass) is refused too
        if type(step_limit) is not int:
            raise ValueError(f"step_limit must be an int, got {step_limit!r}")
        if not 1 <= step_limit <= n:
            raise ValueError(f"step_limit must be in [1, {n}], got {step_limit}")
    count = n if step_limit is None else step_limit
    k, r = spec.k, spec.r
    walk = _CIRCLE_INDICES[k : k + r * (count + 1) : r]
    return DiagramScene(spec=spec, edges=tuple(zip(walk, walk[1:])))


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def render_svg(scene: DiagramScene) -> bytes:
    """Serialize a scene to a standalone SVG 1.1 document.

    Anything that is not a DiagramScene raises ValueError.
    """
    # a look-alike scene may draw edges to points off the circle
    if not isinstance(scene, DiagramScene):
        raise ValueError(f"expected a DiagramScene, got {scene!r}")
    layout = circle_layout()
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'  <circle cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{_fmt(CIRCLE_RADIUS)}" '
        'fill="none" stroke="blue" stroke-width="1.5"/>',
    ]
    ticks = []
    for p in range(CIRCLE_POINTS):
        x1, y1 = layout.point(p)
        x2, y2 = layout.point(p, TICK_RADIUS)
        ticks.append(f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}")
    lines.append(f'  <path stroke="blue" stroke-width="1" fill="none" d="{" ".join(ticks)}"/>')
    for p in range(CIRCLE_POINTS):
        x, y = layout.point(p, LABEL_RADIUS)
        lines.append(
            f'  <text x="{_fmt(x)}" y="{_fmt(y)}" font-size="11" text-anchor="middle" '
            f'dominant-baseline="central">{layout.labels[p]}</text>'
        )
    for a, b in scene.edges:
        x1, y1 = layout.point(a)
        x2, y2 = layout.point(b)
        lines.append(
            f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="black" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_frames(spec: SubsequenceSpec) -> list[bytes]:
    """One SVG per construction step; frame s shows the first s + 1 edges.

    The last frame is the complete closed diagram, byte-identical to
    rendering the full scene.
    """
    n = star_polygon(spec).n
    return [render_svg(build_scene(spec, step_limit=s + 1)) for s in range(n)]
