import math
import re

import pytest

from pisano_lab.render import (
    CANVAS,
    CIRCLE_RADIUS,
    build_scene,
    circle_layout,
    render_frames,
    render_svg,
)
from pisano_lab.subseq import SubsequenceSpec

from oracles import PARENT_PERIOD_10


def edge_lines(document: bytes) -> list[bytes]:
    return [line for line in document.splitlines() if line.lstrip().startswith(b"<line ")]


def test_layout_labels_are_the_parent_period():
    head, _ = circle_layout()
    labels = re.findall(r"<text [^>]*>(\d)</text>", head)
    assert tuple(map(int, labels)) == PARENT_PERIOD_10


def test_layout_geometry():
    _, points = circle_layout()
    assert len(points) == 60
    assert points[0] == ("300.000", "60.000")  # top of the circle
    assert points[15] == ("540.000", "300.000")  # due east: clockwise
    for x, y in points:
        # each coordinate is rounded to three decimals
        assert math.isclose(math.hypot(float(x) - 300.0, float(y) - 300.0), CIRCLE_RADIUS, abs_tol=1e-3)


@pytest.mark.parametrize("bad_limit", [0, 13, -1, 61, 2.0, True])
def test_build_scene_rejects_bad_step_limit(bad_limit):
    # the id is kept from when build_scene took the step limit; render_svg is
    # now the one place that checks it
    with pytest.raises(ValueError):
        render_svg(SubsequenceSpec(k=3, r=25), step_limit=bad_limit)


def test_render_svg_names_a_step_limit_too_long_to_print():
    # str() refuses an int of more than 4300 digits; the message names it by its bits
    with pytest.raises(ValueError, match=r"^step_limit must be in \[1, 12\], got an int of 16610 bits$"):
        render_svg(SubsequenceSpec(k=3, r=25), step_limit=10**5000)


def test_edges_follow_the_walk():
    for k in range(60):
        for r in range(1, 60):
            spec = SubsequenceSpec(k=k, r=r)
            edges = build_scene(spec)
            n = 60 // math.gcd(r, 60)
            walk = [(k + r * j) % 60 for j in range(n + 1)]
            assert edges == tuple(zip(walk, walk[1:])), spec


def test_full_scene_has_exactly_n_line_elements():
    document = render_svg(SubsequenceSpec(k=3, r=25))
    assert len(edge_lines(document)) == 12


@pytest.mark.parametrize("k, r, n", [(3, 25, 12), (9, 13, 60)])
def test_frames_grow_one_edge_at_a_time(k, r, n):
    spec = SubsequenceSpec(k=k, r=r)
    frames = list(render_frames(spec))
    assert len(frames) == n
    for s, frame in enumerate(frames):
        assert len(edge_lines(frame)) == s + 1
        # each frame is its step-limited render, after the same head
        assert frame == render_svg(spec, step_limit=s + 1), s
    assert frames[-1] == render_svg(spec)


def test_frame_count_for_pentagon():
    assert len(list(render_frames(SubsequenceSpec(k=0, r=12)))) == 5


def test_document_shape():
    document = render_svg(SubsequenceSpec(k=0, r=30)).decode("utf-8")
    assert f'viewBox="0 0 {CANVAS} {CANVAS}"' in document
    assert document.count("<text ") == 60
    assert document.count("<circle ") == 1
    assert document.count("<path ") == 1
    assert document.startswith("<?xml")
    assert document.rstrip().endswith("</svg>")

