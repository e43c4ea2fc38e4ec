"""Fibonacci sequences modulo m: periods, subsequence diagrams, SVG output.

The package exports what the CLI, the `verify` battery and the README
examples use. Periods and diagram edges come back as plain tuples, and
U(n) as its read-only inverse table; the other result types
(`StarPolygon`, `ShiftCertificate`) are imported from their own modules.
"""

from .complete import (
    NotAUnitError,
    OracleFailureError,
    ShiftDirection,
    brute_force_shift,
    compute_shift,
    first_zero_index,
    unit_group,
)
from .core import InvalidModulusError, antipodal_sum, fib_mod, lucas_mod, pisano_length, pisano_period
from .quasi import QuasiClass, QuasiPrediction, predict_quasi, verify_quasi
from .render import build_scene, render_frames, render_svg
from .subseq import (
    CIRCLE_POINTS,
    DiagramType,
    SubsequenceSpec,
    dodecagon_tuple,
    is_cyclic_shift,
    pentagon_tuple,
    square_tuple,
    star_polygon,
    subsequence_period,
)

__version__ = "0.1.0"

__all__ = [
    "CIRCLE_POINTS",
    "DiagramType",
    "InvalidModulusError",
    "NotAUnitError",
    "OracleFailureError",
    "QuasiClass",
    "QuasiPrediction",
    "ShiftDirection",
    "SubsequenceSpec",
    "antipodal_sum",
    "brute_force_shift",
    "build_scene",
    "compute_shift",
    "dodecagon_tuple",
    "fib_mod",
    "first_zero_index",
    "is_cyclic_shift",
    "lucas_mod",
    "pentagon_tuple",
    "pisano_length",
    "pisano_period",
    "predict_quasi",
    "render_frames",
    "render_svg",
    "square_tuple",
    "star_polygon",
    "subsequence_period",
    "unit_group",
    "verify_quasi",
]
