import ast
import importlib.util
import re
from pathlib import Path

import pytest

import pisano_lab
from pisano_lab import SubsequenceSpec, compute_shift, star_polygon
from pisano_lab._checks import CheckResult

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = """
    CIRCLE_POINTS DiagramType InvalidModulusError NotAUnitError OracleFailureError QuasiClass
    QuasiPrediction ShiftDirection SubsequenceSpec antipodal_sum brute_force_shift build_scene
    compute_shift dodecagon_tuple fib_mod first_zero_index is_cyclic_shift lucas_mod pentagon_tuple
    pisano_length pisano_period predict_quasi render_frames render_svg square_tuple star_polygon
    subsequence_period unit_group verify_quasi
""".split()


def test_public_surface_is_pinned():
    assert sorted(pisano_lab.__all__) == sorted(PUBLIC)
    assert [name for name in PUBLIC if not hasattr(pisano_lab, name)] == []


def test_readme_library_example_uses_only_public_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\s+```python\n(.*?)```", readme, re.S).group(1)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "pisano_lab"
        for alias in node.names
    }
    assert imported and imported <= set(pisano_lab.__all__)
    # and it runs as written, so an attribute the results no longer have fails here
    exec(compile(block, "README.md", "exec"), {})


def test_every_traced_name_resolves():
    # perfbench/tracing.py imports only the stdlib, so it loads on its own
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing.TRACED + tracing.PEAK
        if not callable(getattr(importlib.import_module(f"pisano_lab.{module}"), attr, None))
    ]
    assert missing == []


# each record, another of its class with other values, and its repr
RECORDS = {
    "SubsequenceSpec": (SubsequenceSpec(k=9, r=13), SubsequenceSpec(k=13, r=9), "SubsequenceSpec(k=9, r=13)"),
    "StarPolygon": (
        star_polygon(SubsequenceSpec(k=3, r=25)),
        star_polygon(SubsequenceSpec(k=3, r=35)),
        "StarPolygon(n=12, q=5, diagram_type=<DiagramType.TYPE2: 'Type2'>, convex=False)",
    ),
    "ShiftCertificate": (
        compute_shift(SubsequenceSpec(k=9, r=13)),
        compute_shift(SubsequenceSpec(k=9, r=17)),
        "ShiftCertificate(unit_digit=3, log_index=1, zero_vertex=15, restart_index=42, first_zero=12,"
        " direction=<ShiftDirection.FORWARD: 'forward'>, shift=18)",
    ),
    "CheckResult": (
        CheckResult("fib-recurrence", True, "all n"),
        CheckResult("fib-recurrence", False, "all n"),
        "CheckResult(name='fib-recurrence', passed=True, detail='all n')",
    ),
}


@pytest.mark.parametrize("record, other, text", RECORDS.values(), ids=RECORDS)
def test_records_are_frozen_values(record, other, text):
    fields = dict(vars(record))
    # the fields in their declared order, which the classify certificate keeps
    assert list(fields) == list(type(record).__annotations__)
    twin = type(record)(**fields)
    assert twin == record and not twin != record and hash(twin) == hash(record)
    assert other != record and record != tuple(fields.values()) and record != fields
    assert repr(record) == text
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == fields
