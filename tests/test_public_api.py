import ast
import importlib.util
import re
from pathlib import Path

import pisano_lab

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = """
    CIRCLE_POINTS DiagramType InvalidModulusError NotAUnitError OracleFailureError QuasiClass
    QuasiPrediction ShiftDirection SubsequenceSpec antipodal_sum brute_force_shift build_scene
    compute_shift dodecagon_tuple fib_mod first_zero_index is_cyclic_shift lucas_mod pentagon_tuple
    pisano_period predict_quasi render_frames render_svg square_tuple star_polygon
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
