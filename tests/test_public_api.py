import ast
import enum
import importlib.util
import inspect
import re
import signal
import typing
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pisano_lab
from pisano_lab import SubsequenceSpec, compute_shift, fib_mod, pisano_length, render_svg, star_polygon
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


def _readme_caps() -> dict[str, int]:
    # the rows of the README's cap table: `module.NAME` | 10**k or 1,000 | effect
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+\.\w+)` \| ([\d,*]+) \| .+ \|$", readme, re.M)
    caps = {}
    for name, value in rows:
        base, _, exponent = value.replace(",", "").partition("**")
        caps[name] = int(base) ** int(exponent or 1)
    return caps


def test_readme_cap_table_holds_every_cap_at_its_value():
    caps = _readme_caps()
    live = {}
    for name in caps:
        module, constant = name.split(".")
        live[name] = getattr(importlib.import_module(f"pisano_lab.{module}"), constant)
    assert live == caps
    # a cap is a module-level constant named for a maximum or a bit count, or
    # the 60 points of the circle, which bound is_cyclic_shift
    defined = {
        f"{path.stem}.{target.id}"
        for path in Path(pisano_lab.__file__).parent.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z_]*(MAX|BITS)[A-Z_]*", target.id)
    }
    assert set(caps) == defined | {"subseq.CIRCLE_POINTS"}


# the contract of every public callable: any arguments, of the arity it takes,
# give a value of the type its signature documents, or ValueError, in a
# bounded time (the slowest accepted calls, such as pisano_period(10**6) or
# pisano_length near 10**12, take under a second)
CALL_SECONDS = 5

INTS = st.integers(-70, 70) | st.integers(-(2**4096), 2**4096)
# shorter ints for the terms of a sequence: 70 of 4,097 bits would not fit in
# the 8 KB of data that hypothesis draws an example from, so no list could pass 60
TERMS = st.integers(-70, 70) | st.integers(-(2**256), 2**256)
ARGUMENTS = st.one_of(
    INTS,
    st.booleans(),
    st.floats(),
    st.none(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.lists(TERMS, max_size=70),
    st.lists(TERMS, max_size=70).map(tuple),
    st.integers(0, 10**30).map(range),
    st.builds(SubsequenceSpec, st.integers(0, 59), st.integers(1, 59)),
)

CALLABLES = [name for name in pisano_lab.__all__ if callable(getattr(pisano_lab, name))]


def _arities(call: object) -> range:
    # an enum is called with one value (with two it makes a new enum) and an
    # exception class with one message; a record takes its fields, and a
    # function its required positional arguments, optionally the others too
    if isinstance(call, enum.EnumMeta) or isinstance(call, type) and issubclass(call, Exception):
        return range(1, 2)
    positional = [p for p in inspect.signature(call).parameters.values() if p.kind is p.POSITIONAL_OR_KEYWORD]
    required = sum(p.default is p.empty for p in positional)
    return range(required, (required if isinstance(call, type) else len(positional)) + 1)


def _documented_type(call: object) -> tuple[type, tuple]:
    if isinstance(call, type):
        return call, ()
    hint = typing.get_type_hints(call)["return"]
    return typing.get_origin(hint) or hint, typing.get_args(hint)


def _overran(signum: int, frame: object) -> None:
    raise TimeoutError(f"the call took more than {CALL_SECONDS} s")


@pytest.mark.parametrize("name", CALLABLES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_public_callable_gives_its_documented_type_or_value_error(name, data):
    call = getattr(pisano_lab, name)
    arity = data.draw(st.sampled_from(_arities(call)))
    args = data.draw(st.lists(ARGUMENTS, min_size=arity, max_size=arity))
    kind, items = _documented_type(call)
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        value = call(*args)
        if kind is Iterator:
            # a stream does its work as it is read
            assert isinstance(value, Iterator)
            assert all(type(item) is items[0] for item in value)
        else:
            assert type(value) is kind, value
    except ValueError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class LongInt(int):
    """An int subclass, which the exact type tests refuse."""


# repr() of a long int subclass runs int's str(), which refuses more than 4300
# digits; each refusal names the argument and spells the value by its bits
LONG = LongInt(10**5000)
SPELLED = "an int of 16610 bits of type LongInt"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SubsequenceSpec(k=LONG, r=1), f"k and r must be ints, got k={SPELLED}, r=1"),
        (lambda: SubsequenceSpec(k=0, r=LONG), f"k and r must be ints, got k=0, r={SPELLED}"),
        (lambda: pisano_length(LONG), f"modulus must be an int, got {SPELLED}"),
        (lambda: fib_mod(LONG, 10), f"index n must be an int, got {SPELLED}"),
        (lambda: fib_mod(3, LONG), f"modulus must be an int, got {SPELLED}"),
        (
            lambda: render_svg(SubsequenceSpec(k=3, r=25), step_limit=LONG),
            f"step_limit must be an int, got {SPELLED}",
        ),
        (lambda: star_polygon(10**5000), "expected a SubsequenceSpec, got an int of 16610 bits of type int"),
    ],
    ids=[
        "spec-k", "spec-r", "pisano_length-m", "fib_mod-n", "fib_mod-m",
        "render_svg-step_limit", "star_polygon-spec",
    ],
)
def test_refusals_name_an_int_too_long_to_print(call, message):
    with pytest.raises(ValueError) as refusal:
        call()
    assert str(refusal.value) == message
