"""Spans and memory peaks around calls into pisano_lab, added from outside.

The package is not edited: `Tracer` rebinds each traced function in every
pisano_lab module that holds it by name (`complete.fib_mod` and
`_checks.fib_mod` as well as `core.fib_mod`), and swaps the entries of
`_checks.ALL_CHECKS` for wrapped ones, then restores everything on exit.
Spans are kept in memory as [name, start_ns, end_ns, parent index] and
summarised or written out after the run.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from types import ModuleType

TRACED = (
    ("core", "fib_mod"),
    ("core", "pisano_period"),
    ("subseq", "subsequence_period"),
    ("subseq", "star_polygon"),
    ("subseq", "square_tuple"),
    ("subseq", "pentagon_tuple"),
    ("subseq", "dodecagon_tuple"),
    ("quasi", "verify_quasi"),
    ("quasi", "predict_quasi"),
    ("complete", "compute_shift"),
    ("complete", "brute_force_shift"),
    ("complete", "unit_group"),
    ("render", "build_scene"),
    ("render", "circle_layout"),
    ("render", "render_svg"),
    ("render", "render_frames"),
    ("cli", "cmd_period"),
    ("cli", "cmd_classify"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_diagram"),
)
# functions whose distinct arguments are counted, to expose repeated work
DISTINCT = ("core.fib_mod", "complete.unit_group", "render.circle_layout")
# functions whose results are byte strings whose total size is recorded
SIZED = ("render.render_svg",)
PEAK = (("core", "pisano_period"), ("render", "render_frames"))


def package_modules() -> dict[str, ModuleType]:
    """Loaded pisano_lab modules by short name ('' for the package itself)."""
    return {
        name.partition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "pisano_lab" or name.startswith("pisano_lab.")
    }


def clear_caches(modules: dict[str, ModuleType]) -> None:
    """Empty every functools cache, as a fresh CLI process would start."""
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class _Rebinder:
    """Replace functions in every module that holds them; undo on exit."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self._undo: list[tuple[ModuleType, str, object]] = []

    def rebind(self, original: object, replacement: object) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def set(self, module: ModuleType, attr: str, value: object) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


class Tracer:
    """Record a span per call into each traced function while active."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.spans: list[list] = []
        self.arguments: dict[str, set] = {name: set() for name in DISTINCT}
        self.result_bytes: Counter[str] = Counter()
        self._stack: list[int] = []
        self._rebinder = _Rebinder(modules)

    def __enter__(self) -> "Tracer":
        modules = self._rebinder.modules
        for short, attr in TRACED:
            original = getattr(modules[short], attr)
            self._rebinder.rebind(original, self._wrap(f"{short}.{attr}", original))
        checks = modules["_checks"]
        self._rebinder.set(checks, "ALL_CHECKS", tuple(self._wrap_check(c) for c in checks.ALL_CHECKS))
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._rebinder.restore()

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        seen = self.arguments.get(name)
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add((args, tuple(kwargs.items())))
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sized:
                self.result_bytes[name] += len(result)
            return result

        return traced

    def _wrap_check(self, check):
        @functools.wraps(check)
        def traced():
            span = self._open("checks.?")
            try:
                result = check()
            finally:
                self._close(span)
            span[0] = f"checks.{result.name}"
            return result

        return traced


def summarise(spans: list[list]) -> dict[str, tuple[int, int, int]]:
    """Per span name: (calls, self ns, total ns).

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap, so that is the sum of their durations.
    """
    covered = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    total_ns: Counter[str] = Counter()
    for (name, start, end, _), child in zip(spans, covered):
        calls[name] += 1
        self_ns[name] += end - start - child
        total_ns[name] += end - start
    return {name: (calls[name], self_ns[name], total_ns[name]) for name in calls}


def write_spans(path: Path, spans: list[list], starts: list[int]) -> None:
    """Write spans as TSV; `starts` holds the first span index of each invocation."""
    path.parent.mkdir(parents=True, exist_ok=True)
    bounds = starts[1:] + [len(spans)]
    with path.open("w", encoding="utf-8") as out:
        out.write("invocation\tindex\tname\tstart_ns\tend_ns\tparent\n")
        for invocation, (first, stop) in enumerate(zip(starts, bounds)):
            for index in range(first, stop):
                name, start, end, parent = spans[index]
                out.write(f"{invocation}\t{index}\t{name}\t{start}\t{end}\t{parent}\n")


class PeakMemory:
    """tracemalloc peak of each call to the PEAK functions, above its start.

    tracemalloc runs only while such a call is open, so the rest of the
    round runs at full speed. A nested call resets the peak counter, so
    every open call first folds the peak seen so far into its own maximum.
    """

    def __init__(self, modules: dict[str, ModuleType]):
        self.peak_bytes: dict[str, int] = {f"{short}.{attr}": 0 for short, attr in PEAK}
        self._open: list[list] = []
        self._rebinder = _Rebinder(modules)

    def __enter__(self) -> "PeakMemory":
        for short, attr in PEAK:
            original = getattr(self._rebinder.modules[short], attr)
            self._rebinder.rebind(original, self._wrap(f"{short}.{attr}", original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._rebinder.restore()

    def _fold(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._open:
            frame[1] = max(frame[1], peak)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if self._open:
                self._fold()
            else:
                tracemalloc.start()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            frame = [start, start]
            self._open.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                self._open.pop()
                self.peak_bytes[name] = max(self.peak_bytes[name], frame[1] - frame[0])
                if not self._open:
                    tracemalloc.stop()

        return measured
