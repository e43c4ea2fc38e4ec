"""pisano-lab benchmark: closed-loop CLI workloads and a traced layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing is installed. The metric
names and units come from BENCHMARK.json next to this directory.

--trace 0 (end to end): one client runs one `python -m pisano_lab.cli ...`
child at a time against `src/`, repeating the workload's seeded round of
invocations until S seconds have passed (and at least MIN_REPEATS times).
Each child is timed from spawn to exit, so interpreter start and import
count; CPU time and peak RSS come from its rusage. Timings are the best of
each invocation's repeats, in multiples of the best time of REFERENCE, a
fixed child run in between. Every report is checked by the oracles in
checkers.py.

--trace 1 (per layer): the round runs in this process, alternately
plain and with spans around the calls into each pisano_lab layer, until S
seconds have passed; the difference of the two is the tracing overhead.
tracemalloc then runs in a pass of its own for the memory peaks. Spans of
the first traced round are written to perfbench/out/.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it print every metric by name
with its unit, plus provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from checkers import Mismatch, Oracle
from tracing import DISTINCT, PEAK, SIZED, TRACED, PeakMemory, Tracer, clear_caches, package_modules, summarise, write_spans
from workloads import PREDICTED_ZERO_CALLS, WORKLOADS, Call, make_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REPEATS = 3
SETUP_FIRST = 3  # import-only children before the loop; one more after every round
REFERENCE_EVERY = 3  # invocations per reference child, and one at the end of every round
IMPORT_ONLY = ["-c", "import pisano_lab.cli"]
# The host's other tenants move the speed of this machine by tens of percent
# for minutes at a time. Timings are therefore given in multiples of the best
# time of this fixed child, run between the invocations: it imports nothing
# of the repository and does pure-Python work of the program's kind (an
# interpreter start, a Fibonacci scan mod m into a dict, a string).
REFERENCE = [
    "-c",
    "a, b, seen = 0, 1, {}\n"
    "for _ in range(150000):\n"
    "    a, b = b, (a + b) % 9973\n"
    "    seen[a] = seen.get(a, 0) + 1\n"
    "text = str(sorted(seen.items()))\n",
]
BARE_REPEATS = 5
IMPORT_REPEATS = 5
CHECK_ERRORS = (Mismatch, ValueError, LookupError, TypeError, AttributeError, OSError)


@dataclass(frozen=True)
class Sample:
    """One child process, timed from spawn to exit."""

    wall_s: float
    cpu_s: float
    rss_kb: int
    returncode: int
    stdout: bytes
    stderr: bytes


class Tally:
    """Attempted and failed invocations, with the first failure's reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, call: Call, returncode: int | None, stdout: str | bytes, error: str | None = None) -> int:
        """Check one invocation's report; return its items (0 when it failed)."""
        self.attempted += 1
        if error is None and returncode != 0:
            error = f"exit code {returncode}"
        if error is None:
            try:
                return call.check(json.loads(stdout))
            except CHECK_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{' '.join(call.argv)}: {error}"
        return 0


class Spawner:
    """Children started and timed by spawner.py, so their peak RSS is their own."""

    def __init__(self, env: dict[str, str], work: Path):
        self.env = env
        self.work = work
        self._helper: subprocess.Popen | None = None

    def __enter__(self) -> "Spawner":
        self._helper = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        finally:
            if self._helper.poll() is None:
                self._helper.kill()
                self._helper.wait()
            self._helper.stdout.close()

    def run(self, args: list[str]) -> Sample:
        stdout, stderr = self.work / "stdout", self.work / "stderr"
        request = {"argv": [sys.executable, *args], "stdout": str(stdout), "stderr": str(stderr)}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited early")
        reply = json.loads(line)
        return Sample(reply["wall_s"], reply["cpu_s"], reply["rss_kb"], reply["returncode"],
                      stdout.read_bytes(), stderr.read_bytes())

    def median_wall(self, args: list[str], repeats: int) -> float:
        return statistics.median(self.run(args).wall_s for _ in range(repeats))


def import_seconds(spawner: Spawner) -> float:
    """Median cumulative `-X importtime` of the top-level pisano_lab imports."""
    values = []
    for _ in range(IMPORT_REPEATS):
        sample = spawner.run(["-X", "importtime", *IMPORT_ONLY])
        micros = 0
        for line in sample.stderr.decode().splitlines():
            fields = line.split("|")
            # top-level imports are indented by exactly one space
            if line.startswith("import time:") and len(fields) == 3 and fields[2].startswith(" pisano_lab"):
                micros += int(fields[1])
        values.append(micros / 1e6)
    return statistics.median(values)


def reset(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_plain(workload: str, seed: int, seconds: float, spawner: Spawner) -> tuple[dict, Tally, dict]:
    oracle = Oracle(ROOT / "tests" / "golden")
    out = spawner.work / "out"
    round_ = make_round(workload, seed, oracle, out)
    # one untimed invocation warms the OS and the oracle's caches
    reset(out)
    warm = spawner.run(["-m", "pisano_lab.cli", *round_[0].argv])
    Tally().record(round_[0], warm.returncode, warm.stdout)
    setup = [spawner.run(IMPORT_ONLY).wall_s for _ in range(SETUP_FIRST)]
    reference = [spawner.run(REFERENCE) for _ in range(SETUP_FIRST)]

    tally = Tally()
    walls: list[list[float]] = [[] for _ in round_]  # per invocation of the round
    cpus: list[list[float]] = [[] for _ in round_]
    items = [0] * len(round_)
    peak_rss_kb = 0
    repeats = 0
    start = time.perf_counter()
    while True:
        for i, call in enumerate(round_):
            reset(out)
            sample = spawner.run(["-m", "pisano_lab.cli", *call.argv])
            walls[i].append(sample.wall_s)
            cpus[i].append(sample.cpu_s)
            peak_rss_kb = max(peak_rss_kb, sample.rss_kb)
            failure = None if sample.returncode == 0 else f"exit code {sample.returncode}: {sample.stderr.decode()[-300:]}"
            items[i] = tally.record(call, sample.returncode, sample.stdout, failure) or items[i]
            if i % REFERENCE_EVERY == REFERENCE_EVERY - 1 or i == len(round_) - 1:
                reference.append(spawner.run(REFERENCE))
        # set-up samples spread over the run see the same machine as the loop
        setup.append(spawner.run(IMPORT_ONLY).wall_s)
        repeats += 1
        if time.perf_counter() - start >= seconds and repeats >= MIN_REPEATS:
            break

    # The best of an invocation's repeats is its cost with the least
    # interference from other tenants of the host. Their load still moves
    # these bests by tens of percent from one run to the next, and moves the
    # reference child's best with them, so the bounded timings are given in
    # multiples of the reference's best time in the same run.
    best_wall = [min(w) for w in walls]
    best_cpu = [min(c) for c in cpus]
    ref_wall = min(s.wall_s for s in reference)
    ref_cpu = min(s.cpu_s for s in reference)
    walls_ms = sorted(w * 1e3 for per_call in walls for w in per_call)
    # means, not medians, over the round: which seeded input is the median
    # one changes with the seed, and with it the median's cost
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_mean_xref": statistics.mean(best_wall) / ref_wall,
        "cmd_cpu_mean_xref": statistics.mean(best_cpu) / ref_cpu,
        "items_per_ref": sum(items) / sum(best_wall) * ref_wall,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    details = {
        "invocations_per_round": len(round_),
        "repeats": repeats,
        "setup_samples": len(setup),
        "reference_samples": len(reference),
        "ms": {
            "reference_best": ref_wall * 1e3,
            "cmd_best_mean": statistics.mean(best_wall) * 1e3,
            "cmd_best_p50": statistics.median(best_wall) * 1e3,
            "cmd_best_max": max(best_wall) * 1e3,
            "cmd_best_cpu_mean": statistics.mean(best_cpu) * 1e3,
        },
        "items_per_s": sum(items) / sum(best_wall),
    }
    if len(walls_ms) > 10:
        tail_ms, percentile = tail(walls_ms)
        details["all_samples"] = {"count": len(walls_ms), "p50_ms": statistics.median(walls_ms), f"p{percentile:.2f}_ms": tail_ms}
    return metrics, tally, details


def run_traced(workload: str, seed: int, seconds: float, spawner: Spawner) -> tuple[dict, Tally, dict]:
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("pisano_lab.cli")
    modules = package_modules()
    oracle = Oracle(ROOT / "tests" / "golden")
    out = spawner.work / "out"
    round_ = make_round(workload, seed, oracle, out)
    tally = Tally()

    def invoke(call: Call) -> tuple[float, int]:
        """Run one call in process as a fresh CLI process would; (seconds, stdout bytes)."""
        reset(out)
        clear_caches(modules)
        stdout, error = io.StringIO(), None
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(call.argv))
            except Exception as exc:  # a crash is a failed invocation, not the end of the run
                code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        text = stdout.getvalue()
        tally.record(call, code, text, error)
        return elapsed, len(text.encode())

    for call in round_:  # untimed warm-up
        invoke(call)
    plain_s, traced_s, summaries = [], [], []
    first: Tracer | None = None
    starts: list[int] = []
    stdout_bytes = 0
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        plain_s.append(sum(invoke(call)[0] for call in round_))
        with Tracer(modules) as tracer:
            wall, written = 0.0, 0
            for call in round_:
                if first is None:
                    starts.append(len(tracer.spans))
                elapsed, size = invoke(call)
                wall, written = wall + elapsed, written + size
        traced_s.append(wall)
        summaries.append(summarise(tracer.spans))
        if first is None:
            first, stdout_bytes = tracer, written
    with PeakMemory(modules) as peaks:
        for call in round_:
            invoke(call)

    problems = []
    counts = [{name: entry[0] for name, entry in summary.items()} for summary in summaries]
    if any(c != counts[0] for c in counts):
        problems.append("span counts differ between traced rounds")
    metrics: dict[str, float] = {}
    for short, attr in TRACED:
        name = f"{short}.{attr}"
        metrics[f"{name}.calls"] = counts[0].get(name, 0)
        metrics[f"{name}.self_s"] = statistics.median(s.get(name, (0, 0, 0))[1] for s in summaries) / 1e9
    for name in counts[0]:
        if name.startswith("checks."):
            metrics[f"{name}.s"] = statistics.median(s[name][2] for s in summaries) / 1e9
    for name in PREDICTED_ZERO_CALLS.get(workload, ()):
        if metrics[f"{name}.calls"] != 0:
            problems.append(f"{name} was called {metrics[f'{name}.calls']} times; the prediction is 0")
    for name in DISTINCT:
        distinct, calls = len(first.arguments[name]), metrics[f"{name}.calls"]
        metrics[f"{name}.distinct"] = distinct
        metrics[f"{name}.distinct_ratio"] = distinct / calls if calls else 0.0
    for name in SIZED:
        metrics[f"{name}.bytes"] = first.result_bytes[name]
    for short, attr in PEAK:
        metrics[f"{short}.{attr}.peak_kb"] = peaks.peak_bytes[f"{short}.{attr}"] / 1024
    metrics["cli.stdout_bytes"] = stdout_bytes
    metrics["cli.import_s"] = import_seconds(spawner)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)

    spans_path = OUT / f"spans-{workload}.tsv"
    write_spans(spans_path, first.spans, starts)
    details = {
        "traced_rounds": len(summaries),
        "invocations_per_round": len(round_),
        "plain_round_s": statistics.median(plain_s),
        "traced_round_s": statistics.median(traced_s),
        "spans": str(spans_path.relative_to(ROOT)),
        "problems": problems,
    }
    return metrics, tally, details


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spec_metrics(spec: dict, trace: bool, computed: dict) -> dict:
    """Computed metrics in BENCHMARK.json order and units; names must match exactly."""
    listed = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in listed]
    if trace:
        # checks that did not run on this workload took no time
        computed = {**{n: 0.0 for n in names if n.startswith("checks.")}, **computed}
    missing, extra = set(names) - set(computed), set(computed) - set(names)
    if missing or extra:
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pisano_lab" / "cli.py").is_file():
        print(f"error: no pisano_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_at_start = os.getloadavg()
    # children see no PYTHON* settings of the caller (such as
    # PYTHONDONTWRITEBYTECODE), only the sources under test
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    run = run_traced if args.trace else run_plain
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as work, Spawner(env, Path(work)) as spawner:
        bare_start_s = spawner.median_wall(["-c", "pass"], BARE_REPEATS)
        spawner.run(IMPORT_ONLY)  # untimed: writes the bytecode cache
        computed, tally, details = run(args.workload, args.seed, args.seconds, spawner)
    metrics = spec_metrics(spec, bool(args.trace), computed)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "bare_interpreter_start_s": bare_start_s,
    }
    print("provenance " + json.dumps(provenance))
    print("details " + json.dumps({**details, "first_failure": tally.first_failure}))
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']} {metric['unit']}")
    # 0 whenever all is well, so it cannot be a bounded end-to-end metric;
    # the result line carries it as `failed` over `attempted`
    print(f"metric fail_ratio = {tally.failed / tally.attempted} ratio ({tally.failed} of {tally.attempted})")
    problems = details.get("problems", [])
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if tally.first_failure:
        print(f"error: {tally.first_failure}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
