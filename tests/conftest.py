"""Session fixtures shared by the test modules."""

import contextlib
import functools
import io
import json
import time
from typing import NamedTuple

import pytest

from pisano_lab.cli import main


class CliRun(NamedTuple):
    code: int
    stdout: str
    written: bytes  # the bytes the command wrote to its --out path
    elapsed_s: float


class VerifyRun(NamedTuple):
    code: int
    stdout: str
    report: dict
    elapsed_s: float


@pytest.fixture(scope="session")
def run_cli(tmp_path_factory):
    """Run a command at most once per session, with --out; gives its `CliRun`."""
    out_dir = tmp_path_factory.mktemp("reports")

    @functools.cache
    def run_command(*argv) -> CliRun:
        target = out_dir / "_".join(argv)
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out", str(target)])
        elapsed = time.perf_counter() - start
        return CliRun(code, stdout.getvalue(), target.read_bytes(), elapsed)

    return run_command


@pytest.fixture(scope="session")
def verify_run(run_cli) -> VerifyRun:
    """The one `verify` run of a session: text stdout plus the `--out` JSON report."""
    run = run_cli("verify")
    return VerifyRun(run.code, run.stdout, json.loads(run.written), run.elapsed_s)
