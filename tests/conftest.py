"""Session fixtures shared by the test modules."""

import contextlib
import io
import json
import time
from typing import NamedTuple

import pytest

from pisano_lab.cli import main


class VerifyRun(NamedTuple):
    code: int
    stdout: str
    report: dict
    elapsed_s: float


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory) -> VerifyRun:
    """The one `verify` run of a session: text stdout plus the `--out` JSON report."""
    target = tmp_path_factory.mktemp("verify") / "report.json"
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = main(["verify", "--out", str(target)])
    elapsed = time.perf_counter() - start
    return VerifyRun(code, stdout.getvalue(), json.loads(target.read_text()), elapsed)
