import contextlib
import io
import time
from types import SimpleNamespace

import pytest

from dunkl_pauli.cli import main


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """One `verify --skip-oracle --out <file>` run, shared by every test that
    reads its report: exit code, stdout, the --out file's text and the
    elapsed wall time."""
    report_file = tmp_path_factory.mktemp("verify") / "report.txt"
    stdout = io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(stdout):
        code = main(["verify", "--skip-oracle", "--out", str(report_file)])
    elapsed = time.monotonic() - t0
    return SimpleNamespace(code=code, out=stdout.getvalue(),
                           report=report_file.read_text(), elapsed=elapsed)
