import contextlib
import io
import sys
import time
from types import SimpleNamespace

import pytest

from dunkl_pauli import rounding
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


@pytest.fixture
def fallbacks(monkeypatch):
    """A list whose length counts the values that missed the fast test: the
    ``rounding.settle`` calls, each seen as its first decimal evaluation, so
    that a caller holding its own reference to ``settle`` is counted too."""
    calls = []

    class Counted(rounding._Exact):
        def __init__(self, prec):
            if prec == rounding._PRECISIONS[0]:
                calls.append(prec)
            super().__init__(prec)

    monkeypatch.setattr(rounding, "_Exact", Counted)
    return calls


@pytest.fixture(autouse=True)
def fresh_oracle_memo():
    """Empty the oracle's one-entry memo before each test, so that a test
    which patches the solver sees every solve whatever ran before it.  A
    process that has not imported the oracle has no memo to empty."""
    oracle = sys.modules.get("dunkl_pauli.radial_oracle")
    if oracle is not None:
        oracle._parity_levels.cache_clear()
