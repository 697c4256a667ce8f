#!/usr/bin/env python3
"""Compare the CLI's output under other CPythons with this interpreter's.

Runs each request below, none of which loads numpy, as ``python -m
dunkl_pauli.cli`` from this checkout's ``src/`` under this interpreter and
under every other CPython found, and compares their stdout byte for byte;
for ``verify --skip-oracle`` the suite timings are masked.  Prints one
line per interpreter and exits 1 on any difference, naming the request and
the first line that differs.

    python scripts/cross_python.py

The other CPythons are ``python3.N`` on PATH and pyenv's versions, from the
``requires-python`` floor of pyproject.toml up; one of the same version as
this interpreter is skipped.  They need no third-party package.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THERMO = ["thermo", "--nu1", "0.4", "--nu2", "0.2"]
REQUESTS = [
    *[[*THERMO, "--quantity", q, "--mode", mode]
      for mode in ("consistent", "paper-faithful") for q in "ZFUCS"],
    [*THERMO, "--quantity", "C", "--steps", "1000"],
    ["spectrum", "--nu1", "0.4", "--nu2", "0.4", "--sector", "++", "--branch", "+"],
    ["spectrum", "--nu1", "0.4", "--nu2", "0.4", "--sector", "++", "--branch", "-"],
    ["spectrum", "--nu1", "0.4", "--nu2", "-0.2", "--sector", "+-", "--lmax", "5/2"],
    ["verify", "--skip-oracle"],
]


def _mask_timings(text: str) -> str:
    return re.sub(r"\(\d+\.\d s\)", "(x.x s)", text)


def _floor() -> tuple:
    text = (ROOT / "pyproject.toml").read_text()
    return tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()))


def _version(python: str):
    """(major, minor, micro) of an interpreter, or None if it does not run."""
    try:
        out = subprocess.run([python, "-c", "import sys; print(*sys.version_info[:3])"],
                             capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return tuple(map(int, out.stdout.split())) if out.returncode == 0 else None


def _candidates() -> list:
    major, minor = _floor()
    found = [shutil.which(f"python{major}.{m}") for m in range(minor, minor + 10)]
    if pyenv := shutil.which("pyenv"):
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout
        found += sorted(str(p) for p in Path(root.strip()).glob("versions/*/bin/python3"))
    return [p for p in found if p]


def _run(python: str, request: list) -> tuple:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([python, "-s", "-m", "dunkl_pauli.cli", *request],
                         capture_output=True, env=env, timeout=600)
    stdout = out.stdout.decode()
    if request[0] == "verify":
        stdout = _mask_timings(stdout)
    tail = out.stderr.decode().strip().rpartition("\n")[2]
    return out.returncode, stdout, tail


def _first_difference(want: str, got: str) -> str:
    a, b = want.splitlines(), got.splitlines()
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"line {i + 1}: {x!r} here, {y!r} there"
    if len(a) != len(b):
        i = min(len(a), len(b))
        return f"line {i + 1}: {len(a)} lines here, {len(b)} there"
    return "same lines, different line endings"


def main() -> int:
    floor = _floor()
    others, seen = [], {tuple(sys.version_info[:3])}
    for python in _candidates():
        version = _version(python)
        if version and version[:2] >= floor and version not in seen:
            seen.add(version)
            others.append((python, version))
    if not others:
        print("no other CPython found; nothing compared")
        return 0
    reference = []
    for request in REQUESTS:
        rc, stdout, tail = _run(sys.executable, request)
        if rc:
            print(f"{' '.join(request)} fails here (exit {rc}): {tail}")
            return 1
        reference.append(stdout)
    failed = False
    for python, version in others:
        name = f"{python} ({'.'.join(map(str, version))})"
        diffs = []
        for request, want in zip(REQUESTS, reference):
            rc, got, tail = _run(python, request)
            if rc:
                diffs.append(f"{' '.join(request)}: exit {rc}, {tail}")
            elif got != want:
                diffs.append(f"{' '.join(request)}: {_first_difference(want, got)}")
        failed = failed or bool(diffs)
        print(f"{name}: {len(REQUESTS)} requests, {len(diffs)} differ")
        for diff in diffs:
            print(f"    {diff}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
