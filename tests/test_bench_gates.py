"""scripts/bench_gates.py, the benchmark gates of CI, on synthetic records:
one passing record per workload, and one record that breaks each gate."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "bench_gates", ROOT / "scripts" / "bench_gates.py")
gates = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gates)


def value(v) -> dict:
    return {"value": v}


def run(workload: str, trace: str, correct=True, pins=0, solves=None,
        apply_g=827, nodes=22_994) -> int:
    """Exit code of the gates on a record built from the arguments, after a
    table line as perfbench/run.py prints one."""
    if solves is None:
        solves = {"scan": 144, "verify": 48}.get(workload, 0)
    full = {"metrics": {"pin_mismatches": value(pins)}}
    last = {"correct": correct, "metrics": {
        "radial_oracle.solves": value(solves),
        "angular.apply_G.calls": value(apply_g),
        "radial_oracle.grid_points": value(nodes)}}
    stdin = io.StringIO("\n".join(["metric  value", json.dumps(full),
                                   json.dumps(last)]) + "\n")
    return gates.main([workload, trace], stdin)


@pytest.mark.parametrize("workload, trace", [("figures", "0"), ("cli", "0"),
                                             ("scan", "1"), ("verify", "1")])
def test_a_record_within_every_gate_passes(workload, trace, capsys):
    assert run(workload, trace) == 0
    assert capsys.readouterr().out.startswith(f"{workload} correct: True")


BROKEN = {
    "figures not correct": ("figures", "0", {"correct": False}),
    "cli not correct": ("cli", "0", {"correct": False}),
    "scan not correct": ("scan", "1", {"correct": False}),
    "verify not correct": ("verify", "1", {"correct": False}),
    "a figure pin mismatch": ("figures", "0", {"pins": 1}),
    "a traced run without a solve": ("scan", "1", {"solves": 0}),
    "a scan solve over 144": ("scan", "1", {"solves": gates.SCAN_SOLVES + 1}),
    "an apply_G call over 827": (
        "verify", "1", {"apply_g": gates.VERIFY_APPLY_G_CALLS + 1}),
    "a verify solve over 48": ("verify", "1", {"solves": gates.VERIFY_SOLVES + 1}),
    "a grid point over 22,994": (
        "verify", "1", {"nodes": gates.VERIFY_GRID_POINTS + 1}),
}


@pytest.mark.parametrize("case", BROKEN)
def test_a_record_that_breaks_one_gate_fails(case):
    workload, trace, broken = BROKEN[case]
    assert run(workload, trace, **broken) == 1


@pytest.mark.parametrize("workload", ["scan", "verify"])
def test_an_untraced_solve_gated_record_fails_by_name(workload, capsys):
    # the solve gates need the traced count, so such a record fails closed
    assert run(workload, "0") == 1
    assert capsys.readouterr().out == (
        f"{workload} correct: True needs --trace 1 for radial_oracle.solves\n")


def test_the_bounds_are_the_derived_counts():
    assert (gates.FIGURE_PIN_MISMATCHES, gates.SCAN_SOLVES) == (0, 12 * 2 * 2 * 3)
    assert gates.VERIFY_APPLY_G_CALLS == 300 + 2 * 250 + 27
    assert gates.VERIFY_SOLVES == 16 * 3
    assert gates.VERIFY_GRID_POINTS == (3 * 2051 + 1606 + 3 * 1530 + 1312
                                        + 3 * 1271 + 1142 + 3 * 1116 + 1030)
