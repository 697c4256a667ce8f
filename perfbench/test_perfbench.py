"""Tests of the benchmark itself (not of dunkl_pauli).

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import calibrate
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    first, again, other = wl.generate(7), wl.generate(7), wl.generate(8)
    assert first == again
    assert json.loads(json.dumps(first)) == json.loads(json.dumps(again))
    assert first != other


def test_metric_names_and_units():
    declared = {**run.END_TO_END, **run.PER_LAYER, **run.EXTRA}
    assert len(declared) == len(run.END_TO_END) + len(run.PER_LAYER) + len(run.EXTRA)
    for name, unit in declared.items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_clock_scales_each_segment_by_its_neighbouring_samples():
    samples = iter([0.02, 0.04, 0.01])
    clock = calibrate.Clock("interpreter", lambda: next(samples))
    assert clock.segment(lambda x: x + 1, 1)[0] == 2
    first = clock.raw
    assert clock.calibrated == pytest.approx(first * 0.02 / 0.03)
    clock.segment(lambda: None)
    assert clock.calibrated == pytest.approx(
        first * 0.02 / 0.03 + (clock.raw - first) * 0.02 / 0.025)
    assert clock.lap() == (clock.raw, clock.calibrated)
    assert clock.lap() == (0.0, 0.0)
    assert clock.samples == [0.02, 0.04, 0.01]


def test_known_oracle_defect_only_where_the_coefficient_drops():
    odd, even = (1, -1), (1, 1)
    assert workloads.known_oracle_defect(odd, "1/2", ("-9/20", "-9/20"))
    assert not workloads.known_oracle_defect(odd, "1/2", ("-1/4", "1/4"))
    assert not workloads.known_oracle_defect(odd, "3/2", ("-9/20", "-9/20"))
    assert not workloads.known_oracle_defect(even, "1", ("-9/20", "-9/20"))


def _scan_pair(dev):
    """One nu pair's scan output: odd sector, ell = 1/2, every oracle
    comparison off by ``dev``."""
    half = Fraction(1, 2)
    keys = [(half, n, m_s) for n in range(6) for m_s in (1, -1)]
    rows = [(*key, 1.0 + dev, 1.0) for key in keys]
    return [((1, -1), dict.fromkeys(keys, 1.0), rows, [[0.0]] * 10)]


def test_scan_counts_each_pair_once_whatever_the_passes():
    scan = workloads.WORKLOADS["scan"]
    inputs = {"items": [{"nu": ("-9/20", "-9/20")}, {"nu": ("1", "1")}]}
    one = workloads.PassResult(2, 1.0, output=[_scan_pair(0.01), _scan_pair(0)])
    for passes in (1, 3):
        verdict = scan.check(inputs, [one] * passes, None)
        assert (verdict.attempted, verdict.failed, verdict.correct) == (2, 1, True)
        assert verdict.metrics["comparisons"] == (12 * 2, "count")
    drifted = workloads.PassResult(2, 1.0, output=[_scan_pair(0.01),
                                                   _scan_pair(1e-7)])
    verdict = scan.check(inputs, [one, drifted, one], None)
    assert (verdict.attempted, verdict.failed, verdict.correct) == (2, 2, False)


def _span(name, layer, start, end, parent, n=0):
    return [name, layer, start, end, parent, "pass0", n]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("main", "cli", 0.0, 10.0, -1),          # 0
        _span("sweep", "thermo", 1.0, 4.0, 0, 5),     # 1
        _span("rho", "spectrum", 3.0, 6.0, 0),        # 2: overlaps 1
        _span("eta", "spectrum", 2.0, 3.0, 1),        # 3: inside 1
        _span("partition", "thermo", 9.5, 11.0, 0),   # 4: runs past 0
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 0.5, 2.0, 3.0, 1.0, 1.5])
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(4.5)
    assert m["spectrum.self_s"] == pytest.approx(4.0)
    assert m["spectrum.calls"] == 2
    assert m["thermo.self_s"] == pytest.approx(3.5)
    assert m["thermo.sweeps"] == 1
    assert m["thermo.points"] == 6  # 5 sweep points + 1 direct call
    assert m["thermo.point_us"] == pytest.approx((3.0 + 1.5) / 6 * 1e6)


def test_concat_offsets_parents_and_per_pass_means():
    one = [_span("main", "cli", 0.0, 4.0, -1), _span("rho", "spectrum", 1.0, 2.0, 0)]
    two = [_span("main", "cli", 5.0, 7.0, -1), _span("rho", "spectrum", 5.5, 6.0, 0)]
    joined = spans.concat([one, two])
    assert [s[spans.PARENT] for s in joined] == [-1, 0, -1, 2]
    m = spans.layer_metrics(joined, passes=2)
    assert m["spectrum.calls"] == 1
    assert m["cli.self_s"] == pytest.approx((3.0 + 1.5) / 2)


def test_tracer_patches_from_imports():
    sys.path.insert(0, str(ROOT / "src"))
    from dunkl_pauli import cli, spectrum
    tracer = spans.Tracer("pass0")
    tracer.install()
    try:
        assert cli.rho is spectrum.rho and cli.rho.__wrapped__ is not None
        spectrum.energy_over_omega_c(spectrum.SectorState(1, 1, 0, 1, 1),
                                     cli.WignerParams(0, 0))
    finally:
        tracer.uninstall()
    assert not hasattr(cli.rho, "__wrapped__")
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "energy_over_omega_c" and "rho" in names


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
