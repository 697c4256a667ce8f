#!/usr/bin/env python3
"""dunkl-pauli benchmark: one command, four workloads, seeded inputs.

    python3 perfbench/run.py --workload {verify,figures,scan,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
A run generates its inputs from the seed, sets the workload up, repeats one
fixed pass over those inputs until S seconds have gone by, then checks
every output outside the timed region.  Times are calibrated against the
machine's current speed (see ``calibrate.py``).  It prints a table, a JSON
line with every metric and the provenance, and last a JSON line
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in BENCHMARK.json.

With ``--trace 1`` untraced passes alternate with passes that have every
layer's public functions wrapped in spans; per-layer numbers are per traced
pass, and ``trace.overhead_s`` is the median difference between a traced
pass and the untraced pass before it.  Spans are written to
``.bench_build/perfbench/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from calibrate import Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
IMPORT_PROBES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.pkg_s": "s", "import.cli_s": "s", "import.modules": "count",
    "algebra.calls": "count", "algebra.self_s": "s",
    "angular.apply_G.calls": "count", "angular.apply_G.self_s": "s",
    "angular.eigenpair.calls": "count", "angular.eigenpair.self_s": "s",
    "angular.eigenpair_ms": "ms",
    "spectrum.calls": "count", "spectrum.self_s": "s", "spectrum.energy_us": "us",
    "radial_oracle.solves": "count", "radial_oracle.build_s": "s",
    "radial_oracle.solve_s": "s", "radial_oracle.solve_ms": "ms",
    "radial_oracle.grid_points": "count",
    "thermo.sweeps": "count", "thermo.points": "count", "thermo.self_s": "s",
    "thermo.point_us": "us",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    **{f"verify.{s}{suffix}": unit
       for s in ("algebra", "angular", "spectrum", "oracle", "thermo", "findings")
       for suffix, unit in (("_s", "s"), (".checks", "count"))},
    "trace.overhead_s": "s",
}
# printed and recorded, but not in BENCHMARK.json: ops_per_s is wall_s
# restated; the *_raw_s times are setup_s and wall_s before calibration,
# which move with a shared machine's speed; the rest apply to only some
# workloads, and the last line carries only metrics every workload has
EXTRA = {"ops_per_s": "1/s", "setup_raw_s": "s", "wall_raw_s": "s",
         "op_ms.p50": "ms", "op_ms.p90": "ms", "fail_share": "ratio",
         "figure_err_ulp": "ulp", "pin_mismatches": "count",
         "oracle_dev_max": "omega_c", "comparisons": "count",
         "comparisons_beyond_tol": "count"}


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    import dunkl_pauli
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"package_version": dunkl_pauli.__version__, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "src_lines": lines,
            "src_files": len(files), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed}


def child_seconds(cmd: list, env: dict) -> tuple[float, str]:
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170)
    seconds = perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"probe {cmd[2:]} failed:\n{done.stderr[-2000:]}")
    return seconds, done.stdout


def timed_passes(wl, inputs, env, clock, budget: float,
                 tracer=None) -> tuple[list, list]:
    """Repeat the workload's pass until ``budget`` seconds have gone by (at
    least one pass).  With a tracer, every untraced pass is followed by a
    traced one, whose spans are tagged with its index.  Returns (untraced
    passes, traced passes)."""
    untraced, traced, deadline = [], [], perf_counter() + budget
    while not untraced or perf_counter() < deadline:
        untraced.append(wl.run_pass(inputs, 2 * len(untraced), env, clock))
        if tracer is None:
            continue
        tracer.run_id = f"pass{2 * len(traced) + 1}"
        env.traced = True
        tracer.install()
        try:
            traced.append(wl.run_pass(inputs, 2 * len(traced) + 1, env, clock))
        finally:
            tracer.uninstall()
            env.traced = False
    return untraced, traced


def percentile_ms(latencies: list, q: int):
    """The q-th percentile in ms, or None unless at least ten samples lie
    beyond it."""
    if len(latencies) * (100 - q) < 1000:
        return None
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def traced_layers(wl, traced: list, all_spans: list, probes: list,
                  untraced: list) -> dict:
    m = spans.layer_metrics(all_spans, passes=len(traced))
    m["cli.bytes_written"] = statistics.mean(r.bytes_written for r in traced)
    for name in PER_LAYER:
        if name.startswith("verify.") and name.endswith(".checks"):
            m[name] = (statistics.mean(wl.layer_counts(r)[name] for r in traced)
                       if hasattr(wl, "layer_counts") else 0)
    for key in ("pkg_s", "cli_s", "modules"):
        m[f"import.{key}"] = statistics.median(p[key] for p in probes)
    m["trace.overhead_s"] = statistics.median(
        t.calibrated - u.calibrated for u, t in zip(untraced, traced))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dunkl_pauli" / "__init__.py").is_file():
        print(f"error: no dunkl_pauli package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    base = ROOT / ".bench_build" / "perfbench"
    work = base / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = workloads.Env(root=ROOT, work=work)
    try:
        # installed users have byte code; write it before anything is timed
        compileall.compile_dir(str(SRC), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
        child_env = env.child_env()
        probe = [sys.executable, str(HERE / "probe.py")]
        setups, import_probes = [], []  # setups: (wall, calibrated) seconds
        if args.trace:
            for _ in range(IMPORT_PROBES):
                import_probes.append(json.loads(
                    child_seconds([*probe, "import"], child_env)[1]))
        else:
            setup_clock = Clock.for_kind("spawn", ROOT, child_env)
            for _ in range(SETUP_PROBES):
                setup_clock.segment(child_seconds, [
                    *probe, "setup", wl.name, str(args.seed), str(work)],
                    child_env)
                setups.append(setup_clock.lap())

        inputs = wl.generate(args.seed)
        wl.setup(inputs, env)
        clock = Clock.for_kind(wl.calibration, ROOT, child_env)
        tracer = spans.Tracer() if args.trace else None
        untraced, traced = timed_passes(wl, inputs, env, clock, args.seconds,
                                        tracer)
        rss_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                     if wl.name != "cli" else [r.child_rss_kb for r in untraced])
        results = untraced + traced
        verdict = wl.check(inputs, results, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latencies = [t for r in untraced for t in r.latencies]
    p90 = percentile_ms(latencies, 90) if wl.name in ("figures", "scan") else None
    full = {
        "setup_s": ((statistics.median(c for _, c in setups), "s")
                    if setups else None),
        "setup_raw_s": ((statistics.median(w for w, _ in setups), "s")
                        if setups else None),
        "wall_s": (statistics.median(r.calibrated for r in untraced), "s"),
        "wall_raw_s": (statistics.median(r.seconds for r in untraced), "s"),
        "ops_per_s": (statistics.median(r.ops / r.calibrated
                                        for r in untraced), "1/s"),
        "peak_rss_mb": (rss_kb * 1024 / 1e6, "MB"),
        "op_ms.p50": ((statistics.median(latencies) * 1e3, "ms")
                      if latencies and wl.name != "verify" else None),
        "op_ms.p90": (p90, "ms") if p90 is not None else None,
        "fail_share": (verdict.failed / verdict.attempted, "ratio"),
        **verdict.metrics,
    }
    full = {k: v for k, v in full.items() if v is not None}
    assert all((END_TO_END | EXTRA).get(k) == u for k, (_, u) in full.items())
    if args.trace:
        # in-process spans, or those of each traced pass's child processes
        all_spans = spans.concat([tracer.spans,
                                  *(c for r in traced for c in r.child_spans)])
        layers = traced_layers(wl, traced, all_spans, import_probes, untraced)
        for name, unit in PER_LAYER.items():
            full[name] = (layers[name], unit)
        (base / f"spans-{wl.name}-{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "run_id", "n"],
             "spans": all_spans}))
    chosen = PER_LAYER if args.trace else END_TO_END

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced + {len(traced)} traced  "
          f"samples {len(latencies)}")
    for name, (value, unit) in full.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(f"  attempted {verdict.attempted}  failed {verdict.failed}  "
          f"correct {verdict.correct}")
    for note in verdict.notes:
        print(f"  note: {note}")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(untraced),
              "traced_passes": len(traced), "op_samples": len(latencies),
              "pass_s": [r.seconds for r in results],
              "pass_calibrated_s": [r.calibrated for r in results],
              "calibration": {"kind": clock.kind,
                              "median_s": statistics.median(clock.samples),
                              "samples": len(clock.samples)},
              "attempted": verdict.attempted, "failed": verdict.failed,
              "correct": verdict.correct, "notes": verdict.notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in full.items()},
              "provenance": provenance(args.seed)}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": verdict.correct, "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": full[name][0], "unit": full[name][1]}
                    for name in chosen}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
