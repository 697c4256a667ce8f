"""The benchmark's four workloads.

Each workload turns a seed into plain-data inputs (``generate``), imports
and warms the layers it uses (``setup``), runs one fixed pass over its
inputs (``run_pass``), and checks every output after the timed region
(``check``).  Every pass repeats the same operations, so ``check``
counts each operation once: ``attempted`` is the number of operations in a
pass, and an operation is failed if it fails in any pass or its output
differs between passes.  Both counts then depend on the seed alone, not on
how many passes fit in the run.  A pass runs in segments, each timed by
the run's calibration clock (``calibrate.Clock``), which samples the
calibration the workload names between them.  All workloads are closed-loop and single-client: the
benchmark process issues the next operation only after the previous one
has finished.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

SECTORS = ((1, 1), (-1, -1), (1, -1), (-1, 1))
# the CLI's documented sector aliases (++, --, +-, -+)
SECTOR_ARG = {(1, 1): "pp", (-1, -1): "mm", (1, -1): "pm", (-1, 1): "mp"}
ORACLE_TOLERANCE = 1e-5  # the package's own oracle tolerance

# Known defects, counted as failed operations but not as a broken run:
# ROADMAP item 0, the two Z pins recorded on another platform's libm (1 ulp).
KNOWN_PIN_MISMATCHES = frozenset({"fig1c_Z_nu1_0.2_nu2_-0.2.csv",
                                  "fig1d_Z_nu1_-0.2_nu2_0.2.csv"})


def known_oracle_defect(sector, ell, nu) -> bool:
    """ROADMAP item 2: the uniform-grid oracle can miss the closed form
    beyond tolerance at odd-sector ell = 1/2 with nu1 + nu2 < 0.  Only there
    does the radial 1/r^2 coefficient, K = ((p + 1)^2 - 1)/4 with
    p = 1 + 2 nu1 + 2 nu2, fall below 3/4 (K < 3/4 exactly when p < 1; even
    sectors keep K >= 3/4, odd ell >= 3/2 keep K >= 15/4); it nears the
    critical -1/4 as nu1 + nu2 -> -1."""
    return (sector[0] * sector[1] == -1 and Fraction(ell) == Fraction(1, 2)
            and Fraction(nu[0]) + Fraction(nu[1]) < 0)


def random_nu(rng: random.Random) -> Fraction:
    """A rational deformation drawn across the whole valid range (-1/2, 2]."""
    return Fraction(rng.randint(-49, 200), 100)


def lowest_ells(epsilon: int, count: int = 2) -> list[Fraction]:
    first = Fraction(1) if epsilon == 1 else Fraction(1, 2)
    return [first + k for k in range(count)]


@dataclass
class Env:
    """Where a run lives: the checkout root, its ``src``, and a scratch
    directory inside the checkout."""

    root: Path
    work: Path
    traced: bool = False

    @property
    def src(self) -> Path:
        return self.root / "src"

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env


@dataclass
class PassResult:
    ops: int
    seconds: float  # wall time of the pass's segments
    calibrated: float = 0.0  # the same, in calibrated seconds
    latencies: list = field(default_factory=list)  # seconds, one per op
    output: object = None
    bytes_written: int = 0
    child_rss_kb: int = 0
    child_spans: list = field(default_factory=list)


@dataclass
class Verdict:
    attempted: int
    failed: int
    correct: bool
    notes: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)


class Verify:
    """All five ``verify`` suites plus ``discrepancy_report()``, in-process.

    Why: the package's own correctness gate, which users run and the test
    suite runs three times.  Exact ``Fraction`` arithmetic in algebra and
    angular is most of its time, so a faster polynomial representation
    should move this workload and no other; a small share is radial_oracle.
    It should not move with CLI start-up or figure writing.
    Operation: one check (14,226 per pass); a failed check is a failed op.
    """

    name = "verify"
    calibration = "interpreter"
    expected = {"algebra": 2800, "angular": 1700, "spectrum": 9003,
                "oracle": 192, "thermo": 531}

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"algebra_seed": rng.randrange(2 ** 32),
                "angular_seed": rng.randrange(2 ** 32)}

    def setup(self, inputs: dict, env: Env) -> None:
        from dunkl_pauli import verify
        from dunkl_pauli.algebra import WignerParams
        from dunkl_pauli.radial_oracle import validate_sector
        from dunkl_pauli.spectrum import OscillatorScale
        verify.run_algebra_suite(n_polys=2, seed=inputs["algebra_seed"])
        verify.run_thermo_suite()
        verify.discrepancy_report()
        validate_sector((1, 1), WignerParams(0, 0), OscillatorScale(), (1,), 0)

    def run_pass(self, inputs: dict, index: int, env: Env, clock) -> PassResult:
        from dunkl_pauli import verify as v
        suites = {
            "algebra": clock.segment(lambda: v.run_algebra_suite(
                seed=inputs["algebra_seed"]))[0],
            "angular": clock.segment(lambda: v.run_angular_suite(
                seed=inputs["angular_seed"]))[0],
            "spectrum": clock.segment(v.run_spectrum_suite)[0],
            "oracle": clock.segment(v.run_oracle_suite)[0],
            "thermo": clock.segment(v.run_thermo_suite)[0],
        }
        findings = clock.segment(v.discrepancy_report)[0]
        seconds, calibrated = clock.lap()
        counts = {k: (s.passed, s.failed) for k, s in suites.items()}
        return PassResult(ops=sum(p + f for p, f in counts.values()),
                          seconds=seconds, calibrated=calibrated,
                          output={"counts": counts,
                                  "findings": [f.confirmed for f in findings],
                                  "counterexamples": [c for s in suites.values()
                                                      for c in s.counterexamples]})

    def check(self, inputs: dict, results: list, env: Env) -> Verdict:
        # the suites report counts, not which check failed: a check is
        # failed if it fails in the pass with the most failures
        first = results[0].output
        attempted = sum(p + f for p, f in first["counts"].values())
        failed = max(sum(f for _, f in r.output["counts"].values())
                     for r in results)
        notes = []
        for r in results:
            if r.output != first:
                notes.append("outputs differ between passes")
            got = {k: p + f for k, (p, f) in r.output["counts"].items()}
            if got != self.expected:
                notes.append(f"check counts {got} differ from {self.expected}")
            if not all(r.output["findings"]) or len(r.output["findings"]) != 4:
                notes.append(f"findings not all confirmed: {r.output['findings']}")
        notes += [c for r in results for c in r.output["counterexamples"]][:5]
        return Verdict(attempted, failed, failed == 0 and not notes, notes)

    @staticmethod
    def layer_counts(result: PassResult) -> dict:
        m = {f"verify.{k}.checks": p + f
             for k, (p, f) in result.output["counts"].items()}
        m["verify.findings.checks"] = len(result.output["findings"])
        return m


class Figures:
    """All eight figure layouts (32 panels: 208 CSVs, 32 manifests) written
    through ``cli.main(["figure", ...])`` into a directory in the checkout.

    Why: the paper-reproduction deliverable.  It runs thermo on long grids
    (400 points per ladder) plus CSV formatting and file writes, and no
    exact algebra and no oracle.  Decimal figures and a vectorised sweep
    (ROADMAP items 0 and 3) should move it; the polynomial representation
    (item 1) should not.
    Operation: one CSV; a CSV whose SHA-256 differs from the pinned
    checksum is a failed op (2 of 208 on some platforms, ROADMAP item 0).
    The seed sets the layout order and the values sampled for the
    high-precision check.
    """

    name = "figures"
    calibration = "interpreter"
    sample_size = 300
    rel_limit = 1e-9  # a gross-error check; figure_err_ulp reports the ulps

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        order = list(range(1, 9))
        rng.shuffle(order)
        sample = [(rng.randrange(208), rng.randrange(400))
                  for _ in range(self.sample_size)]
        return {"order": order, "sample": sample}

    def setup(self, inputs: dict, env: Env) -> None:
        from dunkl_pauli import cli
        with tempfile.TemporaryDirectory(dir=env.work) as tmp:
            if cli.main(["figure", "--figure", "1a", "--steps", "8",
                         "--out", tmp]) != 0:
                raise RuntimeError("figure warm-up failed")

    def run_pass(self, inputs: dict, index: int, env: Env, clock) -> PassResult:
        from dunkl_pauli import cli
        out = env.work / "figures"
        out.mkdir(parents=True, exist_ok=True)
        stamps = []  # (time, file name, or None where a layout starts)
        original = Path.write_text

        def stamped(path, *args, **kwargs):
            n = original(path, *args, **kwargs)
            stamps.append((perf_counter(), path.name))
            return n

        def layout(fig):
            stamps.append((perf_counter(), None))
            return cli.main(["figure", "--figure", str(fig), "--out", str(out)])

        Path.write_text = stamped
        try:
            codes = [clock.segment(layout, fig)[0] for fig in inputs["order"]]
        finally:
            Path.write_text = original
        seconds, calibrated = clock.lap()
        latencies, prev = [], None
        for t, name in stamps:
            if name is not None and name.endswith(".csv"):
                latencies.append(t - prev)
            prev = t
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.glob("*.csv"))}
        manifests = len(list(out.glob("*_manifest.json")))
        size = sum(p.stat().st_size for p in out.iterdir())
        return PassResult(ops=len(latencies), seconds=seconds,
                          calibrated=calibrated, latencies=latencies,
                          bytes_written=size,
                          output={"codes": codes, "digests": digests,
                                  "manifests": manifests})

    def check(self, inputs: dict, results: list, env: Env) -> Verdict:
        pins = json.loads((env.root / "tests" / "data" /
                           "figure_checksums.json").read_text())
        notes = []
        first = results[0].output["digests"]
        mismatched, unsteady = set(), set()
        for r in results:
            digests = r.output["digests"]
            mismatched |= {n for n in pins if digests.get(n) != pins[n]}
            unsteady |= {n for n in pins if digests.get(n) != first.get(n)}
            if any(r.output["codes"]) or r.output["manifests"] != 32:
                notes.append(f"exit codes {r.output['codes']}, "
                             f"{r.output['manifests']} manifests")
            if set(digests) != set(pins):
                notes.append(f"{len(digests)} CSVs written, {len(pins)} pinned")
        if unsteady:
            notes.append("CSV bytes differ between passes: "
                         + ", ".join(sorted(unsteady)))
        attempted, failed = len(pins), len(mismatched | unsteady)
        if mismatched - KNOWN_PIN_MISMATCHES:
            notes.append("unexpected pin mismatches: "
                         + ", ".join(sorted(mismatched - KNOWN_PIN_MISMATCHES)))
        worst_ulp, worst_rel = self._sample_error(inputs, env.work / "figures")
        if worst_rel > self.rel_limit:
            notes.append(f"sampled value off by {worst_rel:.3g} relative")
        verdict = Verdict(attempted, failed, not notes, notes)
        verdict.metrics["figure_err_ulp"] = (worst_ulp, "ulp")
        verdict.metrics["pin_mismatches"] = (len(mismatched), "count")
        return verdict

    def _sample_error(self, inputs: dict, out: Path):
        import reference
        files = sorted(out.glob("*.csv"))
        parsed = {}
        worst_ulp, worst_rel = 0, 0.0
        for i, row in inputs["sample"]:
            if i not in parsed:
                parsed[i] = reference.read_curve(files[i])
            meta, rows = parsed[i]
            tau, value = rows[row]
            ref = reference.closed_form(meta["quantity"], meta["mode"],
                                        1.0 / tau, meta["rho"], meta["eta"])
            worst_ulp = max(worst_ulp, reference.ulp_distance(value, float(ref)))
            worst_rel = max(worst_rel, reference.relative_error(value, ref))
        return worst_ulp, worst_rel


class Scan:
    """Seeded rational (nu1, nu2) drawn across the whole valid range
    nu > -1/2.  For each pair and all four sectors: the closed-form ladders
    (rho, eta, energy for the two lowest ells, n <= 2, both spins),
    ``validate_sector`` on the same states at the package's 1e-5 tolerance,
    and short thermo sweeps (four tau per ladder, all five quantities).

    Why: radial_oracle is most of this workload and a small share of verify;
    thermo runs in the opposite shape from figures (many ladders, few points
    each).  A sharper or cheaper oracle (ROADMAP item 2) should move it;
    figure formatting and CLI start-up should not.
    Operation: one nu pair; a pair with any oracle comparison beyond
    tolerance is a failed op.  Odd-sector, ell = 1/2 misses near nu = -1/2
    are the known uniform-grid defect (ROADMAP item 2) and are counted.
    """

    name = "scan"
    calibration = "lapack"
    pairs = 12
    taus = 4

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        items = []
        for _ in range(self.pairs):
            nu = (str(random_nu(rng)), str(random_nu(rng)))
            taus = sorted({10 ** rng.uniform(-1.5, 1.0) for _ in range(self.taus)})
            items.append({"nu": nu, "taus": taus})
        return {"items": items}

    def setup(self, inputs: dict, env: Env) -> None:
        from dunkl_pauli import radial_oracle, spectrum, thermo
        from dunkl_pauli.algebra import WignerParams
        radial_oracle.validate_sector((1, 1), WignerParams(0, 0),
                                      spectrum.OscillatorScale(), (1,), 0)
        thermo.sweep("Z", thermo.ThermoInputs(1.0, 1.5, 0.5), (0.5, 1.0))

    def run_pass(self, inputs: dict, index: int, env: Env, clock) -> PassResult:
        from dunkl_pauli import radial_oracle, spectrum, thermo
        from dunkl_pauli.algebra import WignerParams
        scale = spectrum.OscillatorScale()
        work = [(WignerParams(Fraction(a), Fraction(b)), item["taus"])
                for item in inputs["items"] for a, b in [item["nu"]]]

        def one_pair(params, taus):
            pair = []
            for sector in SECTORS:
                epsilon = sector[0] * sector[1]
                ells = lowest_ells(epsilon)
                et = spectrum.eta(sector[0], sector[1], params)
                ladder = {(ell, n, m_s): spectrum.energy_over_omega_c(
                              spectrum.SectorState(*sector, n, ell, m_s), params)
                          for ell in ells for n in range(3) for m_s in (1, -1)}
                report = radial_oracle.validate_sector(
                    sector, params, scale, ells, 2, None, ORACLE_TOLERANCE)
                curves = [thermo.sweep(q, thermo.ThermoInputs(
                              1.0, spectrum.rho(ell, epsilon, 1, params), et), taus)
                          for ell in ells for q in thermo.QUANTITIES]
                pair.append((sector, ladder,
                             [(r.ell, r.n, r.m_s, r.oracle, r.closed_form)
                              for r in report.rows],
                             [c.values for c in curves]))
            return pair

        timed = [clock.segment(one_pair, *w) for w in work]
        seconds, calibrated = clock.lap()
        return PassResult(ops=len(work), seconds=seconds, calibrated=calibrated,
                          latencies=[t for _, t in timed],
                          output=[pair for pair, _ in timed])

    def check(self, inputs: dict, results: list, env: Env) -> Verdict:
        beyond = compared = 0
        worst = 0.0
        notes = []
        bad_pairs = set()
        for k, r in enumerate(results):
            if r.output != results[0].output:
                notes.append("outputs differ between passes")
            first = k == 0  # comparisons are counted in one pass
            for i, (item, pair) in enumerate(zip(inputs["items"], r.output)):
                if pair != results[0].output[i]:
                    bad_pairs.add(i)
                for sector, ladder, rows, curves in pair:
                    if len(rows) != 12 or len(curves) != 10:
                        notes.append(f"incomplete output for nu={item['nu']}")
                    for ell, n, m_s, oracle, closed in rows:
                        compared += first
                        if closed != ladder.get((ell, n, m_s)):
                            notes.append(f"closed form differs from the ladder "
                                         f"at nu={item['nu']} {sector} {ell} {n}")
                        dev = abs(oracle - closed)
                        worst = max(worst, dev)
                        if not dev <= ORACLE_TOLERANCE:
                            beyond += first
                            bad_pairs.add(i)
                            if not known_oracle_defect(sector, ell,
                                                       item["nu"]):
                                notes.append(f"oracle deviation {dev:.3g} at "
                                             f"nu={item['nu']} {sector} ell={ell}")
        verdict = Verdict(len(inputs["items"]), len(bad_pairs), not notes,
                          notes[:20])
        verdict.metrics["oracle_dev_max"] = (worst, "omega_c")
        verdict.metrics["comparisons_beyond_tol"] = (beyond, "count")
        verdict.metrics["comparisons"] = (compared, "count")
        return verdict


class Cli:
    """A closed loop with one client: each request runs
    ``python -m dunkl_pauli.cli`` as a fresh child process, drawn from a
    seeded mix of ``spectrum`` and ``thermo`` requests (nu, sector, ell,
    quantity, mode and grid size all seeded).  Every pass runs the same
    four requests, two of each command in seeded order.

    Why: CLI users pay the import on every call, and here that is most of
    the time.  Lazy imports (the cold-start target) should move this
    workload and nowhere else, since the others import once, in set-up.
    Operation: one invocation; it fails on a non-zero exit or when its
    stdout differs from an in-process ``cli.main`` run with the same args.
    """

    name = "cli"
    calibration = "spawn"
    commands = ("spectrum", "spectrum", "thermo", "thermo")
    timeout_s = 120

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        commands = list(self.commands)
        rng.shuffle(commands)
        reqs = []
        for command in commands:
            sector = rng.choice(SECTORS)
            epsilon = sector[0] * sector[1]
            argv = [f"--nu1={random_nu(rng)}", f"--nu2={random_nu(rng)}",
                    f"--sector={SECTOR_ARG[sector]}"]
            if command == "spectrum":
                if rng.random() < 0.5:
                    argv.append(f"--ell={rng.choice(lowest_ells(epsilon, 3))}")
                argv += [f"--nmax={rng.randint(0, 3)}",
                         f"--lmax={rng.choice(lowest_ells(epsilon, 4))}",
                         f"--ms={rng.choice(('both', '+1', '-1'))}"]
                reqs.append(["spectrum", *argv])
            else:
                argv += [f"--ell={rng.choice(lowest_ells(epsilon, 3))}",
                         f"--quantity={rng.choice('ZFUCS')}",
                         f"--mode={rng.choice(('consistent', 'paper-faithful'))}",
                         f"--steps={rng.choice((50, 100, 200, 400))}"]
                reqs.append(["thermo", *argv])
        return {"requests": reqs}

    def setup(self, inputs: dict, env: Env) -> None:
        import dunkl_pauli.cli  # noqa: F401  (what every child imports)

    def run_pass(self, inputs: dict, index: int, env: Env, clock) -> PassResult:
        here = Path(__file__).resolve().parent
        latencies, outputs, rss, spans = [], [], 0, []
        child_env = env.child_env()
        for argv in inputs["requests"]:
            if env.traced:
                fd, spans_file = tempfile.mkstemp(suffix=".json", dir=env.work)
                os.close(fd)
                cmd = [sys.executable, str(here / "trace_child.py"), spans_file,
                       f"pass{index}", *argv]
            else:
                cmd = [sys.executable, "-m", "dunkl_pauli.cli", *argv]
            (code, out, ru_kb), seconds = clock.segment(
                run_child, cmd, child_env, env, self.timeout_s)
            latencies.append(seconds)
            outputs.append((argv, code, out))
            rss = max(rss, ru_kb)
            if env.traced:
                spans.append(json.loads(Path(spans_file).read_text() or "[]"))
                os.unlink(spans_file)
        seconds, calibrated = clock.lap()
        return PassResult(ops=len(outputs), seconds=seconds,
                          calibrated=calibrated, latencies=latencies,
                          output=outputs, child_rss_kb=rss, child_spans=spans,
                          bytes_written=sum(len(o) for _, _, o in outputs))

    def check(self, inputs: dict, results: list, env: Env) -> Verdict:
        from dunkl_pauli import cli
        expected = {}
        bad = set()
        notes = []
        for r in results:
            for argv, code, out in r.output:
                key = tuple(argv)
                if key not in expected:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = cli.main(list(argv))
                    expected[key] = (rc, buf.getvalue().encode("utf-8"))
                if code != 0 or (code, out) != expected[key]:
                    bad.add(key)
                    notes.append(f"{' '.join(argv)}: exit {code}, stdout "
                                 f"{'matches' if out == expected[key][1] else 'differs'}")
        return Verdict(len(inputs["requests"]), len(bad), not bad, notes[:20])


def run_child(cmd: list, child_env: dict, env: Env, timeout_s: float):
    """Run one child in the checkout to completion; return (exit code,
    stdout bytes, peak RSS in KiB).  It is killed if it outlives
    ``timeout_s``; its stderr is echoed when it fails."""
    with tempfile.TemporaryFile(dir=env.work) as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env, cwd=env.root)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode("utf-8", "replace")[-2000:])
    return proc.returncode, out, usage.ru_maxrss


WORKLOADS = {w.name: w for w in (Verify(), Figures(), Scan(), Cli())}

