"""In-memory span recorder for the traced benchmark run.

The tracer wraps the public functions of each dunkl_pauli layer from the
outside: it replaces every module attribute that holds one of those
functions, so names bound with ``from ... import`` are traced as well as the
defining module's own.  A span is (name, layer, start, end, parent, run_id,
n): ``parent`` is the index of the enclosing span or -1, ``run_id`` names the
benchmark pass, and ``n`` is a work count taken from the call's arguments
(grid points for a sweep or an eigenproblem, 0 otherwise).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

NAME, LAYER, START, END, PARENT, RUN, COUNT = range(7)


def _sweep_points(args, kwargs):
    return len(kwargs["tau_grid"] if "tau_grid" in kwargs else args[2])


def _matrix_rows(args, kwargs):
    return len((kwargs["matrix"] if "matrix" in kwargs else args[0])[0])


# layer -> (module, public functions traced, per-function work counters)
LAYERS = {
    "algebra": ("dunkl_pauli.algebra",
                ("commutator_xD", "dunkl_derive", "dunkl_laplacian",
                 "dunkl_laplacian_expanded", "reflect",
                 "angular_momentum_action"), {}),
    "angular": ("dunkl_pauli.angular",
                ("apply_G", "apply_B", "angular_eigenpair"), {}),
    "spectrum": ("dunkl_pauli.spectrum",
                 ("rho", "eta", "energy_over_omega_c", "energy",
                  "energy_sector_form", "radical_identity_check", "hyp1f1"), {}),
    "radial_oracle": ("dunkl_pauli.radial_oracle",
                      ("validate_sector", "oracle_energies",
                       "build_tridiagonal", "lowest_eigenvalues"),
                      {"lowest_eigenvalues": _matrix_rows}),
    "thermo": ("dunkl_pauli.thermo",
               ("sweep", "partition", "log_partition", "direct_sum_partition",
                "helmholtz", "internal_energy", "heat_capacity", "entropy"),
               {"sweep": _sweep_points}),
    "cli": ("dunkl_pauli.cli", ("main",), {}),
    "verify": ("dunkl_pauli.verify",
               ("run_algebra_suite", "run_angular_suite", "run_spectrum_suite",
                "run_oracle_suite", "run_thermo_suite", "discrepancy_report"), {}),
}

VERIFY_SUITES = {"algebra": "run_algebra_suite", "angular": "run_angular_suite",
                 "spectrum": "run_spectrum_suite", "oracle": "run_oracle_suite",
                 "thermo": "run_thermo_suite", "findings": "discrepancy_report"}


class Tracer:
    """Records spans while installed; ``run_id`` tags the spans that follow."""

    def __init__(self, run_id: str = ""):
        self.spans: list[list] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.run_id, count(args, kwargs) if count else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        """Import every layer module and patch each traced function in every
        loaded dunkl_pauli module that binds it."""
        replace = {}
        for layer, (modname, names, counters) in LAYERS.items():
            mod = importlib.import_module(modname)
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = self._wrap(layer, name, fn, counters.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "dunkl_pauli" and not modname.startswith("dunkl_pauli."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, replace[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged, not double-counted)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[END] - s[START]) - covered)
    return out


def layer_metrics(spans, passes: int = 1) -> dict[str, float]:
    """Per-layer metrics of ``passes`` passes' spans (parent indices local
    to the list): counts and times per pass, in seconds unless the name
    says otherwise; ``*_ms`` and ``*_us`` are per call or per point."""
    selfs = self_times(spans)
    by_layer: dict[str, float] = {}
    calls: dict[str, int] = {}
    dur: dict[str, list[float]] = {}
    for s, own in zip(spans, selfs):
        by_layer[s[LAYER]] = by_layer.get(s[LAYER], 0.0) + own
        calls[s[LAYER]] = calls.get(s[LAYER], 0) + 1
        dur.setdefault(s[NAME], []).append(s[END] - s[START])

    def fn_self(name):
        return sum(own for s, own in zip(spans, selfs) if s[NAME] == name)

    def med(name, scale):
        return statistics.median(dur[name]) * scale if name in dur else 0.0

    # thermo points: grid points of sweeps plus point calls not made inside
    # another thermo span (so partition -> log_partition counts once)
    top_thermo = [s for s in spans if s[LAYER] == "thermo"
                  and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != "thermo")]
    points = sum(s[COUNT] if s[NAME] == "sweep" else 1 for s in top_thermo)
    thermo_top_s = sum(s[END] - s[START] for s in top_thermo)
    solves = [s for s in spans if s[NAME] == "lowest_eigenvalues"]

    m = {
        "algebra.calls": calls.get("algebra", 0),
        "algebra.self_s": by_layer.get("algebra", 0.0),
        "angular.apply_G.calls": len(dur.get("apply_G", ())),
        "angular.apply_G.self_s": fn_self("apply_G"),
        "angular.eigenpair.calls": len(dur.get("angular_eigenpair", ())),
        "angular.eigenpair.self_s": fn_self("angular_eigenpair"),
        "angular.eigenpair_ms": med("angular_eigenpair", 1e3),
        "spectrum.calls": calls.get("spectrum", 0),
        "spectrum.self_s": by_layer.get("spectrum", 0.0),
        "spectrum.energy_us": med("energy_over_omega_c", 1e6),
        "radial_oracle.solves": len(solves),
        "radial_oracle.build_s": sum(dur.get("build_tridiagonal", ())),
        "radial_oracle.solve_s": sum(dur.get("lowest_eigenvalues", ())),
        "radial_oracle.solve_ms": med("lowest_eigenvalues", 1e3),
        "radial_oracle.grid_points": sum(s[COUNT] for s in solves),
        "thermo.sweeps": len(dur.get("sweep", ())),
        "thermo.points": points,
        "thermo.self_s": by_layer.get("thermo", 0.0),
        "thermo.point_us": thermo_top_s / points * 1e6 if points else 0.0,
        "cli.self_s": by_layer.get("cli", 0.0),
    }
    for suite, fn in VERIFY_SUITES.items():
        m[f"verify.{suite}_s"] = sum(dur.get(fn, ()))
    return {k: v if k.endswith(("_ms", "_us")) else v / passes
            for k, v in m.items()}


def concat(groups) -> list[list]:
    """Join span lists that each index their parents locally."""
    out: list[list] = []
    for group in groups:
        base = len(out)
        out += [[*s[:PARENT], s[PARENT] + base if s[PARENT] >= 0 else -1,
                 *s[PARENT + 1:]] for s in group]
    return out

