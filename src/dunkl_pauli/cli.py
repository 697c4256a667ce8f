"""Command-line front end: spectrum tables, thermal sweeps, figure bundles,
and the verification suite.

All numeric output is CSV (UTF-8, LF line endings, 17 significant digits)
with metadata on '#'-prefixed comment lines, so repeated runs with the same
flags are byte-identical.  Exit codes: 0 success, 1 verification failure,
2 usage or configuration error (single-line message prefixed 'error:').
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import verify as verify_mod
from .algebra import WignerParams
from .angular import lambda_value
from .spectrum import (SECTORS, SectorState, energy_over_omega_c, eta,
                       lowest_ells, rho)
from .thermo import MODES, QUANTITIES, ThermoInputs, log_grid, sweep


class UsageError(ValueError):
    pass


_SECTORS = {"++": (1, 1), "--": (-1, -1), "+-": (1, -1), "-+": (-1, 1),
            "pp": (1, 1), "mm": (-1, -1), "pm": (1, -1), "mp": (-1, 1)}
_SECTOR_NAMES = {(1, 1): "++", (-1, -1): "--", (1, -1): "+-", (-1, 1): "-+"}
_SECTOR_FILE = {(1, 1): "pp", (-1, -1): "mm", (1, -1): "pm", (-1, 1): "mp"}

# default deformation sweep for the sector-fixed figure family: the diagonal
# nu1 = nu2 over {-0.4 ... 0.4} plus the anti-diagonal nu1 = -nu2
_FIGURE_NU_SWEEP = tuple(
    [(Fraction(k, 5), Fraction(k, 5)) for k in (-2, -1, 0, 1, 2)]
    + [(Fraction(k, 5), Fraction(-k, 5)) for k in (-2, -1, 1, 2)])

_FIGURE_NU_PANELS = {"a": (Fraction(2, 5), Fraction(2, 5)),
                     "b": (Fraction(2, 5), Fraction(-2, 5)),
                     "c": (Fraction(-2, 5), Fraction(2, 5)),
                     "d": (Fraction(-2, 5), Fraction(-2, 5))}
_FIGURE_SECTOR_PANELS = {"a": (1, 1), "b": (-1, -1), "c": (1, -1), "d": (-1, 1)}
_FIGURE_QUANTITY = {1: "Z", 2: "Z", 3: "U", 4: "U",
                    5: "C", 6: "C", 7: "S", 8: "S"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; constructed fully before any computation."""

    subcommand: str
    nu1: str = "0"
    nu2: str = "0"
    sector: str = "++"
    ell: str | None = None
    n_max: int = 3
    l_max: str = "3"
    m_s: str = "both"
    branch: str = "+"
    mode: str = "consistent"
    quantity: str | None = None
    t_min: float = 0.01
    t_max: float = 10.0
    steps: int = 400
    out: str | None = None
    figure: str | None = None
    skip_oracle: bool = False

    def params(self) -> WignerParams:
        try:
            return WignerParams(Fraction(self.nu1), Fraction(self.nu2))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(str(exc)) from exc

    def sector_pair(self) -> tuple[int, int]:
        try:
            return _SECTORS[self.sector]
        except KeyError:
            raise UsageError(
                f"unknown sector {self.sector!r} (use ++, --, +-, -+)") from None

    def branch_sign(self) -> int:
        signs = {"+": 1, "-": -1, "+1": 1, "-1": -1}
        if self.branch not in signs:
            raise UsageError(f"branch must be + or -, got {self.branch!r}")
        return signs[self.branch]

    def ell_fraction(self) -> Fraction | None:
        if self.ell is None:
            return None
        try:
            return Fraction(self.ell)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse ell {self.ell!r}") from None

    def spin_values(self) -> tuple[int, ...]:
        table = {"both": (-1, 1), "+1": (1,), "-1": (-1,), "1": (1,)}
        if self.m_s not in table:
            raise UsageError(f"ms filter must be +1, -1 or both, got {self.m_s!r}")
        return table[self.m_s]

    def tau_grid(self) -> tuple[float, ...]:
        if not 0 < self.t_min < self.t_max < math.inf:
            raise UsageError("need 0 < tmin < tmax, both finite")
        if self.steps < 2:
            raise UsageError("need at least 2 grid points")
        return log_grid(self.t_min, self.t_max, self.steps)

    def validate_common(self) -> None:
        self.params()
        self.sector_pair()
        self.branch_sign()
        self.ell_fraction()
        self.spin_values()
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_max < 0:
            raise UsageError("nmax must be nonnegative")


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def cmd_spectrum(config: RunConfig) -> int:
    config.validate_common()
    params = config.params()
    eps1, eps2 = config.sector_pair()
    branch = config.branch_sign()
    try:
        l_max = Fraction(config.l_max)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse lmax {config.l_max!r}") from None

    single = config.ell_fraction()
    ells = [single] if single is not None else [
        ell for ell in lowest_ells(eps1 * eps2, math.floor(l_max) + 1)
        if ell <= l_max]
    rows = []
    for ell in ells:
        try:
            lam = lambda_value(ell, eps1 * eps2, branch, params)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        rh = rho(ell, eps1 * eps2, branch, params)
        for n in range(config.n_max + 1):
            for m_s in config.spin_values():
                state = SectorState(eps1, eps2, n, ell, m_s, branch)
                rows.append((n, ell, m_s, lam, rh,
                             energy_over_omega_c(state, params)))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))

    nu1, nu2 = params.as_floats()
    et = eta(eps1, eps2, params)
    lines = ["sector,nu1,nu2,n,ell,m_s,branch,lambda,rho,eta,energy_over_omega_c"]
    for n, ell, m_s, lam, rh, energy in rows:
        lines.append(",".join([
            _SECTOR_NAMES[(eps1, eps2)], _fmt(nu1), _fmt(nu2), str(n),
            _fmt(float(ell)), str(m_s), config.branch if config.branch in "+-" else
            ("+" if branch == 1 else "-"),
            _fmt(lam), _fmt(rh), _fmt(et), _fmt(energy)]))
    _write_text(config.out, "\n".join(lines) + "\n")
    return 0


def _ladder(config: RunConfig):
    """(params, sector, ell, rho, eta) for a thermo-style invocation."""
    params = config.params()
    eps1, eps2 = config.sector_pair()
    epsilon = eps1 * eps2
    ell = config.ell_fraction()
    if ell is None:
        ell = lowest_ells(epsilon, 1)[0]
    try:
        rh = rho(ell, epsilon, config.branch_sign(), params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return params, (eps1, eps2), ell, rh, eta(eps1, eps2, params)


def _thermo_csv(quantity: str, config: RunConfig, params, sector, ell,
                rh: float, et: float) -> str:
    curve = sweep(quantity, ThermoInputs(1.0, rh, et, config.mode),
                  config.tau_grid())
    nu1, nu2 = params.as_floats()
    lines = [
        "# dunkl-pauli thermo sweep",
        f"# quantity = {quantity}",
        f"# mode = {config.mode}",
        f"# sector = {_SECTOR_NAMES[sector]}",
        f"# nu1 = {_fmt(nu1)}",
        f"# nu2 = {_fmt(nu2)}",
        f"# ell = {ell}",
        f"# branch = {'+' if config.branch_sign() == 1 else '-'}",
        f"# rho = {_fmt(rh)}",
        f"# eta = {_fmt(et)}",
        "tau,value",
    ]
    lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(curve.grid, curve.values)]
    return "\n".join(lines) + "\n"


def cmd_thermo(config: RunConfig) -> int:
    config.validate_common()
    if config.quantity not in QUANTITIES:
        raise UsageError(
            f"quantity must be one of {sorted(QUANTITIES)}, got {config.quantity!r}")
    params, sector, ell, rh, et = _ladder(config)
    _write_text(config.out,
                _thermo_csv(config.quantity, config, params, sector, ell, rh, et))
    return 0


def _figure_curves(fig_num: int, panel: str, config: RunConfig):
    """Curve specs (label, sector, nu-pair, ell) for one figure panel."""
    override = config.ell_fraction()

    def pick_ell(epsilon: int) -> Fraction:
        default = lowest_ells(epsilon, 1)[0]
        if override is not None:
            half_odd = (2 * override).numerator % 2 == 1
            if (epsilon == -1) == half_odd:
                return override
        return default

    curves = []
    if fig_num % 2 == 1:  # sector fixed by panel, deformation swept
        sector = _FIGURE_SECTOR_PANELS[panel]
        epsilon = sector[0] * sector[1]
        for nu1, nu2 in _FIGURE_NU_SWEEP:
            label = f"nu1_{float(nu1):g}_nu2_{float(nu2):g}"
            curves.append((label, sector, (nu1, nu2), pick_ell(epsilon)))
    else:  # deformation fixed by panel, sector swept
        nu_pair = _FIGURE_NU_PANELS[panel]
        for sector in SECTORS:
            label = f"sector_{_SECTOR_FILE[sector]}"
            curves.append((label, sector, nu_pair, pick_ell(sector[0] * sector[1])))
    return curves


def cmd_figure(config: RunConfig) -> int:
    config.validate_common()
    fig = (config.figure or "").strip().lower()
    if not fig or fig[0] not in "12345678":
        raise UsageError(f"figure must be 1-8 with optional panel a-d, got {fig!r}")
    fig_num = int(fig[0])
    panels = list(fig[1:]) if len(fig) > 1 else ["a", "b", "c", "d"]
    if len(fig) > 2 or any(p not in "abcd" for p in panels):
        raise UsageError(f"figure must be 1-8 with optional panel a-d, got {fig!r}")

    out_dir = Path(config.out or "figures")
    out_dir.mkdir(parents=True, exist_ok=True)
    quantity = _FIGURE_QUANTITY[fig_num]
    for panel in panels:
        manifest = {
            "figure": f"{fig_num}{panel}",
            "quantity": quantity,
            "config": asdict(config),
            "curves": [],
        }
        for label, sector, (nu1, nu2), ell in _figure_curves(fig_num, panel, config):
            params = WignerParams(nu1, nu2)
            epsilon = sector[0] * sector[1]
            rh = rho(ell, epsilon, config.branch_sign(), params)
            et = eta(sector[0], sector[1], params)
            sub = RunConfig(**{**asdict(config), "sector": _SECTOR_NAMES[sector],
                               "nu1": str(nu1), "nu2": str(nu2)})
            csv_text = _thermo_csv(quantity, sub, params, sector, ell, rh, et)
            fname = f"fig{fig_num}{panel}_{quantity}_{label}.csv"
            (out_dir / fname).write_text(csv_text, encoding="utf-8", newline="\n")
            manifest["curves"].append({
                "file": fname,
                "sector": _SECTOR_NAMES[sector],
                "nu1": _fmt(float(nu1)),
                "nu2": _fmt(float(nu2)),
                "ell": str(ell),
                "rho": _fmt(rh),
                "eta": _fmt(et),
                "mode": config.mode,
            })
        (out_dir / f"fig{fig_num}{panel}_manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8", newline="\n")
    return 0


def cmd_verify(config: RunConfig) -> int:
    report = verify_mod.run_all(skip_oracle=config.skip_oracle)
    text = verify_mod.format_report(report)
    if config.out:
        _write_text(config.out, text + "\n")
    print(text)
    return 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-parsable errors and exit code 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


class _SectorAction(argparse.Action):
    """Stores --sector.  argparse on some Python versions (3.11 among them)
    takes the value of --sector=-- for the end-of-options marker, strips it
    and passes []."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu1", default="0", help="first deformation parameter (> -1/2)")
    p.add_argument("--nu2", default="0", help="second deformation parameter (> -1/2)")
    p.add_argument("--sector", default="++", action=_SectorAction,
                   help="parity sector: ++, --, +-, -+ (or pp/mm/pm/mp)")
    p.add_argument("--ell", default=None,
                   help="angular quantum number (integer or half-odd, e.g. 1/2)")
    p.add_argument("--branch", default="+", help="sign branch of lambda: + or -")
    p.add_argument("--mode", default="consistent", choices=list(MODES),
                   help="thermodynamic evaluation mode")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="dunkl-pauli",
                     description="Deformed Landau-level spectra and thermodynamics")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    ps = sub.add_parser("spectrum", help="closed-form level table as CSV")
    _add_common(ps)
    ps.add_argument("--nmax", type=int, default=3, help="largest radial n")
    ps.add_argument("--lmax", default="3", help="largest ell to enumerate")
    ps.add_argument("--ms", default="both", help="spin filter: +1, -1 or both")

    pt = sub.add_parser("thermo", help="thermal-quantity sweep as CSV")
    _add_common(pt)
    pt.add_argument("--quantity", required=True, choices=sorted(QUANTITIES),
                    help="which quantity to sweep")
    pt.add_argument("--tmin", type=float, default=0.01, help="lowest tau = KT/omega_c")
    pt.add_argument("--tmax", type=float, default=10.0, help="highest tau")
    pt.add_argument("--steps", type=int, default=400, help="log-spaced grid points")

    pf = sub.add_parser("figure", help="CSV bundle for one published-figure layout")
    _add_common(pf)
    pf.add_argument("--figure", required=True,
                    help="figure id 1-8 with optional panel letter, e.g. 2a")
    pf.add_argument("--tmin", type=float, default=0.01)
    pf.add_argument("--tmax", type=float, default=10.0)
    pf.add_argument("--steps", type=int, default=400)

    pv = sub.add_parser("verify", help="run the verification suites")
    pv.add_argument("--skip-oracle", action="store_true",
                    help="exact suites only (skips the finite-difference oracle)")
    pv.add_argument("--out", default=None, help="also write the report to a file")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        nu1=getattr(args, "nu1", "0"),
        nu2=getattr(args, "nu2", "0"),
        sector=getattr(args, "sector", "++"),
        ell=getattr(args, "ell", None),
        n_max=getattr(args, "nmax", 3),
        l_max=getattr(args, "lmax", "3"),
        m_s=getattr(args, "ms", "both"),
        branch=getattr(args, "branch", "+"),
        mode=getattr(args, "mode", "consistent"),
        quantity=getattr(args, "quantity", None),
        t_min=getattr(args, "tmin", 0.01),
        t_max=getattr(args, "tmax", 10.0),
        steps=getattr(args, "steps", 400),
        out=getattr(args, "out", None),
        figure=getattr(args, "figure", None),
        skip_oracle=getattr(args, "skip_oracle", False),
    )


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "thermo": cmd_thermo,
    "figure": cmd_figure,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        return _COMMANDS[config.subcommand](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
