"""Command-line front end: spectrum tables, thermal sweeps, figure bundles,
and the verification suite.

All numeric output is CSV (UTF-8, LF line endings, 17 significant digits)
with metadata on '#'-prefixed comment lines, so repeated runs with the same
flags are byte-identical.  Exit codes: 0 success, 1 verification failure,
2 usage or configuration error (single-line message prefixed 'error:').
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import WignerParams
from .angular import lambda_value
from .spectrum import (SECTORS, SectorState, energy_over_omega_c, eta,
                       lowest_ells, rho)

# thermo, verify and json are imported inside the commands that use them;
# numpy by figure, verify's oracle (and scipy) and thermo beyond
# rounding._COLD points


def _sector_name(sector: tuple[int, int], signs: str = "+-") -> str:
    """'+-' for the sector (1, -1); with signs='pm', its file code 'pm'."""
    return "".join(signs[0] if eps == 1 else signs[1] for eps in sector)


# every spelling --sector accepts: the four names and their file codes
_SECTOR_BY_NAME = {_sector_name(sector, signs): sector
                   for signs in ("+-", "pm") for sector in SECTORS}
_BRANCH_SIGNS = {"+": 1, "-": -1, "+1": 1, "-1": -1}
_SPIN_FILTERS = {"both": (-1, 1), "+1": (1,), "-1": (-1,), "1": (1,)}

# default deformation sweep for the sector-fixed figure family: the diagonal
# nu1 = nu2 over {-0.4 ... 0.4} plus the anti-diagonal nu1 = -nu2
_FIGURE_NU_SWEEP = tuple(
    [(Fraction(k, 5), Fraction(k, 5)) for k in (-2, -1, 0, 1, 2)]
    + [(Fraction(k, 5), Fraction(-k, 5)) for k in (-2, -1, 1, 2)])

_FIGURE_NU_PANELS = {"a": (Fraction(2, 5), Fraction(2, 5)),
                     "b": (Fraction(2, 5), Fraction(-2, 5)),
                     "c": (Fraction(-2, 5), Fraction(2, 5)),
                     "d": (Fraction(-2, 5), Fraction(-2, 5))}
_FIGURE_SECTOR_PANELS = dict(zip("abcd", SECTORS))
_FIGURE_QUANTITY = {1: "Z", 2: "Z", 3: "U", 4: "U",
                    5: "C", 6: "C", 7: "S", 8: "S"}
# argparse choices, spelled here so that parsing needs no thermo import:
# thermo.MODES and sorted(thermo.QUANTITIES)
_MODES = ("consistent", "paper-faithful")
_QUANTITIES = ("C", "F", "S", "U", "Z")


def _fraction(option: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {option} {text!r}") from None


def _validate(args: argparse.Namespace) -> None:
    """Check every option of the parsed subcommand before any computation.

    The converted values are added to ``args`` under their own names:
    ``params``, ``sector_pair``, ``sign``, ``ell_value``, ``spins``,
    ``lmax_value``, ``fig_num``, ``panels`` and ``taus``.  The options keep
    the spelling they were given, which a figure manifest records.  A bad
    value raises ValueError, which ``main`` reports as a usage error.
    """
    if "nu1" in args:
        try:
            args.params = WignerParams(args.nu1, args.nu2)
        except ZeroDivisionError as exc:
            raise ValueError(str(exc)) from None
        if args.sector not in _SECTOR_BY_NAME:
            raise ValueError(
                f"unknown sector {args.sector!r} (use ++, --, +-, -+)")
        args.sector_pair = _SECTOR_BY_NAME[args.sector]
    if "branch" in args:
        if args.branch not in _BRANCH_SIGNS:
            raise ValueError(f"branch must be + or -, got {args.branch!r}")
        args.sign = _BRANCH_SIGNS[args.branch]
    if "ell" in args:
        args.ell_value = None if args.ell is None else _fraction("ell", args.ell)
    if "ms" in args:
        if args.ms not in _SPIN_FILTERS:
            raise ValueError(f"ms filter must be +1, -1 or both, got {args.ms!r}")
        args.spins = _SPIN_FILTERS[args.ms]
        if args.nmax < 0:
            raise ValueError("nmax must be nonnegative")
        args.lmax_value = _fraction("lmax", args.lmax)
    if "figure" in args:
        fig = args.figure.strip().lower()
        # fig[1:] is empty (all four panels) or one panel letter
        if len(fig) not in (1, 2) or fig[0] not in "12345678" \
                or fig[1:] not in "abcd":
            raise ValueError(
                f"figure must be 1-8 with optional panel a-d, got {fig!r}")
        args.fig_num, args.panels = int(fig[0]), fig[1:] or "abcd"
    if "steps" in args:  # log_grid refuses a bad tmin, tmax or steps
        from .rounding import _COLD
        from .thermo import log_grid
        if "figure" in args or args.steps > _COLD:  # its curves load numpy:
            import numpy  # noqa: F401  (load it first, so the grid uses arrays too)
        args.taus = log_grid(args.tmin, args.tmax, args.steps)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def cmd_spectrum(args: argparse.Namespace) -> int:
    params, sign = args.params, args.sign
    eps1, eps2 = args.sector_pair
    epsilon = eps1 * eps2

    def levels(ell):
        """The table rows of one ell: (n, ell, m_s, lam, rho, energy)."""
        lam = lambda_value(ell, epsilon, sign, params)
        rh = rho(ell, epsilon, sign, params)
        rows = [(n, ell, m_s, lam, rh, energy_over_omega_c(
                    SectorState(eps1, eps2, n, ell, m_s, sign), params))
                for n in range(args.nmax + 1) for m_s in args.spins]
        if not all(math.isfinite(x) for row in rows for x in row[3:]):
            raise ValueError("the level table overflows a float at these "
                             "options (nu1, nu2 or ell too large)")
        return rows

    if args.ell_value is not None:
        ells = [args.ell_value]
    else:
        first = lowest_ells(epsilon, 1)[0]
        count = math.floor(args.lmax_value - first) + 1
        if count > 0:  # a table too large for a float overflows at its last ell
            levels(first + count - 1)
        ells = lowest_ells(epsilon, count)
    rows = sorted(row for ell in ells for row in levels(ell))  # by (n, ell, m_s)

    nu1, nu2 = params.as_floats()
    et = eta(eps1, eps2, params)
    lines = ["sector,nu1,nu2,n,ell,m_s,branch,lambda,rho,eta,energy_over_omega_c"]
    for n, ell, m_s, lam, rh, energy in rows:
        lines.append(",".join([
            _sector_name(args.sector_pair), _fmt(nu1), _fmt(nu2), str(n),
            _fmt(float(ell)), str(m_s), "+" if sign == 1 else "-",
            _fmt(lam), _fmt(rh), _fmt(et), _fmt(energy)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _ladder(sector, params: WignerParams, ell: Fraction, sign: int):
    """(rho, eta) of one thermal ladder."""
    return rho(ell, sector[0] * sector[1], sign, params), eta(*sector, params)


def _sweeps(args: argparse.Namespace, quantity: str, ladders):
    """One ``thermo.sweeps`` call over the ladders (sector, params, ell, rho,
    eta) on the temperature grid of ``args``: their curves, or a ValueError
    that names the ladder with a value the thermo kernel cannot settle."""
    from .rounding import Unsettled
    from .thermo import ThermoInputs, sweeps
    try:
        return sweeps(quantity, [ThermoInputs(1.0, rh, et, args.mode)
                                 for *_, rh, et in ladders], args.taus)
    except Unsettled as exc:
        *_, ell, rh, et = ladders[exc.index // len(args.taus)]
        raise ValueError(
            f"cannot evaluate {quantity} on the ladder at ell = {float(ell):.6g} "
            f"(rho = {rh:.6g}, eta = {et:.6g}) for tau in "
            f"[{args.tmin:g}, {args.tmax:g}]: {exc}") from None


def _rows(taus) -> str:
    """A thermo CSV's data rows on ``taus``: a %-template for its float values."""
    return "".join(f"{_fmt(t)},%.17g\n" for t in taus)


def _thermo_csv(args: argparse.Namespace, quantity: str, ladder, data: str) -> str:
    """The CSV of one ladder's curve of ``quantity``; ``data`` is its rows,
    ``_rows`` of its grid filled with the curve's values."""
    sector, params, ell, rh, et = ladder
    nu1, nu2 = params.as_floats()
    lines = [
        "# dunkl-pauli thermo sweep",
        f"# quantity = {quantity}",
        f"# mode = {args.mode}",
        f"# sector = {_sector_name(sector)}",
        f"# nu1 = {_fmt(nu1)}",
        f"# nu2 = {_fmt(nu2)}",
        f"# ell = {ell}",
        f"# branch = {'+' if args.sign == 1 else '-'}",
        f"# rho = {_fmt(rh)}",
        f"# eta = {_fmt(et)}",
        "tau,value",
    ]
    return "\n".join(lines) + "\n" + data


def cmd_thermo(args: argparse.Namespace) -> int:
    sector, params, ell = args.sector_pair, args.params, args.ell_value
    if ell is None:
        ell = lowest_ells(sector[0] * sector[1], 1)[0]
    ladder = (sector, params, ell, *_ladder(sector, params, ell, args.sign))
    [curve] = _sweeps(args, args.quantity, [ladder])
    _write_text(args.out, _thermo_csv(args, args.quantity, ladder,
                                      _rows(args.taus) % curve.values))
    return 0


def _figure_curves(fig_num: int, panel: str, override: Fraction | None,
                   sign: int):
    """(label, (sector, params, ell, rho, eta)) of each curve of one figure
    panel.  An ell override applies to the sectors whose parity it has."""

    def curve(label: str, sector, params: WignerParams):
        epsilon = sector[0] * sector[1]
        ell = lowest_ells(epsilon, 1)[0]
        if override is not None:
            half_odd = (2 * override).numerator % 2 == 1
            if (epsilon == -1) == half_odd:
                ell = override
        return label, (sector, params, ell, *_ladder(sector, params, ell, sign))

    if fig_num % 2 == 1:  # sector fixed by panel, deformation swept
        sector = _FIGURE_SECTOR_PANELS[panel]
        return [curve(f"nu1_{float(nu1):g}_nu2_{float(nu2):g}", sector,
                      WignerParams(nu1, nu2)) for nu1, nu2 in _FIGURE_NU_SWEEP]
    # deformation fixed by panel, sector swept
    params = WignerParams(*_FIGURE_NU_PANELS[panel])
    return [curve(f"sector_{_sector_name(sector, 'pm')}", sector, params)
            for sector in SECTORS]


def _provenance() -> dict:
    """What produced a figure bundle: package, Python, numpy, platform."""
    import platform

    import numpy

    from . import __version__
    return {"package_version": __version__,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": sys.platform, "machine": platform.machine()}


def cmd_figure(args: argparse.Namespace) -> int:
    import json
    # every CSV and manifest is rendered before anything is written, so an
    # ell that a sector rejects, or a ladder the thermo kernel cannot
    # evaluate, leaves no partial bundle and no empty directory behind
    panels = {panel: _figure_curves(args.fig_num, panel, args.ell_value, args.sign)
              for panel in args.panels}
    quantity = _FIGURE_QUANTITY[args.fig_num]
    config = {"subcommand": args.subcommand, "figure": args.figure,
              "ell": args.ell, "branch": args.branch, "mode": args.mode,
              "t_min": args.tmin, "t_max": args.tmax, "steps": args.steps,
              "out": args.out}
    provenance = _provenance()
    rows = _rows(args.taus)
    # the thermo kernel reads only (rho, |eta|) of a ladder: each distinct
    # one is evaluated in the first panel that shows it and formatted once
    data = {}
    files = {}
    for panel, curves in panels.items():
        manifest = {
            "figure": f"{args.fig_num}{panel}",
            "quantity": quantity,
            "config": config,
            "provenance": provenance,
            "curves": [],
        }
        keys = [(rh, abs(et)) for _, (*_, rh, et) in curves]
        fresh = {}
        for key, (_, ladder) in zip(keys, curves):
            if key not in data:
                fresh.setdefault(key, ladder)
        if fresh:
            swept = _sweeps(args, quantity, list(fresh.values()))
            data.update((key, rows % c.values) for key, c in zip(fresh, swept))
        for key, (label, ladder) in zip(keys, curves):
            sector, params, ell, rh, et = ladder
            fname = f"fig{args.fig_num}{panel}_{quantity}_{label}.csv"
            files[fname] = _thermo_csv(args, quantity, ladder, data[key])
            nu1, nu2 = params.as_floats()
            manifest["curves"].append({
                "file": fname,
                "sector": _sector_name(sector),
                "nu1": _fmt(nu1),
                "nu2": _fmt(nu2),
                "ell": str(ell),
                "rho": _fmt(rh),
                "eta": _fmt(et),
                "mode": args.mode,
            })
        files[f"fig{args.fig_num}{panel}_manifest.json"] = json.dumps(
            manifest, indent=2, sort_keys=True) + "\n"
    out_dir = Path(args.out or "figures")
    # a target that is a directory or a read-only file fails before the first
    # write, so it leaves no partial bundle either
    for target in map(out_dir.joinpath, files):
        code = (errno.EISDIR if target.is_dir() else errno.EACCES
                if target.exists() and not os.access(target, os.W_OK) else 0)
        if code:
            raise OSError(code, os.strerror(code), str(target))
    out_dir.mkdir(parents=True, exist_ok=True)
    for fname, text in files.items():
        (out_dir / fname).write_text(text, encoding="utf-8", newline="\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    if args.out:  # an --out that cannot be written fails before the suites run
        _write_text(args.out, "")
    report = verify.run_all(skip_oracle=args.skip_oracle)
    text = verify.format_report(report)
    if args.out:
        _write_text(args.out, text + "\n")
    print(text)
    return 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-parsable errors and exit code 2.
    '-' or '-.' before a digit starts a value, as in --nu1 -2/5 or --nu2 -1e-1
    (no option starts with a digit); argparse on 3.11 takes only decimals so.
    So are -inf, -infinity and -nan in any case, as float() reads them, and
    the sector name -+.  A bare -- stays the end-of-options marker."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-(\.?\d|\+$|(?i:inf|infinity|nan)$)")

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


class _SectorAction(argparse.Action):
    """Stores --sector.  argparse on some Python versions (3.11 among them)
    takes the value of --sector=-- for the end-of-options marker, strips it
    and passes []."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _add_sector(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu1", default="0", help="first deformation parameter (> -1/2)")
    p.add_argument("--nu2", default="0", help="second deformation parameter (> -1/2)")
    p.add_argument("--sector", default="++", action=_SectorAction,
                   help="parity sector: ++, --, +-, -+ (or pp/mm/pm/mp); "
                   "-- needs --sector=-- or mm")


def _add_common(p: argparse.ArgumentParser, out_help: str) -> None:
    p.add_argument("--ell", default=None,
                   help="angular quantum number (integer or half-odd, e.g. 1/2)")
    p.add_argument("--branch", default="+", help="sign branch of lambda: + or -")
    p.add_argument("--out", default=None, help=out_help)


def _add_thermal(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", default="consistent", choices=_MODES,
                   help="thermodynamic evaluation mode")
    p.add_argument("--tmin", type=float, default=0.01, help="lowest tau = KT/omega_c")
    p.add_argument("--tmax", type=float, default=10.0, help="highest tau")
    p.add_argument("--steps", type=int, default=400, help="log-spaced grid points")


def build_parser() -> _Parser:
    parser = _Parser(prog="dunkl-pauli",
                     description="Deformed Landau-level spectra and thermodynamics")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    ps = sub.add_parser("spectrum", help="closed-form level table as CSV")
    _add_sector(ps)
    _add_common(ps, "output file (default stdout)")
    ps.add_argument("--nmax", type=int, default=3, help="largest radial n")
    ps.add_argument("--lmax", default="3", help="largest ell to enumerate")
    ps.add_argument("--ms", default="both", help="spin filter: +1, -1 or both")
    ps.set_defaults(run=cmd_spectrum)

    pt = sub.add_parser("thermo", help="thermal-quantity sweep as CSV")
    _add_sector(pt)
    _add_common(pt, "output file (default stdout)")
    pt.add_argument("--quantity", required=True, choices=_QUANTITIES,
                    help="which quantity to sweep")
    _add_thermal(pt)
    pt.set_defaults(run=cmd_thermo)

    pf = sub.add_parser("figure", help="CSV bundle for one published-figure layout")
    _add_common(pf, "output directory (default figures)")
    pf.add_argument("--figure", required=True,
                    help="figure id 1-8 with optional panel letter, e.g. 2a")
    _add_thermal(pf)
    pf.set_defaults(run=cmd_figure)

    pv = sub.add_parser("verify", help="run the verification suites")
    pv.add_argument("--skip-oracle", action="store_true",
                    help="exact suites only (skips the finite-difference oracle)")
    pv.add_argument("--out", default=None, help="also write the report to a file")
    pv.set_defaults(run=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return args.run(args)
    except (ValueError, OverflowError) as exc:
        # OverflowError: an option too large for a float, e.g. --nu1 1e400
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out that cannot be created or written
        print(f"error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
