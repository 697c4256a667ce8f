import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dunkl_pauli
from dunkl_pauli import cli, thermo
from dunkl_pauli.algebra import WignerParams
from dunkl_pauli.cli import _fmt, _rows, _thermo_csv, main
from dunkl_pauli.rounding import _COLD, _SHORT
from dunkl_pauli.thermo import ThermoCurve, ThermoInputs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# ---------------------------------------------------------------- spectrum

def test_spectrum_undeformed_contains_expected_row(capsys):
    code, out, _ = run(capsys, "spectrum", "--nu1", "0", "--nu2", "0",
                       "--sector", "++", "--nmax", "1", "--lmax", "2")
    assert code == 0
    rows = csv_rows(out)
    hit = [r for r in rows if r["n"] == "0" and r["ell"] == "1" and r["m_s"] == "1"]
    assert len(hit) == 1
    assert float(hit[0]["energy_over_omega_c"]) == 2.0


def test_spectrum_deformed_value(capsys):
    code, out, _ = run(capsys, "spectrum", "--nu1", "0.4", "--nu2", "0.4",
                       "--sector", "++", "--nmax", "0", "--lmax", "1")
    assert code == 0
    rows = csv_rows(out)
    up = [r for r in rows if r["m_s"] == "1"]
    assert float(up[0]["energy_over_omega_c"]) == pytest.approx(
        2.3416407864998736, rel=1e-15)


def test_spectrum_rows_sorted_and_header(capsys):
    code, out, _ = run(capsys, "spectrum", "--sector=-+", "--nmax", "1",
                       "--lmax", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("sector,nu1,nu2,n,ell,m_s,branch,lambda,rho,eta,"
                        "energy_over_omega_c")
    rows = csv_rows(out)
    keys = [(int(r["n"]), float(r["ell"]), int(r["m_s"])) for r in rows]
    assert keys == sorted(keys)
    assert {r["ell"] for r in rows} == {"0.5", "1.5"}


def test_spectrum_empty_enumeration_is_header_only(capsys):
    code, out, _ = run(capsys, "spectrum", "--sector", "++", "--lmax", "0")
    assert code == 0
    assert out.strip().split("\n") == [
        "sector,nu1,nu2,n,ell,m_s,branch,lambda,rho,eta,energy_over_omega_c"]


def test_spectrum_explicit_ell_zero_mode(capsys):
    # the constant mode has lambda +0.0 on both branches, never -0.0
    for branch in ("+", "-"):
        code, out, _ = run(capsys, "spectrum", "--sector", "++", "--ell", "0",
                           "--nmax", "0", "--branch", branch)
        assert code == 0
        assert [r["lambda"] for r in csv_rows(out)] == ["0", "0"]


def test_spectrum_invalid_combination_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--sector", "++", "--ell", "1/2")
    assert code == 2
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_spectrum_negative_branch(capsys):
    code, out, _ = run(capsys, "spectrum", "--sector", "++", "--branch=-",
                       "--nmax", "0", "--lmax", "1")
    assert code == 0
    rows = csv_rows(out)
    assert all(float(r["lambda"]) < 0 for r in rows)


# ---------------------------------------------------------------- thermo

def test_thermo_partition_value(capsys):
    code, out, _ = run(capsys, "thermo", "--quantity", "Z", "--sector", "++",
                       "--ell", "0", "--tmin", "0.25", "--tmax", "0.5",
                       "--steps", "2")
    assert code == 0
    assert "# mode = consistent" in out
    rows = csv_rows(out)
    assert float(rows[-1]["tau"]) == 0.5
    assert float(rows[-1]["value"]) == pytest.approx(1.3130352854993312, rel=1e-15)


def test_thermo_heat_capacity_plateau(capsys):
    code, out, _ = run(capsys, "thermo", "--quantity", "C", "--sector", "+-",
                       "--nu1", "0.4", "--nu2", "-0.4", "--tmin", "50",
                       "--tmax", "100", "--steps", "3")
    assert code == 0
    for row in csv_rows(out):
        assert float(row["value"]) == pytest.approx(1.0, abs=1e-3)


def test_thermo_mode_changes_u_not_z(capsys):
    args = ["--sector", "++", "--nu1", "0.4", "--nu2", "0.4",
            "--tmin", "0.5", "--tmax", "2", "--steps", "3"]
    _, u_cons, _ = run(capsys, "thermo", "--quantity", "U", *args)
    _, u_pf, _ = run(capsys, "thermo", "--quantity", "U", *args,
                     "--mode", "paper-faithful")
    _, z_cons, _ = run(capsys, "thermo", "--quantity", "Z", *args)
    _, z_pf, _ = run(capsys, "thermo", "--quantity", "Z", *args,
                     "--mode", "paper-faithful")
    rho_pin = 2.7416407864998735
    for rc, rp in zip(csv_rows(u_cons), csv_rows(u_pf)):
        assert float(rc["value"]) - float(rp["value"]) == pytest.approx(
            2 * rho_pin, rel=1e-12)
    assert [r["value"] for r in csv_rows(z_cons)] == \
        [r["value"] for r in csv_rows(z_pf)]


def test_thermo_invalid_grid_exits_2(capsys):
    code, _, err = run(capsys, "thermo", "--quantity", "Z", "--tmin", "-1")
    assert code == 2 and err.startswith("error:")


def test_thermo_csv_rows_format_each_value_as_17_digits():
    # the rows are one %-template per command; each row still reads as the
    # f-string it replaces, at the values where the two could part: signed
    # zero, the smallest subnormal, extreme exponents and a 2**60 that
    # needs all 17 digits
    taus = (0.01, 0.1, 0.5, 1.0, 3.0, 10.0)
    values = (-0.0, 5e-324, 1e-300, 0.1, 1e300, float(2 ** 60))
    curve = ThermoCurve("U", taus, values, ThermoInputs(1.0, 0.5, 0.25))
    ladder = ((1, 1), WignerParams(0, 0), 0, 0.5, 0.25)
    text = _thermo_csv(SimpleNamespace(mode="consistent", sign=1), curve.quantity,
                       ladder, _rows(taus) % curve.values)
    header, rows = text.split("tau,value\n")
    assert header.startswith("# dunkl-pauli thermo sweep\n")
    assert rows.split("\n") == [f"{_fmt(t)},{v:.17g}"
                                 for t, v in zip(taus, values)] + [""]
    assert rows.startswith("0.01,-0\n0.10000000000000001,4.9406564584124654e-324\n")


def test_thermo_writes_file(tmp_path, capsys):
    out_file = tmp_path / "z.csv"
    code, _, _ = run(capsys, "thermo", "--quantity", "Z", "--steps", "5",
                     "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# dunkl-pauli thermo sweep")
    assert text.endswith("\n") and "\r" not in text


# ---------------------------------------------------------------- figure

def test_figure_2a_manifest_lists_four_sector_curves(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "--figure", "2a", "--out",
                     str(tmp_path), "--steps", "40")
    assert code == 0
    manifest = json.loads((tmp_path / "fig2a_manifest.json").read_text())
    assert manifest["quantity"] == "Z"
    assert [c["sector"] for c in manifest["curves"]] == ["++", "--", "+-", "-+"]
    assert all(float(c["nu1"]) == 0.4 and float(c["nu2"]) == 0.4
               for c in manifest["curves"])
    for c in manifest["curves"]:
        assert (tmp_path / c["file"]).exists()


def test_figure_quantities_per_family(tmp_path, capsys):
    run(capsys, "figure", "--figure", "1a", "--out", str(tmp_path), "--steps", "10")
    run(capsys, "figure", "--figure", "5b", "--out", str(tmp_path), "--steps", "10")
    m1 = json.loads((tmp_path / "fig1a_manifest.json").read_text())
    m5 = json.loads((tmp_path / "fig5b_manifest.json").read_text())
    assert m1["quantity"] == "Z" and m5["quantity"] == "C"
    # sector-fixed family sweeps the deformation set: diagonal + anti-diagonal
    assert len(m1["curves"]) == 9


def test_figure_antidiagonal_curves_match_undeformed(tmp_path, capsys):
    # figure 2b fixes nu = (0.4, -0.4); its even-parity sector curves must
    # coincide pointwise with the undeformed partition function
    code, _, _ = run(capsys, "figure", "--figure", "2b", "--out",
                     str(tmp_path), "--steps", "60")
    assert code == 0
    _, z0_text, _ = run(capsys, "thermo", "--quantity", "Z", "--sector", "++",
                        "--nu1", "0", "--nu2", "0", "--steps", "60")
    z0 = [r["value"] for r in csv_rows(z0_text)]
    for sector_file in ("pp", "mm"):
        text = (tmp_path / f"fig2b_Z_sector_{sector_file}.csv").read_text()
        assert [r["value"] for r in csv_rows(text)] == z0


@pytest.mark.parametrize("mode", ["consistent", "paper-faithful"])
def test_figure_evaluates_each_distinct_ladder_once(tmp_path, capsys,
                                                    monkeypatch, mode):
    # the thermo kernel reads only (rho, |eta|): of the 36 ladders of an odd
    # layout 18 differ, of the 16 of an even one 9
    calls = []
    real = thermo.sweeps

    def counted(quantity, templates, taus):
        calls.append(len(templates))
        return real(quantity, templates, taus)

    monkeypatch.setattr(thermo, "sweeps", counted)
    rows = {}
    for fig in range(1, 9):
        calls.clear()
        assert run(capsys, "figure", "--figure", str(fig), "--mode", mode,
                   "--steps", "8", "--out", str(tmp_path))[0] == 0
        rows[fig] = sum(calls)
        # no call holds more ladders than the panel shows
        assert len(calls) <= 4 and max(calls) <= (9 if fig % 2 else 4)
    assert rows == {fig: 18 if fig % 2 else 9 for fig in range(1, 9)}
    assert sum(rows.values()) == 108


def test_figure_csvs_sharing_a_curve_keep_their_own_headers(
        tmp_path, capsys, monkeypatch):
    # eta is signed and the kernel reads |eta|; the figure layouts give no
    # opposite pair (every |nu| <= 0.4), so the -- sector's eta is negated:
    # in panel 2b, ++ and -- are then (rho, 0.5) and (rho, -0.5)
    real = cli.eta
    monkeypatch.setattr(cli, "eta", lambda eps1, eps2, params: (
        -real(eps1, eps2, params) if eps1 == eps2 == -1 else
        real(eps1, eps2, params)))
    assert run(capsys, "figure", "--figure", "2b", "--steps", "8",
               "--out", str(tmp_path))[0] == 0
    pp, mm = ((tmp_path / f"fig2b_Z_sector_{code}.csv").read_text().split(
        "tau,value\n") for code in ("pp", "mm"))
    assert pp[1] == mm[1]
    assert "# sector = ++\n" in pp[0] and "# eta = 0.5\n" in pp[0]
    assert "# sector = --\n" in mm[0] and "# eta = -0.5\n" in mm[0]
    assert pp[0].replace("++", "--").replace("0.5\n", "-0.5\n") == mm[0]


def test_figure_all_panels_when_letter_omitted(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "--figure", "7", "--out",
                     str(tmp_path), "--steps", "8")
    assert code == 0
    for panel in "abcd":
        assert (tmp_path / f"fig7{panel}_manifest.json").exists()


def test_figure_output_is_deterministic(tmp_path, capsys):
    out = tmp_path / "bundle"
    run(capsys, "figure", "--figure", "3c", "--out", str(out), "--steps", "25")
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    run(capsys, "figure", "--figure", "3c", "--out", str(out), "--steps", "25")
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


@pytest.mark.parametrize("argv", [
    # every figure curve takes its deformation and sector from the layout
    ("figure", "--figure", "2a", "--nu1", "0.3"),
    ("figure", "--figure", "2a", "--nu2", "0.3"),
    ("figure", "--figure", "2a", "--sector", "0.3"),
    # a level table has no thermodynamic mode
    ("spectrum", "--mode", "consistent"),
], ids=["figure-nu1", "figure-nu2", "figure-sector", "spectrum-mode"])
def test_subcommands_reject_flags_they_would_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_figure_manifest_config_records_the_options_figure_reads(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "--figure", "2A", "--out", str(tmp_path),
                     "--steps", "8", "--branch", "+1", "--ell", "0.5")
    assert code == 0
    manifest = json.loads((tmp_path / "fig2a_manifest.json").read_text())
    assert manifest["config"] == {
        "subcommand": "figure", "figure": "2A", "ell": "0.5", "branch": "+1",
        "mode": "consistent", "t_min": 0.01, "t_max": 10.0, "steps": 8,
        "out": str(tmp_path)}


def test_figure_manifest_records_its_provenance(tmp_path, capsys, monkeypatch):
    # platform.platform() would scan the interpreter binary for its libc
    def unused():
        raise AssertionError("platform.platform() called")

    monkeypatch.setattr(platform, "platform", unused)
    code, _, _ = run(capsys, "figure", "--figure", "2a", "--out", str(tmp_path),
                     "--steps", "8")
    assert code == 0
    manifest = json.loads((tmp_path / "fig2a_manifest.json").read_text())
    assert manifest["provenance"] == {
        "package_version": dunkl_pauli.__version__,
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": sys.platform, "machine": platform.machine()}


def test_figure_unknown_id_exits_2(capsys):
    code, _, err = run(capsys, "figure", "--figure", "9a")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "figure", "--figure", "2x")
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------- verify

def test_verify_skip_oracle_passes_quickly(verify_run):
    assert verify_run.code == 0
    assert verify_run.elapsed < 10.0
    assert "verification PASSED" in verify_run.out
    assert verify_run.out.count("[confirmed]") == 4


def test_verify_report_file(verify_run):
    assert verify_run.code == 0
    assert "PASS algebra" in verify_run.report


# ---------------------------------------------------------------- parsing

@pytest.mark.parametrize("argv", [("thermo", "--quantity", "Z", "--steps", "3"),
                                  ("spectrum",)], ids=["thermo", "spectrum"])
def test_sector_minus_minus_spelling_matches_alias(capsys, argv):
    # argparse hands the value of --sector=-- over as []
    code, spelled, _ = run(capsys, *argv, "--sector=--")
    assert code == 0
    _, alias, _ = run(capsys, *argv, "--sector", "mm")
    assert spelled == alias


def test_sector_minus_plus_needs_no_equals_sign(capsys):
    # -+ starts with the option prefix, but no option is named so
    code, spaced, err = run(capsys, "spectrum", "--sector", "-+", "--nmax", "1")
    assert (code, err) == (0, "")
    _, joined, _ = run(capsys, "spectrum", "--sector=-+", "--nmax", "1")
    assert spaced == joined


def test_unknown_sector_is_usage_error(capsys):
    code, _, err = run(capsys, "spectrum", "--sector", "+x")
    assert code == 2 and err.startswith("error:")


def test_bad_nu_is_usage_error(capsys):
    code, _, err = run(capsys, "spectrum", "--nu1", "-0.9")
    assert code == 2 and err.startswith("error:")


def test_argparse_errors_use_error_prefix(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["thermo", "--quantity", "X"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


_THERMO = ("thermo", "--quantity", "Z")
_FIGURE = ("figure", "--figure", "2a")


@pytest.mark.parametrize("spaced, joined", [
    (("spectrum", "--nu1", "-2/5", "--nu2", "-1e-1"),
     ("spectrum", "--nu1=-2/5", "--nu2=-1e-1")),
    ((*_THERMO, "--nu1", "-.25", "--nu2", "-3/10", "--steps", "5"),
     (*_THERMO, "--nu1=-.25", "--nu2=-3/10", "--steps", "5")),
], ids=["spectrum", "thermo"])
def test_a_negative_value_needs_no_equals_sign(tmp_path, capsys, spaced, joined):
    outs = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    for argv, out in zip((spaced, joined), outs):
        assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # a negative temperature, infinity or NaN is still a value, refused on
    # its own terms, as in the = spelling
    assert run(capsys, *_THERMO, "--tmin", "-1") == (
        2, "", "error: need 0 < tmin < tmax, both finite\n")
    for option, value in (("--nu1", "-inf"), ("--ell", "-nan"),
                          ("--tmin", "-inf"), ("--tmin", "-Infinity")):
        got = run(capsys, *_THERMO, option, value)
        assert got == run(capsys, *_THERMO, f"{option}={value}")
        assert got[:2] == (2, "") and "expected one argument" not in got[2]


@pytest.mark.parametrize("argv", [
    ("spectrum", "--nu1", "-0.5"),
    (*_THERMO, "--nu2", "-0.9"),
    ("spectrum", "--nu1", "abc"),
    ("spectrum", "--nu2", "1/0"),
    ("spectrum", "--sector", "+x"),
    (*_THERMO, "--sector", "pq"),
    ("spectrum", "--branch", "x"),
    (*_FIGURE, "--branch", "+-"),
    ("spectrum", "--ell", "one"),
    (*_THERMO, "--ell", "1/0"),
    (*_FIGURE, "--ell", "x"),
    ("spectrum", "--sector", "++", "--ell", "1/2"),
    (*_THERMO, "--sector", "+-", "--ell", "1"),
    (*_FIGURE, "--ell=-1/2"),
    ("figure", "--figure", "1", "--ell", "1/3"),
    ("spectrum", "--lmax", "x"),
    ("spectrum", "--ms", "up"),
    ("spectrum", "--nmax", "-1"),
    (*_THERMO, "--tmin", "2", "--tmax", "1"),
    (*_THERMO, "--tmin", "1", "--tmax", "1"),
    (*_THERMO, "--tmin", "-1"),
    (*_THERMO, "--tmin", "nan"),
    (*_THERMO, "--tmin", "inf"),
    (*_FIGURE, "--tmax", "inf"),
    (*_THERMO, "--steps", "1"),
    (*_FIGURE, "--steps", "1"),
    (*_THERMO, "--tmin", "0.01", "--tmax", "0.0100000000000001", "--steps", "50"),
    (*_FIGURE, "--tmin", "0.01", "--tmax", "0.0100000000000001", "--steps", "50"),
    ("figure", "--figure", "9a"),
    ("figure", "--figure", "2x"),
    ("figure", "--figure", "2ab"),
    ("figure", "--figure", " "),
    ("spectrum", "--nu1", "1e400"),
    ("spectrum", "--lmax", "1e400"),
    ("spectrum", "--lmax", "1e200"),
    (*_THERMO, "--ell", "1e200"),
    (*_FIGURE, "--ell", "1e200"),
    ("spectrum", "--nu1", "1e300"),
    (*_THERMO, "--ell", "1e150"),
    (*_FIGURE, "--ell", "1e150"),
    # subnormal temperatures: 1/tau overflows
    (*_THERMO, "--tmin", "1e-320", "--tmax", "1e-319", "--steps", "3"),
    (*_FIGURE, "--tmin", "1e-320", "--tmax", "1e-319", "--steps", "3"),
], ids=lambda argv: " ".join(argv))
def test_usage_errors_are_reported_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [_THERMO, _FIGURE], ids=["thermo", "figure"])
def test_a_grid_whose_rounded_points_repeat_is_named(capsys, argv):
    # 50 points on [0.01, 0.01 + 1e-16] round onto a handful of doubles: the
    # grid is at fault, before any ladder is evaluated
    code, _, err = run(capsys, *argv, "--tmin", "0.01",
                       "--tmax", "0.0100000000000001", "--steps", "50")
    assert code == 2
    assert "temperature grid" in err and "repeats" in err and "ladder" not in err


@pytest.mark.parametrize("argv, eta", [
    ((*_THERMO, "--steps", "4", "--ell", "1e150"), "0.5"),
    ((*_FIGURE, "--steps", "4", "--ell", "1e150"), "0.9"),
    # one vectorised evaluation of the panel's four ladders: only the two
    # even sectors (the first two) take the integer ell, and the odd ones
    # evaluate normally; a half-odd ell fails in the last two instead
    ((*_FIGURE, "--steps", "400", "--ell", "1e150"), "0.9"),
    ((*_FIGURE, "--steps", "400", "--ell", f"{2 * 10 ** 150 + 1}/2"), "0.5"),
    # panels b and c each repeat a ++/-- ladder, evaluated once: the error
    # names the layout's first ladder, the ++ of panel a
    (("figure", "--figure", "2", "--ell", "1e150"), "0.9"),
], ids=["thermo", "figure", "figure-batched", "figure-batched-odd",
        "figure-recurring"])
def test_a_ladder_the_thermo_kernel_cannot_evaluate_is_named(
        tmp_path, capsys, argv, eta):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "ell = 1e+150" in err and "rho = 2e+150" in err
    assert f"eta = {eta})" in err
    assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, target", [
    (("spectrum",), "dir"),
    (("figure", "--figure", "2a", "--steps", "4"), "file"),
    ((*_THERMO, "--steps", "4"), "file/x.csv"),
    (("verify", "--skip-oracle"), "dir"),
], ids=["spectrum-dir", "figure-file", "thermo-under-file", "verify-dir"])
def test_an_unwritable_out_is_reported_in_one_line(tmp_path, capsys, argv, target):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    code, stdout, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["directory", "read-only"])
def test_a_blocked_figure_target_leaves_no_partial_bundle(
        tmp_path, capsys, monkeypatch, kind):
    # the sector_mm file of panel 2a cannot be written: no other file is
    blocking = tmp_path / "fig2a_Z_sector_mm.csv"
    if kind == "directory":
        blocking.mkdir()
    else:
        blocking.write_text("kept\n")
        blocking.chmod(0o444)
        # root may write a read-only file; the check asks os.access
        real_access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: (
            Path(path) != blocking and real_access(path, mode)))
    code, stdout, err = run(capsys, "figure", "--figure", "2", "--steps", "4",
                            "--out", str(tmp_path))
    assert code == 2 and stdout == ""
    assert err == f"error: cannot write {blocking}: " + (
        "Is a directory\n" if kind == "directory" else "Permission denied\n")
    assert list(tmp_path.iterdir()) == [blocking]


def test_an_unwritable_verify_out_is_reported_before_the_suites_run(
        tmp_path, capsys, monkeypatch):
    from dunkl_pauli import verify

    def run_all(*args, **kwargs):
        pytest.fail("verify ran its suites before it checked --out")

    monkeypatch.setattr(verify, "run_all", run_all)
    code, stdout, err = run(capsys, "verify", "--out", str(tmp_path))
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_a_non_finite_ladder_is_named(capsys):
    # nu1 = 1e300 gives rho = inf: a bad input, not a precision limit
    code, stdout, err = run(capsys, *_THERMO, "--nu1", "1e300")
    assert (code, stdout, err) == (2, "", "error: rho must be finite, got inf\n")


# ---------------------------------------------------------------- imports

def test_cli_import_does_not_load_scipy_integrate():
    # the radial norm is a closed form; no command needs quadrature
    src = str(Path(dunkl_pauli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, dunkl_pauli.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "False"


# each command in a fresh interpreter: the most points one round_curve call
# of thermo rounded one by one, and which of numpy, scipy, scipy.linalg,
# dataclasses, inspect and json it loaded.  The oracle is the only layer that
# needs scipy.  A spectrum table needs no numpy, nor does a thermo curve of up
# to rounding._COLD points; a longer one and a figure bundle load it, before
# their grid is rounded.  Only a figure bundle loads json, for its manifests,
# and no command loads dataclasses or inspect; inspect is listed only without
# numpy, which may load it itself.  The probe's own json is imported after the
# modules are listed.
_FOOTPRINT_PROBE = """\
import contextlib, io, sys
from dunkl_pauli import rounding, thermo
from dunkl_pauli.cli import main
points, largest = [0], [0]
def counted(*args, _point=rounding._round_point):
    points[0] += 1
    return _point(*args)
def measured(*args, _curve=thermo.round_curve):
    points[0] = 0
    try:
        return _curve(*args)
    finally:
        largest[0] = max(largest[0], points[0])
rounding._round_point, thermo.round_curve = counted, measured
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = [m for m in ("numpy", "scipy", "scipy.linalg", "dataclasses",
                     "inspect", "json") if m in sys.modules
          and not (m == "inspect" and "numpy" in sys.modules)]
import json
print(json.dumps([code, largest[0]] + loaded))
"""


@pytest.mark.parametrize("argv, loaded", [
    ((), []),
    (("spectrum", "--nu1", "0.4", "--nu2", "0.2", "--sector=--"), []),
    (("thermo", "--quantity", "C", "--mode", "paper-faithful"), []),
    (("thermo", "--quantity", "C", "--steps", str(_COLD + 1)), ["numpy"]),
    # 999 of its 1,003 points are not whole powers of 10: a grid call that
    # stays under _COLD while the curve goes over it
    (("thermo", "--quantity", "C", "--steps", str(_COLD + 3)), ["numpy"]),
    (("figure", "--figure", "2a", "--steps", "8", "--out", "{tmp}"),
     ["numpy", "json"]),
    (("verify", "--skip-oracle"), []),
], ids=["import", "spectrum", "thermo", "thermo-long", "thermo-long-grid",
        "figure", "verify-skip-oracle"])
def test_commands_import_only_what_they_use(tmp_path, argv, loaded):
    src = str(Path(dunkl_pauli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    result = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE, *argv],
                            env=env, check=True, capture_output=True, text=True,
                            timeout=120)
    code, largest, *modules = json.loads(result.stdout)
    assert [code, *modules] == [0, *loaded]
    # round_curve's own rule: no call rounds more than _SHORT points one by
    # one in a process that loads numpy, at any time
    assert largest <= (_SHORT if "numpy" in modules else _COLD)


def test_parser_choices_are_thermo_names():
    # cli spells the --mode and --quantity choices so that parsing does not
    # import thermo; thermo stays their one source
    from dunkl_pauli import cli, thermo
    assert cli._MODES == thermo.MODES
    assert list(cli._QUANTITIES) == sorted(thermo.QUANTITIES)
