import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from catscatter import __version__
from catscatter.cli import (DEG, RunConfig, _build_parser, _render_csv, _resolve, fmt,
                            parse_grid, run)
from catscatter.scattering import ScatteringConfig, event_density_cat_closed
from catscatter.states import BeamState, negativity_scan
from catscatter.targets import Kinematics, TargetProfile

PI2 = 1.0 / math.pi ** 2


def run_cli(*argv):
    """In-process CLI invocation capturing stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_parse_grid_forms():
    assert parse_grid("10", "theta") == [10.0]
    assert parse_grid("1:45:5", "theta") == [1.0, 12.0, 23.0, 34.0, 45.0]
    with pytest.raises(Exception):
        parse_grid("1:2", "theta")


def test_fmt_is_17_significant_digits():
    x = 0.1234567890123456789
    assert fmt(x) == f"{x:.17g}"
    assert float(fmt(x)) == x  # exact round trip


def test_wigner_slice_contains_origin_value(tmp_path):
    out = tmp_path / "w.csv"
    code, _, _ = run_cli("wigner", "--state", "odd-cat", "--sigma-perp", "2",
                         "--r0", "2", "--grid", "128", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert list(rows[0].keys()) == ["x", "px", "w"]
    assert len(rows) == 128 * 128
    origin = [r for r in rows if float(r["x"]) == 0.0 and float(r["px"]) == 0.0]
    assert len(origin) == 1
    assert abs(float(origin[0]["w"]) + PI2) <= 1e-9


def test_wigner_full_mode_header(tmp_path):
    out = tmp_path / "w4.csv"
    code, _, _ = run_cli("wigner", "--state", "even-cat", "--sigma-perp", "2",
                         "--r0", "4", "--grid", "16", "--mode", "full",
                         "--out", str(out))
    assert code == 0
    with open(out) as fh:
        header = fh.readline().strip()
        n_rows = sum(1 for _ in fh)
    assert header == "x,y,px,py,w"
    assert n_rows == 16 ** 4


def test_full_wigner_export_minimum_is_the_negativity_scan_minimum():
    code, out, _ = run_cli("wigner", "--state", "even-cat", "--sigma-perp", "2",
                           "--r0", "4", "--phi-r0", "30", "--mode", "full", "--grid", "16")
    assert code == 0
    w = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
    scan = negativity_scan(BeamState.even_cat(2.0, 4.0, phi_r0=30.0 * DEG),
                           mode="full", grid_n=16)
    assert scan.min_value < 0.0
    assert min(w) == scan.min_value


def reference_csv(header, rows):
    """Reference CSV renderer: one ``fmt`` call per value."""
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    return "\n".join(out) + "\n"


def test_one_pass_renderer_writes_the_per_value_bytes():
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
    rows = [(v, np.float64(v), 3, "closed_form") for v in specials]
    rows += [(0.1, np.float64(-2.5e-7), -12, "100% odd,ly named"),
             (2.0, math.nan, math.nan, "error:ValueError: r0 must be >= 0")]
    header = ["a", "b", "c", "tag"]
    assert _render_csv(header, rows) == reference_csv(header, rows)
    table = np.array([specials, specials[::-1], [0.1, -0.2, 1e-300, 7.0, 3.0, -1.0]])
    assert _render_csv(list("abcdef"), table) == reference_csv(list("abcdef"), table.tolist())
    for empty in ([], np.empty((0, 3))):
        assert _render_csv(["x", "px", "w"], empty) == "x,px,w\n"


@pytest.mark.parametrize("mode,grid", [("slice", "32"), ("full", "8")])
def test_wigner_json_rows_are_the_csv_floats(mode, grid):
    argv = ("wigner", "--state", "odd-cat", "--sigma-perp", "2", "--r0", "3",
            "--phi-r0", "20", "--mode", mode, "--grid", grid)
    code, text, _ = run_cli(*argv)
    assert code == 0
    csv_rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
    code, text, _ = run_cli(*argv, "--format", "json")
    assert code == 0
    assert json.loads(text)["rows"] == csv_rows


def test_scatter_phi_grid_is_flat_for_gaussian():
    code, out, _ = run_cli("scatter", "--state", "gaussian", "--sigma-perp", "2",
                           "--pi", "10", "--wide", "--theta", "10",
                           "--phi-grid", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta_deg,phi_deg,dnu,dsigma,err_est,method"
    assert len(lines) == 17
    ds = [float(line.split(",")[3]) for line in lines[1:]]
    assert (max(ds) - min(ds)) / max(ds) <= 1e-8


def test_scatter_theta_phi_range_grid(tmp_path):
    out = tmp_path / "grid.csv"
    code, _, _ = run_cli("scatter", "--state", "even-cat", "--sigma-perp", "2",
                         "--r0", "4", "--wide", "--theta", "5:15:3",
                         "--phi", "0:90:2", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 6  # 3 thetas x 2 phis
    assert sorted({r["theta_deg"] for r in rows}) == ["10", "15", "5"]
    assert all(r["method"] == "closed_form" for r in rows)
    # the grid is one batch; each row agrees with its one-at-a-time value
    cfg = ScatteringConfig(BeamState.even_cat(2.0, 4.0), TargetProfile.wide())
    for r in rows:
        one = event_density_cat_closed(cfg, Kinematics.elastic(
            10.0, float(r["theta_deg"]) * DEG, float(r["phi_deg"]) * DEG))
        assert abs(float(r["dsigma"]) - one.value) <= float(r["err_est"]) + one.err_est
    # re-run from the sidecar reproduces the grid byte-for-byte
    first = out.read_bytes()
    out.unlink()
    code, _, _ = run_cli("--config", str(out) + ".config.json")
    assert code == 0 and out.read_bytes() == first


def test_scatter_finite_target_reports_both_densities():
    code, out, _ = run_cli("scatter", "--state", "even-cat", "--sigma-perp", "2",
                           "--r0", "4", "--sigma-t", "20", "--theta", "10",
                           "--phi-grid", "4")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    dnu, dsigma = float(row[2]), float(row[3])
    ssq = 20.0 ** 2 + 2.0 ** 2
    assert dsigma == pytest.approx(2.0 * math.pi * ssq * dnu, rel=1e-12)


def test_scatter_general4d_method():
    code, out, _ = run_cli("scatter", "--state", "gaussian", "--sigma-perp", "2",
                           "--pi", "10", "--sigma-t", "20", "--theta", "10",
                           "--phi", "0", "--method", "general4d")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[5] == "general4d"
    assert float(row[2]) > 0.0


def test_theta_and_pi_sweeps():
    code, out, _ = run_cli("sweep", "--axis", "theta", "--values", "5,10,15",
                           "--state", "odd-cat", "--sigma-perp", "2", "--r0", "2",
                           "--wide")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == pytest.approx([5.0, 10.0, 15.0], rel=1e-12)
    assert [float(r[1]) for r in rows] == pytest.approx([5.0, 10.0, 15.0], rel=1e-12)
    code, out, _ = run_cli("sweep", "--axis", "pi", "--values", "10,20",
                           "--state", "even-cat", "--sigma-perp", "2", "--r0", "4",
                           "--wide", "--theta", "10")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 2 and all(abs(float(r[2])) > 0 for r in rows)


def test_asymmetry_output():
    code, out, _ = run_cli("asymmetry", "--state", "odd-cat", "--sigma-perp", "2",
                           "--r0", "2", "--pi", "10", "--wide", "--theta", "10")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "axis_value,theta_deg,A,metric"
    vals = row.split(",")
    assert 0.03 <= abs(float(vals[2])) <= 0.2


@pytest.mark.parametrize("method, n", [("closed", 16), ("quad2d", 8)])
def test_asymmetry_json_scan_is_mirrored_and_replays(tmp_path, method, n):
    out = tmp_path / "a.json"
    code, _, _ = run_cli("asymmetry", "--state", "odd-cat", "--sigma-perp", "2",
                         "--r0", "3", "--phi-r0", "30", "--sigma-t", "20", "--theta", "10",
                         "--method", method, "--phi-grid", str(n),
                         "--format", "json", "--out", str(out))
    assert code == 0
    first = out.read_bytes()
    scan = json.loads(first)["extra"]["phi_scan"]
    assert len(scan) == n and scan[0][1] != scan[n // 4][1]
    for k in range(n):  # reflection about phi_r0, then pi-periodicity
        assert scan[k][1] == scan[(n - k) % n][1]
        assert scan[k][1] == scan[(k + n // 2) % n][1]
    out.unlink()
    assert run_cli("--config", str(tmp_path / "a.json.config.json"))[0] == 0
    assert out.read_bytes() == first


def test_quad2d_asymmetry_at_strong_separation_agrees_with_closed_form():
    # r0 = 8 sigma_perp lies inside the validity band; the 2-D route once
    # stalled on this fringe and exited with a NonConvergence input error.
    argv = ("asymmetry", "--state", "odd-cat", "--sigma-perp", "1", "--r0", "8",
            "--wide", "--theta", "20", "--pi", "20", "--phi-grid", "8")
    a = {}
    for method in ("quad2d", "closed"):
        code, out, err = run_cli(*argv, "--method", method)
        assert (code, err) == (0, "")
        a[method] = float(out.strip().splitlines()[1].split(",")[2])
    assert abs(a["quad2d"] - a["closed"]) <= 1e-12


def test_sweep_json_carries_scans(tmp_path):
    out = tmp_path / "s.json"
    code, _, _ = run_cli("sweep", "--axis", "r0", "--values", "2,3,4",
                         "--state", "even-cat", "--sigma-perp", "2", "--wide",
                         "--theta", "10", "--format", "json", "--out", str(out))
    assert code == 0
    payload = json.load(open(out))
    assert payload["columns"] == ["axis_value", "theta_deg", "A", "metric"]
    assert len(payload["rows"]) == 3
    assert len(payload["extra"]["points"]) == 3
    assert all("phi_scan" in p for p in payload["extra"]["points"])


def test_ev_flag_sets_momentum():
    code, out, _ = run_cli("asymmetry", "--state", "gaussian", "--sigma-perp", "2",
                           "--ev", "1.36057", "--wide", "--theta", "10",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["p_i"] == pytest.approx(10.0, rel=1e-12)


def test_validate_passes_and_is_deterministic():
    cmd = [sys.executable, "-m", "catscatter.cli", "validate"]
    r1 = subprocess.run(cmd, capture_output=True, timeout=600)
    r2 = subprocess.run(cmd, capture_output=True, timeout=600)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert b"oracle checks passed" in r1.stdout
    assert b"FAIL" not in r1.stdout


def test_sidecar_roundtrip_bit_identical(tmp_path):
    out = tmp_path / "a.csv"
    code, _, _ = run_cli("asymmetry", "--state", "even-cat", "--sigma-perp", "2",
                         "--r0", "4", "--wide", "--theta", "10",
                         "--out", str(out))
    assert code == 0
    first = out.read_bytes()
    sidecar = tmp_path / "a.csv.config.json"
    assert sidecar.exists()
    cfg = RunConfig.from_json(sidecar.read_text())
    assert cfg.subcommand == "asymmetry"
    out.unlink()
    code, _, _ = run_cli("--config", str(sidecar))
    assert code == 0
    assert out.read_bytes() == first


def test_input_errors_exit_one(tmp_path):
    assert run_cli("scatter", "--state", "nope")[0] == 1
    assert run_cli("sweep", "--axis", "r0", "--values", "x,y")[0] == 1
    assert run_cli("scatter", "--state", "aniso")[0] == 1  # missing sigma-x/y
    assert run_cli()[0] == 1
    assert run_cli("--config", str(tmp_path / "missing.json"))[0] == 1


@pytest.mark.parametrize("sub", ["wigner", "scatter", "asymmetry", "sweep", "validate"])
def test_bare_flags_resolve_to_the_run_config_defaults(sub):
    required = ["--axis", "r0", "--values", "1,2"] if sub == "sweep" else []
    got = _resolve(_build_parser().parse_args([sub, *required]))
    want = RunConfig(subcommand=sub)
    if sub == "sweep":
        want.axis, want.values = "r0", [1.0, 2.0]
    for f in fields(RunConfig):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


# Non-positive counts and tolerances, and phi grids below the 8 points an
# asymmetry scan needs.
@pytest.mark.parametrize("argv", [
    ["scatter", "--tol", "0"],
    ["scatter", "--phi-grid", "0"],
    ["scatter", "--phi-grid", "-2"],
    ["wigner", "--grid", "-4"],
    ["wigner", "--grid", "0"],
    ["asymmetry", "--phi-grid", "-5"],
    ["asymmetry", "--phi-grid", "3"],
    ["sweep", "--axis", "r0", "--values", "2,3", "--state", "odd-cat", "--r0", "2",
     "--wide", "--phi-grid", "5"],
])
def test_non_positive_numbers_exit_one(argv, tmp_path):
    *rest, flag, value = argv
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("input error:")
    if flag == "--phi-grid" and int(value) > 0:
        assert err == "input error: ValueError: phi_grid_n must be >= 8\n"
    # The same values read back from a sidecar are rejected the same way.
    cfg = _resolve(_build_parser().parse_args(rest))
    field = {"--tol": "tol", "--phi-grid": "phi_grid", "--grid": "grid"}[flag]
    setattr(cfg, field, float(value) if field == "tol" else int(value))
    sidecar = tmp_path / "bad.config.json"
    sidecar.write_text(cfg.to_json())
    code, out, err2 = run_cli("--config", str(sidecar))
    assert (code, out) == (1, "")
    assert err2 == err


# A sidecar value outside the choices of its field (library spellings,
# misspellings and an unknown subcommand).
@pytest.mark.parametrize("sub,field,bad", [
    ("scatter", "state", "cat"),
    ("scatter", "method", "quadrature2d"),
    ("asymmetry", "metric", "para_perp"),
    ("wigner", "mode", "4d"),
    ("scatter", "format", "xml"),
    ("sweep", "axis", "sigma_perp"),
    ("scatter", "subcommand", "plot"),
])
def test_sidecar_choice_fields_are_checked(sub, field, bad, tmp_path):
    extra = dict(axis="r0", values=[1.0, 2.0]) if sub == "sweep" else {}
    data = json.loads(RunConfig(subcommand=sub, **extra).to_json())
    data[field] = bad
    sidecar = tmp_path / "bad.config.json"
    sidecar.write_text(json.dumps(data))
    code, out, err = run_cli("--config", str(sidecar))
    assert (code, out) == (1, "")
    named = field if field == "subcommand" else f"--{field}"
    assert err.startswith(f"input error: {named}: invalid choice {bad!r}")


# A count read back from a sidecar is an integer: a fractional one would
# scan its floor or raise a TypeError deep inside the run.
@pytest.mark.parametrize("sub,field", [("scatter", "phi_grid"), ("asymmetry", "phi_grid"),
                                       ("wigner", "grid")])
def test_sidecar_fractional_counts_exit_one(sub, field, tmp_path):
    data = json.loads(RunConfig(subcommand=sub).to_json())
    data[field] = 16.5
    sidecar = tmp_path / "bad.config.json"
    sidecar.write_text(json.dumps(data))
    flag = {"phi_grid": "--phi-grid", "grid": "--grid"}[field]
    assert run_cli("--config", str(sidecar)) == (
        1, "", f"input error: {flag} must be an integer >= 1, got 16.5\n")


def test_an_anisotropic_sigma_perp_sweep_exits_one():
    code, out, err = run_cli("sweep", "--state", "aniso", "--sigma-x", "1", "--sigma-y", "2",
                             "--wide", "--axis", "sigma-perp", "--values", "1,2,3",
                             "--phi-grid", "8")
    assert (code, out) == (1, "")
    assert err.startswith("input error: ValueError:") and "sigma_x and sigma_y" in err


@pytest.mark.parametrize("field", ["axis", "values"])
def test_sweep_sidecar_without_axis_or_values_exits_one(field, tmp_path):
    data = json.loads(RunConfig(subcommand="sweep", axis="r0", values=[1.0]).to_json())
    data[field] = None
    sidecar = tmp_path / "bad.config.json"
    sidecar.write_text(json.dumps(data))
    assert run_cli("--config", str(sidecar)) == (
        1, "", "input error: sweep needs --axis and --values\n")


def test_odd_cat_invalid_separation_exits_one():
    code, _, err = run_cli("wigner", "--state", "odd-cat", "--sigma-perp", "2",
                           "--r0", "0.0001")
    assert code == 1
    assert "input error" in err


def test_tol_keeps_the_method_subdivision_budget():
    # The 4-D default tolerance is 1e-4, so --tol 1e-4 must change nothing;
    # a spec with the 1-D budget of 10,000 subdivisions ran out here.
    argv = ("scatter", "--state", "odd-cat", "--sigma-perp", "1", "--r0", "3",
            "--phi-r0", "30", "--sigma-t", "6", "--b0x", "1", "--b0y", "2", "--pi", "10",
            "--theta", "17", "--phi", "11", "--method", "general4d")
    code, out, err = run_cli(*argv, "--tol", "1e-4")
    assert (code, err) == (0, "")
    assert out == run_cli(*argv)[1]


@pytest.mark.parametrize("sub", ["asymmetry", "sweep"])
def test_asymmetry_and_sweep_reject_a_theta_grid(sub, tmp_path):
    axis = ["--axis", "pi", "--values", "10,20"] if sub == "sweep" else []
    argv = [sub, *axis, "--state", "odd-cat", "--sigma-perp", "2", "--r0", "3", "--wide"]
    code, out, err = run_cli(*argv, "--theta", "5:15:3")
    assert (code, out) == (1, "")
    assert err == f"input error: {sub} takes one --theta, got 3\n"
    # The same grid read back from a sidecar is rejected the same way.
    data = json.loads(_resolve(_build_parser().parse_args(argv)).to_json())
    data["theta_deg"] = [5.0, 10.0, 15.0]
    sidecar = tmp_path / "grid.config.json"
    sidecar.write_text(json.dumps(data))
    assert run_cli("--config", str(sidecar)) == (1, "", err)


def test_r0_sweep_of_an_odd_cat_needs_no_r0(tmp_path):
    out = tmp_path / "s.csv"
    argv = ("--state", "odd-cat", "--sigma-perp", "2", "--wide", "--theta", "10")
    code, _, err = run_cli("sweep", "--axis", "r0", "--values", "2,3", *argv,
                           "--out", str(out))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for row, r0 in zip(rows, ("2", "3")):
        single = run_cli("asymmetry", *argv, "--r0", r0)[1].splitlines()[1].split(",")
        assert row[2] == single[2]
    # The sidecar keeps the configuration as given.
    assert json.loads((tmp_path / "s.csv.config.json").read_text())["r0"] == 0.0


@pytest.mark.parametrize("state", ["odd-cat", "even-cat"])
def test_sigma_perp_sweep_with_a_ratio_needs_no_r0(state):
    # The base state sits at the first point, sigma_perp = 1 and r0 = 1.5,
    # not at the default r0 = 0, which is no odd cat.
    argv = ("--state", state, "--wide", "--theta", "10")
    code, out, err = run_cli("sweep", "--axis", "sigma-perp", "--values", "1,2",
                             "--r0-ratio", "1.5", *argv)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2
    for row, (sp, r0) in zip(rows, (("1", "1.5"), ("2", "3"))):
        single = run_cli("asymmetry", *argv, "--sigma-perp", sp, "--r0", r0)
        assert row[2] == single[1].splitlines()[1].split(",")[2]
    if state == "even-cat":
        assert rows[0][2] == "0.072395866839324988"


def test_pi_sweep_rejects_a_final_momentum(tmp_path):
    argv = ["sweep", "--axis", "pi", "--values", "10,20", "--state", "even-cat",
            "--sigma-perp", "2", "--r0", "3", "--sigma-t", "20", "--b0x", "1", "--theta", "8"]
    code, out, err = run_cli(*argv, "--pf", "12")
    assert (code, out) == (1, "")
    assert err == "input error: --pf cannot be set on --axis pi: each point is elastic at its p_i\n"
    # The same p_f read back from a sidecar is rejected the same way.
    data = json.loads(_resolve(_build_parser().parse_args(argv)).to_json())
    data["p_f"] = 12.0
    sidecar = tmp_path / "pf.config.json"
    sidecar.write_text(json.dumps(data))
    assert run_cli("--config", str(sidecar)) == (1, "", err)
    # Sweeps on other axes keep --pf.
    assert RunConfig("sweep", axis="theta", values=[8.0], p_f=12.0).p_f == 12.0


@pytest.mark.parametrize("axis", ["r0", "theta", "pi"])
def test_r0_ratio_off_the_sigma_perp_axis_exits_one(axis, tmp_path):
    argv = ["sweep", "--axis", axis, "--values", "2,3", "--state", "even-cat",
            "--sigma-perp", "2", "--r0", "3", "--wide", "--theta", "10"]
    code, out, err = run_cli(*argv, "--r0-ratio", "1.5")
    assert (code, out) == (1, "")
    assert err == f"input error: --r0-ratio needs --axis sigma-perp, got {axis}\n"
    # The same ratio read back from a sidecar is rejected the same way.
    data = json.loads(_resolve(_build_parser().parse_args(argv)).to_json())
    data["r0_ratio"] = 1.5
    sidecar = tmp_path / "ratio.config.json"
    sidecar.write_text(json.dumps(data))
    assert run_cli("--config", str(sidecar)) == (1, "", err)


def test_config_with_a_subcommand_exits_one(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli("scatter", "--wide", "--out", str(out))[0] == 0
    first = out.read_bytes()
    sidecar = str(out) + ".config.json"
    for argv in (["scatter", "--pi", "30", "--theta", "20"],
                 ["asymmetry", "--state", "odd-cat", "--r0", "3"]):
        code, text, err = run_cli("--config", sidecar, *argv)
        assert (code, text) == (1, "")
        assert err == ("input error: --config re-runs a sidecar as it is and takes no "
                       f"subcommand, got {argv[0]!r}\n")
    assert out.read_bytes() == first


# The 27 (subcommand, flag) pairs that every subcommand once took and whose
# runner never read them.
_NOT_TAKEN = {
    "wigner": ["--sigma-z", "--pi", "--ev", "--sigma-t", "--b0x", "--b0y", "--wide", "--pf",
               "--theta", "--phi", "--phi-grid", "--metric", "--method", "--tol", "--ne"],
    "scatter": ["--metric"],
    "asymmetry": ["--phi"],
    "sweep": ["--phi"],
    "validate": ["--pf", "--theta", "--phi", "--phi-grid", "--metric", "--method", "--tol",
                 "--ne", "--format"],
}
# Each flag's arguments, and the field and value it would set in a sidecar.
_SETS = {
    "--sigma-z": (["5"], "sigma_z", 5.0), "--pi": (["12"], "p_i", 12.0),
    "--ev": (["2"], "p_i", 12.0), "--sigma-t": (["20"], "sigma_t", 20.0),
    "--b0x": (["1"], "b0x", 1.0), "--b0y": (["1"], "b0y", 1.0),
    "--wide": ([], "wide", False), "--pf": (["12"], "p_f", 12.0),
    "--theta": (["5"], "theta_deg", [5.0]), "--phi": (["30"], "phi_deg", [30.0]),
    "--phi-grid": (["3"], "phi_grid", 3), "--metric": (["minmax"], "metric", "minmax"),
    "--method": (["general4d"], "method", "general4d"), "--tol": (["1e-6"], "tol", 1e-6),
    "--ne": (["7"], "ne", 7), "--format": (["json"], "format", "json"),
}


@pytest.mark.parametrize("sub,flag", [(sub, flag) for sub, flags in _NOT_TAKEN.items()
                                      for flag in flags])
def test_a_flag_its_subcommand_does_not_take_exits_one(sub, flag, tmp_path):
    args, name, value = _SETS[flag]
    sweep = ["--axis", "r0", "--values", "2,3"] if sub == "sweep" else []
    code, shown, _ = run_cli(sub, "--help")
    assert code == 0 and flag not in re.findall(r"--[a-z0-9-]+", shown)
    out = tmp_path / "run.out"
    code, text, err = run_cli(sub, *sweep, flag, *args, "--out", str(out))
    assert (code, text) == (1, "")
    assert err == f"input error: unrecognized arguments: {' '.join([flag, *args])}\n"
    assert not out.exists()
    # The same setting read back from a sidecar is rejected too.
    data = json.loads(_resolve(_build_parser().parse_args([sub, *sweep])).to_json())
    data[name] = value
    sidecar = tmp_path / "run.config.json"
    sidecar.write_text(json.dumps(data))
    code, text, err = run_cli("--config", str(sidecar))
    if name == "wide":  # with no --sigma-t, wide resolves to True: this is the bare run
        assert (code, err) == (0, "")
        return
    assert (code, text) == (1, "")
    assert err == (f"input error: {sub} takes no {'--pi' if flag == '--ev' else flag}, "
                   f"got {value!r}\n")


# Sidecars as the parser that gave every subcommand every flag wrote them: a
# wigner run stores wide true and a validate run stores grid 128.
_OLD_SIDECARS = {
    "wigner": (["--state", "odd-cat", "--r0", "3", "--phi-r0", "20", "--grid", "8"], {
        "subcommand": "wigner", "state": "odd-cat", "sigma_perp": 2.0, "sigma_x": None,
        "sigma_y": None, "r0": 3.0, "phi_r0_deg": 20.0, "sigma_z": 10.0, "p_i": 10.0,
        "p_f": None, "sigma_t": None, "b0x": 0.0, "b0y": 0.0, "wide": True,
        "theta_deg": [10.0], "phi_deg": None, "phi_grid": 16, "metric": "para-perp",
        "method": "auto", "tol": None, "ne": 1, "grid": 8, "mode": "slice", "axis": None,
        "values": None, "r0_ratio": None, "out": "run.out", "format": "csv"}),
    "validate": ([], {
        "subcommand": "validate", "state": "gaussian", "sigma_perp": 2.0, "sigma_x": None,
        "sigma_y": None, "r0": 0.0, "phi_r0_deg": 0.0, "sigma_z": 10.0, "p_i": 10.0,
        "p_f": None, "sigma_t": None, "b0x": 0.0, "b0y": 0.0, "wide": True,
        "theta_deg": [10.0], "phi_deg": None, "phi_grid": 16, "metric": "para-perp",
        "method": "auto", "tol": None, "ne": 1, "grid": 128, "mode": "slice", "axis": None,
        "values": None, "r0_ratio": None, "out": "run.out", "format": "csv"}),
}


@pytest.mark.parametrize("sub", sorted(_OLD_SIDECARS))
def test_old_sidecars_replay_byte_for_byte(sub, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, data = _OLD_SIDECARS[sub]
    written = json.dumps({**data, "version": __version__}, indent=2) + "\n"
    assert run_cli(sub, *argv, "--out", "run.out")[0] == 0
    assert (tmp_path / "run.out.config.json").read_text() == written
    first = (tmp_path / "run.out").read_bytes()
    (tmp_path / "run.out").unlink()
    assert run_cli("--config", "run.out.config.json")[0] == 0
    assert (tmp_path / "run.out").read_bytes() == first
    assert (tmp_path / "run.out.config.json").read_text() == written


def test_python_m_catscatter_matches_the_in_process_run(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = tmp_path / "a.json"
    argv = ["asymmetry", "--state", "odd-cat", "--sigma-perp", "2", "--r0", "3", "--wide",
            "--theta", "10", "--format", "json", "--out", str(out)]
    r = subprocess.run([sys.executable, "-m", "catscatter", *argv], capture_output=True,
                       env=env, timeout=120)
    assert (r.returncode, r.stderr) == (0, b"")
    sidecar = tmp_path / "a.json.config.json"
    written = out.read_bytes(), sidecar.read_bytes()
    out.unlink()
    sidecar.unlink()
    assert run_cli(*argv)[0] == 0
    assert (out.read_bytes(), sidecar.read_bytes()) == written
    r = subprocess.run([sys.executable, "-m", "catscatter", "scatter", "--state", "bogus"],
                       capture_output=True, env=env, timeout=120)
    assert (r.returncode, r.stdout) == (1, b"")
    assert r.stderr.startswith(b"input error:")


def test_runs_share_one_parser(monkeypatch):
    assert _build_parser() is _build_parser()
    argv = ("wigner", "--grid", "4")
    assert run_cli(*argv)[0] == 0
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    for _ in range(5):
        assert run_cli(*argv)[0] == 0
        assert run_cli("scatter", "--state", "bogus")[0] == 1
    assert calls == []


def test_no_state_leaks_from_one_run_to_the_next(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("scatter", "--pi", "20", "--theta", "12", "--out", str(a))[0] == 0
    assert run_cli("scatter", "--out", str(b))[0] == 0
    side = json.loads((tmp_path / "b.csv.config.json").read_text())
    assert (side["p_i"], side["theta_deg"]) == (10.0, [10.0])
    argv = ("asymmetry", "--state", "odd-cat", "--r0", "2", "--wide", "--format", "json")
    code, first, _ = run_cli(*argv)
    assert code == 0
    assert run_cli("asymmetry", "--pi", "30", "--theta", "20", "--state", "bogus")[0] == 1
    assert run_cli(*argv) == (0, first, "")


@pytest.mark.parametrize("sub", [[], ["wigner"], ["scatter"], ["asymmetry"], ["sweep"],
                                 ["validate"]])
def test_shared_parser_prints_the_help_of_a_fresh_one(sub):
    run_cli("wigner", "--grid", "4")  # the shared parser has parsed before
    code, shared, _ = run_cli(*sub, "--help")
    assert code == 0
    fresh = io.StringIO()
    with contextlib.redirect_stdout(fresh), pytest.raises(SystemExit) as exit_:
        _build_parser.__wrapped__().parse_args([*sub, "--help"])
    assert exit_.value.code == 0
    assert shared == fresh.getvalue()
    assert shared.startswith(f"usage: {' '.join(['catscatter', *sub])} [-h]")
