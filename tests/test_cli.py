import csv
import json
import math
import subprocess
import sys
from dataclasses import fields

import pytest

from catscatter.cli import DEG, RunConfig, _build_parser, _resolve, fmt, parse_grid, run
from catscatter.scattering import ScatteringConfig, event_density_cat_closed
from catscatter.states import BeamState, negativity_scan
from catscatter.targets import Kinematics, TargetProfile

PI2 = 1.0 / math.pi ** 2


def run_cli(*argv):
    """In-process CLI invocation capturing stdout."""
    import contextlib
    import io

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


# A sidecar value outside the parser's choices for its field (library
# spellings and misspellings).
@pytest.mark.parametrize("sub,field,bad", [
    ("scatter", "state", "cat"),
    ("scatter", "method", "quadrature2d"),
    ("asymmetry", "metric", "para_perp"),
    ("wigner", "mode", "4d"),
    ("scatter", "format", "xml"),
    ("sweep", "axis", "sigma_perp"),
])
def test_sidecar_choice_fields_are_checked(sub, field, bad, tmp_path):
    extra = dict(axis="r0", values=[1.0, 2.0]) if sub == "sweep" else {}
    data = json.loads(RunConfig(subcommand=sub, **extra).to_json())
    data[field] = bad
    sidecar = tmp_path / "bad.config.json"
    sidecar.write_text(json.dumps(data))
    code, out, err = run_cli("--config", str(sidecar))
    assert (code, out) == (1, "")
    assert err.startswith(f"input error: --{field}: invalid choice {bad!r}")


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
