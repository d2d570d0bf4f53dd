"""Command-line front end.

Five subcommands: ``wigner`` (phase-space grid export), ``scatter``
(event densities over a theta x phi grid), ``asymmetry``, ``sweep`` and
``validate`` (oracle cross-checks plus the validity report).

Lengths are in Bohr radii, momenta in 1/a, CLI angles in degrees.  Every
run with ``--out`` writes a JSON sidecar ``<out>.config.json`` with the
fully resolved configuration; ``catscatter --config sidecar.json``
reproduces the run bit-identically.  All numbers are serialized with 17
significant digits.  Exit codes: 0 success, 1 input error, 2 validation
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import AsymmetrySpec, azimuthal_asymmetry, sweep as run_sweep
from .errors import CatscatterError
from .quadrature import Interval, QuadratureSpec, integrate_1d, integrate_nd
from .scattering import (
    METHOD_SPECS,
    ScatteringConfig,
    cross_section,
    event_density,
    event_density_grid,
    validity_check,
)
from .states import (
    WIGNER_GRID_N,
    BeamState,
    PhasePoint,
    momentum_from_keV,
    wigner,
    wigner_grid,
    wigner_normalization,
)
from .targets import Kinematics, TargetProfile

DEG = math.pi / 180.0

_VARIANT_BY_FLAG = {
    "gaussian": "gaussian",
    "even-cat": "even_cat",
    "odd-cat": "odd_cat",
    "mixture": "incoherent_pair",
    "aniso": "anisotropic",
}
_METHOD_BY_FLAG = {
    "auto": "auto",
    "general4d": "general4d",
    "quad2d": "quadrature2d",
    "closed": "closed_form",
}
_AXIS_BY_FLAG = {"r0": "r0", "sigma-perp": "sigma_perp", "theta": "theta", "pi": "p_i"}
_SUBCOMMANDS = {
    "wigner": "export a Wigner-function grid",
    "scatter": "event densities over a theta x phi grid",
    "asymmetry": "azimuthal asymmetry with its phi scan",
    "sweep": "asymmetry sweep along one parameter axis",
    "validate": "oracle cross-checks and validity report",
}
# The subcommands that read each group of RunConfig fields.
_ALL = tuple(_SUBCOMMANDS)
_SCATTERING = ("scatter", "asymmetry", "sweep", "validate")  # beam energy and target
_KINEMATICS = ("scatter", "asymmetry", "sweep")  # angles and quadrature
_TABLES = ("wigner", "scatter", "asymmetry", "sweep")  # runs that print a table


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        raise _InputError(message)


def fmt(x: float) -> str:
    """17 significant digits; exact float round-trip (NaN prints as ``nan``)."""
    return f"{x:.17g}"


def parse_grid(text: str, what: str) -> list[float]:
    """'A' -> [A]; 'A:B:N' -> N points from A to B inclusive."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 1:
                raise ValueError
            return [lo] if n == 1 else list(np.linspace(lo, hi, n))
    except ValueError:
        pass
    raise _InputError(f"--{what}: expected 'A' or 'A:B:N', got {text!r}")


def _parse_values(text: str) -> list[float]:
    """'V1,V2,...' -> [V1, V2, ...]; empty items are skipped."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise _InputError(f"--values: expected comma-separated floats, got {text!r}") from None
    if not values:
        raise _InputError("--values: empty list")
    return values


def _flag(flag: str, subs: tuple[str, ...], default=None, **kw):
    """A :class:`RunConfig` field that ``flag`` sets on the subcommands ``subs``.

    ``kw`` goes to ``add_argument``; a flag with neither choices nor an
    action reads a float unless it names its type."""
    if "choices" not in kw and "action" not in kw:
        kw = {"type": float, "metavar": "F", **kw}
    meta = {"flag": flag, "subs": subs, **kw}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Fully resolved run description; the sidecar serializes this.

    Each field declares its flag and the subcommands that take it; the
    parser is built from these.  The defaults are the CLI's, and building
    a config runs the checks that flags and sidecars share.
    """

    subcommand: str = field(metadata={"choices": _ALL})
    state: str = _flag("--state", _ALL, "gaussian", choices=tuple(_VARIANT_BY_FLAG))
    sigma_perp: float = _flag("--sigma-perp", _ALL, 2.0)
    sigma_x: float | None = _flag("--sigma-x", _ALL)
    sigma_y: float | None = _flag("--sigma-y", _ALL)
    r0: float = _flag("--r0", _ALL, 0.0, help="half the packet separation [a]")
    phi_r0_deg: float = _flag("--phi-r0", _ALL, 0.0, metavar="DEG")
    sigma_z: float = _flag("--sigma-z", _SCATTERING, 10.0)
    p_i: float = _flag("--pi", _SCATTERING, 10.0)
    p_f: float | None = _flag("--pf", _KINEMATICS)
    sigma_t: float | None = _flag("--sigma-t", _SCATTERING)
    b0x: float = _flag("--b0x", _SCATTERING, 0.0)
    b0y: float = _flag("--b0y", _SCATTERING, 0.0)
    wide: bool = _flag("--wide", _SCATTERING, False, action="store_true",
                       help="analytic wide-target limit (reports cross sections)")
    theta_deg: list[float] = _flag("--theta", _KINEMATICS, [10.0], metavar="A[:B:N]",
                                   type=lambda t: parse_grid(t, "theta"))
    phi_deg: list[float] | None = _flag("--phi", ("scatter",), metavar="A[:B:N]",
                                        type=lambda t: parse_grid(t, "phi"))
    phi_grid: int = _flag("--phi-grid", _KINEMATICS, 16, type=int, metavar="N")
    metric: str = _flag("--metric", ("asymmetry", "sweep"), "para-perp",
                        choices=("para-perp", "minmax"))
    method: str = _flag("--method", _KINEMATICS, "auto", choices=tuple(_METHOD_BY_FLAG))
    tol: float | None = _flag("--tol", _KINEMATICS)
    ne: int = _flag("--ne", _KINEMATICS, 1, type=int, metavar="N")
    grid: int | None = _flag("--grid", ("wigner",), type=int, metavar="N", help=(
        "points per axis (default %(slice)d slice, %(full)d full)" % WIGNER_GRID_N))
    mode: str = _flag("--mode", ("wigner",), "slice", choices=tuple(WIGNER_GRID_N))
    axis: str | None = _flag("--axis", ("sweep",), choices=tuple(_AXIS_BY_FLAG), required=True)
    values: list[float] | None = _flag("--values", ("sweep",), type=_parse_values,
                                       metavar="V1,V2,...", required=True)
    r0_ratio: float | None = _flag("--r0-ratio", ("sweep",),
                                   help="hold r0 = ratio * sigma_perp on sigma-perp sweeps")
    out: str | None = _flag("--out", _ALL, type=str, metavar="PATH")
    format: str = _flag("--format", _TABLES, "csv", choices=("csv", "json"))
    version: str = __version__

    def __post_init__(self) -> None:
        for f in fields(self):  # a choice field may also keep its default (axis None)
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices and value not in choices and value != f.default:
                raise _InputError(f"{f.metadata.get('flag', f.name)}: invalid choice {value!r} "
                                  f"(choose from {', '.join(choices)})")
        self.wide = self.wide or self.sigma_t is None
        if self.grid is None:
            self.grid = WIGNER_GRID_N[self.mode]
        if self.tol is not None and not self.tol > 0:
            raise _InputError(f"--tol must be > 0, got {self.tol!r}")
        for flag, n in (("--phi-grid", self.phi_grid), ("--grid", self.grid)):
            if not isinstance(n, numbers.Integral) or n < 1:
                raise _InputError(f"{flag} must be an integer >= 1, got {n!r}")
        if self.subcommand in ("asymmetry", "sweep") and len(self.theta_deg) > 1:
            raise _InputError(f"{self.subcommand} takes one --theta, got {len(self.theta_deg)}")
        if self.r0_ratio is not None and self.axis != "sigma-perp":
            raise _InputError(f"--r0-ratio needs --axis sigma-perp, got {self.axis}")
        if self.p_f is not None and self.axis == "pi":
            raise _InputError("--pf cannot be set on --axis pi: each point is elastic at its p_i")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        data.pop("version", None)
        try:
            cfg = cls(**data, version=__version__)
        except TypeError as exc:
            raise _InputError(f"config file field error: {exc}") from None
        # A field of a flag the subcommand does not take must hold what the
        # bare subcommand resolves it to (__post_init__ normalises wide and grid).
        sub, bare = cfg.subcommand, cls(cfg.subcommand)
        for f in fields(cls):
            value = getattr(cfg, f.name)
            if sub not in f.metadata.get("subs", _ALL) and value != getattr(bare, f.name):
                raise _InputError(f"{sub} takes no {f.metadata['flag']}, got {value!r}")
        required = [f for f in fields(cls)
                    if f.metadata.get("required") and sub in f.metadata["subs"]]
        if any(getattr(cfg, f.name) is None for f in required):
            raise _InputError(f"{sub} needs " + " and ".join(f.metadata["flag"] for f in required))
        return cfg


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built by the first :func:`run`.

    Parsing leaves it unchanged: each ``parse_args`` fills a fresh
    namespace, and unset subcommand flags stay out of it."""
    top = _Parser(prog="catscatter", description=__doc__)
    top.add_argument("--config", metavar="PATH",
                     help="re-run from a sidecar config file")
    sub = top.add_subparsers(dest="subcommand")
    for name, doc in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=doc, argument_default=argparse.SUPPRESS,
                            allow_abbrev=False)
        for f in fields(RunConfig):
            kw = dict(f.metadata)
            if name not in kw.pop("subs", ()):
                continue
            sp.add_argument(kw.pop("flag"), dest=f.name, **kw)
            if f.name == "p_i":  # --ev is no field: it sets p_i from the kinetic energy
                sp.add_argument("--ev", type=float, metavar="KEV",
                                help="kinetic energy in keV (overrides --pi)")
    return top


def _resolve(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    del given["config"]
    if "ev" in given:
        given["p_i"] = momentum_from_keV(given.pop("ev"))
    return RunConfig(**given)


def build_state(cfg: RunConfig) -> BeamState:
    variant = _VARIANT_BY_FLAG[cfg.state]
    common = dict(sigma_z=cfg.sigma_z, p_i=cfg.p_i)
    if variant == "anisotropic":
        if cfg.sigma_x is None or cfg.sigma_y is None:
            raise _InputError("--state aniso needs --sigma-x and --sigma-y")
        return BeamState.anisotropic(cfg.sigma_x, cfg.sigma_y, **common)
    if variant == "gaussian":
        return BeamState.gaussian(cfg.sigma_perp, **common)
    maker = {"even_cat": BeamState.even_cat, "odd_cat": BeamState.odd_cat,
             "incoherent_pair": BeamState.incoherent_pair}[variant]
    return maker(cfg.sigma_perp, cfg.r0, phi_r0=cfg.phi_r0_deg * DEG, **common)


def build_target(cfg: RunConfig) -> TargetProfile:
    if cfg.wide:
        return TargetProfile.wide()
    return TargetProfile.gaussian(cfg.sigma_t, (cfg.b0x, cfg.b0y))


def _scattering_config(cfg: RunConfig) -> ScatteringConfig:
    spec = METHOD_SPECS[_METHOD_BY_FLAG[cfg.method]]  # --tol replaces only its rel_tol
    quad = replace(spec, rel_tol=cfg.tol) if cfg.tol is not None else None
    return ScatteringConfig(build_state(cfg), build_target(cfg), n_e=cfg.ne, quad=quad)


def _kin(cfg: RunConfig, theta_deg: float, phi_deg: float) -> Kinematics:
    p_f = cfg.p_f if cfg.p_f is not None else cfg.p_i
    return Kinematics(cfg.p_i, p_f, theta_deg * DEG, phi_deg * DEG)


# ---------------------------------------------------------------------------
# Subcommands: each returns (header, rows, extra_json)
# ---------------------------------------------------------------------------


def _run_wigner(cfg: RunConfig):
    cols = wigner_grid(build_state(cfg), cfg.grid, cfg.mode)
    header = ["x", "px", "w"] if cfg.mode == "slice" else ["x", "y", "px", "py", "w"]
    return header, np.column_stack([c.ravel() for c in cols]), None


def _run_scatter(cfg: RunConfig):
    phis = cfg.phi_deg if cfg.phi_deg is not None else [
        360.0 * k / cfg.phi_grid for k in range(cfg.phi_grid)]
    th, ph = np.meshgrid(cfg.theta_deg, phis, indexing="ij")
    ed = event_density_grid(_scattering_config(cfg), _kin(cfg, th[0, 0], ph[0, 0]),
                            th[:, 0] * DEG, ph[0] * DEG, method=_METHOD_BY_FLAG[cfg.method])
    nan = np.full(th.shape, math.nan)
    dnu = nan if ed.wide_limit else ed.value
    dsig = cross_section(ed) if ed.wide_limit or ed.sigma_sq is not None else nan
    rows = [(*row, ed.method) for row in zip(*(a.ravel().tolist()
                                               for a in (th, ph, dnu, dsig, ed.err_est)))]
    return ["theta_deg", "phi_deg", "dnu", "dsigma", "err_est", "method"], rows, None


def _asym_spec(cfg: RunConfig, theta_deg: float) -> AsymmetrySpec:
    return AsymmetrySpec(
        cfg=_scattering_config(cfg), kin_base=_kin(cfg, theta_deg, cfg.phi_r0_deg),
        phi_grid_n=cfg.phi_grid,
        metric=cfg.metric.replace("-", "_"),
        method=_METHOD_BY_FLAG[cfg.method],
    )


def _run_asymmetry(cfg: RunConfig):
    th = cfg.theta_deg[0]
    res = azimuthal_asymmetry(_asym_spec(cfg, th))
    rows = [(cfg.r0, th, res.A, res.metric)]
    extra = {"phi_scan": [[p, v] for p, v in res.phi_scan],
             "params": res.params_echo}
    return ["axis_value", "theta_deg", "A", "metric"], rows, extra


def _run_sweep(cfg: RunConfig):
    axis = _AXIS_BY_FLAG[cfg.axis]
    values = [v * DEG for v in cfg.values] if axis == "theta" else list(cfg.values)
    # The base state sits at the first swept point: the defaults it replaces
    # (r0 = 0, say) need not make a valid state.
    v0 = cfg.values[0]
    at = {"theta_deg": [v0]} if axis == "theta" else {axis: v0}
    if cfg.r0_ratio is not None:
        at["r0"] = cfg.r0_ratio * v0
    base = replace(cfg, **at)
    spec = _asym_spec(base, base.theta_deg[0])
    rows_out = []
    scans = []
    for row in run_sweep(spec, axis, values, r0_ratio=cfg.r0_ratio):
        shown = row.value / DEG if axis == "theta" else row.value
        if row.result is None:
            rows_out.append((shown, math.nan, math.nan, f"error:{row.error}"))
            scans.append({"value": shown, "error": row.error})
        else:
            rows_out.append((shown, row.result.theta / DEG, row.result.A, row.result.metric))
            scans.append({"value": shown,
                          "phi_scan": [[p, v] for p, v in row.result.phi_scan]})
    return ["axis_value", "theta_deg", "A", "metric"], rows_out, {"points": scans}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _run_validate(cfg: RunConfig):
    """Oracle battery: quadrature identities, phase-space identities,
    three-method agreement, symmetry nulls, and the validity report."""
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    r = integrate_1d(lambda x: x * x, Interval(0.0, 1.0))
    check("quad cubic", abs(r.value - 1.0 / 3.0) <= 1e-12, f"x^2 -> {fmt(r.value)}")
    r = integrate_nd(lambda x, y: np.exp(-x * x - y * y) / math.pi,
                     [Interval(-8, 8), Interval(-8, 8)],
                     QuadratureSpec(rel_tol=1e-12, abs_tol=1e-13),
                     initial_splits=[4, 4])
    check("quad 2d gaussian", abs(r.value - 1.0) <= 1e-10, f"-> {fmt(r.value)}")

    pi2 = 1.0 / math.pi ** 2
    st_e = BeamState.even_cat(2.0, 4.0)
    st_o = BeamState.odd_cat(2.0, 4.0)
    w0 = wigner(BeamState.gaussian(2.0), PhasePoint((0, 0), (0, 0)))
    check("wigner gaussian origin", abs(w0 - pi2) <= 1e-12, fmt(w0))
    we = wigner(st_e, PhasePoint((0, 0), (0, 0)))
    wo = wigner(st_o, PhasePoint((0, 0), (0, 0)))
    check("wigner even-cat origin", abs(we - pi2) <= 1e-12, fmt(we))
    check("wigner odd-cat origin", abs(wo + pi2) <= 1e-12, fmt(wo))
    nrm = wigner_normalization(st_e)
    check("wigner normalization", abs(nrm.value - 1.0) <= 1e-4, fmt(nrm.value))

    tight2 = QuadratureSpec(rel_tol=1e-8, max_subdivisions=20_000)
    tight1 = QuadratureSpec(rel_tol=1e-10)
    wide = TargetProfile.wide()
    worst = 0.0
    for st in (st_e, st_o):
        for th in (5.0, 10.0):
            kin = Kinematics.elastic(10.0, th * DEG, 0.4)
            c = event_density(ScatteringConfig(st, wide, quad=tight1), kin, "closed_form")
            q = event_density(ScatteringConfig(st, wide, quad=tight2), kin, "quadrature2d")
            worst = max(worst, abs(c.value - q.value) / abs(q.value))
    check("three-method closed vs quad2d", worst <= 1e-6, f"max rel {worst:.3e} <= 1e-06")

    tgt = TargetProfile.gaussian(20.0)
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.7)
    g4 = event_density(ScatteringConfig(st_e, tgt), kin, "general4d")
    q2 = event_density(ScatteringConfig(st_e, tgt, quad=tight2), kin, "quadrature2d")
    rel = abs(g4.value - q2.value) / abs(q2.value)
    check("three-method general4d vs quad2d", rel <= 1e-3, f"rel {rel:.3e} <= 1e-03")

    stg = BeamState.gaussian(2.0)
    sc = ScatteringConfig(stg, TargetProfile.gaussian(20.0, (3.0, 0.0)), quad=tight2)
    # The nulls run on the lab-frame 2-D route: the closed form gives every phi
    # of a round beam one weight row, so they would hold by construction there.
    vals = event_density_grid(sc, Kinematics.elastic(10.0, 10.0 * DEG), [10.0 * DEG],
                              [0.0, 1.0, 2.0, 4.0], "quadrature2d").value[0].tolist()
    spread = (max(vals) - min(vals)) / max(vals)
    check("gaussian off-axis phi flat", spread <= 1e-6, f"rel spread {spread:.3e}")

    spec = AsymmetrySpec(cfg=ScatteringConfig(BeamState.incoherent_pair(2.0, 4.0), wide),
                         kin_base=Kinematics.elastic(10.0, 10.0 * DEG), phi_grid_n=8,
                         method="quadrature2d")
    a_mix = azimuthal_asymmetry(spec).A
    check("mixture asymmetry null", abs(a_mix) <= 1e-8, fmt(a_mix))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = AsymmetrySpec(cfg=ScatteringConfig(BeamState.odd_cat(2.0, 2.0), wide),
                             kin_base=Kinematics.elastic(10.0, 10.0 * DEG), phi_grid_n=8)
        a_odd = azimuthal_asymmetry(spec).A
    check("odd-cat asymmetry band", 0.03 <= abs(a_odd) <= 0.2, fmt(a_odd))

    lines = []
    n_fail = 0
    for name, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        n_fail += 0 if ok else 1

    lines.append("validity report (configured state):")
    state, target = build_state(cfg), build_target(cfg)
    for cond in validity_check(state, target):
        status = "ok" if cond.satisfied else "warn"
        lines.append(f"  {status:4s} {cond.condition}: margin {fmt(cond.margin)}")
    lines.append(f"{len(checks) - n_fail}/{len(checks)} oracle checks passed")
    return lines, n_fail == 0


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _render_csv(header: Sequence[str], rows) -> str:
    """CSV of a 2-D float array, or of rows whose columns keep the types of
    the first row: numbers as :func:`fmt` prints them, strings as they are.
    The body is one ``%`` pass of a row template over the flat values."""
    head = ",".join(header) + "\n"
    if not len(rows):
        return head
    line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) + "\n"
    flat = rows.ravel().tolist() if isinstance(rows, np.ndarray) else [v for r in rows for v in r]
    return head + (line * len(rows)) % tuple(flat)


def _render_json(cfg: RunConfig, header, rows, extra) -> str:
    payload = {
        "config": asdict(cfg),
        "columns": list(header),
        "rows": rows.tolist() if isinstance(rows, np.ndarray) else [list(row) for row in rows],
    }
    if extra:
        payload["extra"] = extra
    return json.dumps(payload, indent=2) + "\n"


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(cfg.out + ".config.json", "w", encoding="utf-8") as fh:
            fh.write(cfg.to_json() + "\n")
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            if args.subcommand:
                raise _InputError("--config re-runs a sidecar as it is and takes no "
                                  f"subcommand, got {args.subcommand!r}")
            with open(args.config, encoding="utf-8") as fh:
                cfg = RunConfig.from_json(fh.read())
        elif args.subcommand:
            cfg = _resolve(args)
        else:
            raise _InputError("a subcommand or --config is required")

        if cfg.subcommand == "validate":
            lines, ok = _run_validate(cfg)
            _emit(cfg, "\n".join(lines) + "\n")
            return 0 if ok else 2

        runner = {
            "wigner": _run_wigner,
            "scatter": _run_scatter,
            "asymmetry": _run_asymmetry,
            "sweep": _run_sweep,
        }[cfg.subcommand]
        header, rows, extra = runner(cfg)
        text = (_render_csv(header, rows) if cfg.format == "csv"
                else _render_json(cfg, header, rows, extra))
        _emit(cfg, text)
        return 0
    except SystemExit as exc:  # --help
        return exc.code
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (CatscatterError, ValueError, OSError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
