"""The err_est of the closed form, of the 2-D momentum route and of the
4-D oracle against independent 30-digit reference values, for the cats
and for the beams without a fringe.

``tests/data/closed_form_reference.json`` is written by
``tests/data/make_closed_form_reference.py`` (mpmath, x-domain integral);
this test reads only the JSON.
"""

import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from catscatter import BeamState, Kinematics, ScatteringConfig, TargetProfile
from catscatter.scattering import (METHOD_SPECS, event_density, event_density_cat_closed,
                                   event_density_grid)

DATA = Path(__file__).parent / "data" / "closed_form_reference.json"


def _state(pt: dict) -> BeamState:
    beam = pt.get("beam")
    if beam == "gaussian":
        return BeamState.gaussian(pt["sigma_x"])
    if beam == "mixture":
        return BeamState.incoherent_pair(pt["sigma_x"], pt["r0"], phi_r0=pt["phi_r0"])
    if beam == "anisotropic":
        return BeamState.anisotropic(pt["sigma_x"], pt["sigma_y"])
    maker = BeamState.even_cat if pt["parity"] == 1 else BeamState.odd_cat
    return maker(pt["sigma_perp"], pt["r0"], phi_r0=pt["phi_r0"])


def _config(pt: dict) -> ScatteringConfig:
    state = _state(pt)
    if pt["target"] is None:
        return ScatteringConfig(state, TargetProfile.wide())
    sigma_t, b0x, b0y = pt["target"]
    return ScatteringConfig(state, TargetProfile.gaussian(sigma_t, (b0x, b0y)))


def _kinematics(pt: dict) -> Kinematics:
    return Kinematics.elastic(pt["p"], pt["theta"], pt["phi"])


def _assert_bounded(pairs):
    worst = (0.0, None)
    for ed, pt in pairs:
        assert math.isfinite(ed.value) and ed.err_est > 0
        # Exact rational arithmetic: the float result and its bound against
        # the decimal reference, with no rounding of the difference.
        miss = abs(Fraction(ed.value) - Fraction(pt["reference"])) / Fraction(ed.err_est)
        if miss > worst[0]:
            worst = (miss, pt)
    assert worst[0] <= 1, f"|value - reference| = {float(worst[0]):.3g} err_est at {worst[1]}"


def test_closed_form_err_est_bounds_reference_error():
    points = json.loads(DATA.read_text())["points"]
    assert len(points) >= 300
    assert {pt.get("beam") for pt in points} == {None, "gaussian", "mixture", "anisotropic"}
    _assert_bounded((event_density_cat_closed(_config(pt), _kinematics(pt)), pt)
                    for pt in points)


def test_closed_form_batch_err_est_bounds_reference_error():
    # Each point as the first cell of a 2 x 3 grid whose other rows turn
    # faster (a larger polar angle) and sit at other azimuths: it shares a
    # panel set with them and must keep its own bound.
    points = json.loads(DATA.read_text())["points"]
    assert len(points) >= 300

    def first_cell(pt):
        th, phi = pt["theta"], pt["phi"]
        grid = event_density_grid(_config(pt), _kinematics(pt),
                                  [th, min(math.pi, 2.0 * th + 0.1)], [phi, phi + 1.0, phi + 2.5])
        assert grid.value.shape == (2, 3)
        return replace(grid, value=grid.value[0, 0].item(), err_est=grid.err_est[0, 0].item())

    _assert_bounded((first_cell(pt), pt) for pt in points)


def test_quad2d_err_est_bounds_reference_error():
    # Many points put the amplitude peak outside the +/-4/sigma momentum box,
    # so the bound must carry the Gaussian mass the box leaves out.
    points = json.loads(DATA.read_text())["points"]
    _assert_bounded((event_density(_config(pt), _kinematics(pt), "quadrature2d"), pt)
                    for pt in points)


def test_general4d_err_est_bounds_reference_error():
    points = json.loads(DATA.read_text())["points"]
    assert len(points) >= 300
    _assert_bounded((event_density(_config(pt), _kinematics(pt), "general4d"), pt)
                    for pt in points)


def test_general4d_position_tail_weighs_the_density_outside_the_box():
    # Point 68: packets at r0 ~ 72 on a sigma_t ~ 3.5 target near the origin,
    # 28 sigma_t inside every edge of the Wigner box, so n outside the box
    # is below e^-390 of its maximum; a tail weighed by that maximum makes
    # the bound 1.4e7 times the tolerance.
    pt = json.loads(DATA.read_text())["points"][68]
    ed = event_density(_config(pt), _kinematics(pt), "general4d")
    assert ed.err_est <= 1e3 * METHOD_SPECS["general4d"].rel_tol * abs(ed.value)
    _assert_bounded([(ed, pt)])
