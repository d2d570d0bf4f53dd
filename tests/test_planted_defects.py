"""What each comparison of the three routes checks, shown by planting one
defect at a time.

Every route forms the same sum sum_k A_k B_k.  The closed form and the 2-D
route share the exact position side A_k (``_position_coefficients``) and
differ in the momentum side B_k (Schwinger integral against cubature); the
2-D route and the 4-D oracle share the momentum cubature and differ in
A_k (analytic target weights against a position cubature).  So a defect on
the A side moves the closed form and the 2-D route together, and only the
oracle and the 30-digit reference values see it; a defect in the closed
form's B rows shows against the 2-D route and the reference values.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import catscatter.scattering as sc
from catscatter.scattering import event_density
from test_closed_form_reference import DATA, _config, _kinematics


def _sample():
    """24 cats of the reference set, drawn once with a fixed seed: wide and
    finite targets, both parities."""
    cats = [pt for pt in json.loads(DATA.read_text())["points"] if "parity" in pt]
    return random.Random(32).sample(cats, 24)


def _failing_comparisons(points):
    """The bound-based comparisons that fail somewhere on ``points``:
    |x_a - x_b| <= e_a + e_b for two routes, |x - reference| <= e for the
    closed form and the 2-D route."""
    failed = set()
    for pt in points:
        cfg, kin = _config(pt), _kinematics(pt)
        c, q, g = (event_density(cfg, kin, method)
                   for method in ("closed_form", "quadrature2d", "general4d"))
        if abs(c.value - q.value) > c.err_est + q.err_est:
            failed.add("closed_vs_quad2d")
        if abs(q.value - g.value) > q.err_est + g.err_est:
            failed.add("quad2d_vs_oracle")
        ref = Fraction(pt["reference"])
        if any(abs(Fraction(ed.value) - ref) > Fraction(ed.err_est) for ed in (c, q)):
            failed.add("reference")
    return failed


def _flip_fringe_coefficient(monkeypatch):
    # A side: the fringe's A_1 with the wrong sign, shared by the closed
    # form and the 2-D route.
    coefficients = sc._position_coefficients
    monkeypatch.setattr(sc, "_position_coefficients",
                        lambda cfg: [a * s for a, s in zip(coefficients(cfg), (1.0, -1.0))])


class _HalfFringePhase:
    """numpy, except that an in-place cos, the one that turns the closed
    form's fringe phase into its fringe rows, runs at half the phase."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def cos(x, out=None):
        return np.cos(x) if out is None else np.cos(0.5 * x, out=out)


def _halve_closed_form_fringe_phase(monkeypatch):
    # B side: only the closed form's rows change.
    monkeypatch.setattr(sc, "np", _HalfFringePhase())


@pytest.mark.parametrize("plant,caught_by", [
    (None, set()),
    (_flip_fringe_coefficient, {"quad2d_vs_oracle", "reference"}),
    (_halve_closed_form_fringe_phase, {"closed_vs_quad2d", "reference"}),
], ids=["no_defect", "a_side_fringe_sign", "b_side_fringe_phase"])
def test_each_comparison_checks_its_side(monkeypatch, plant, caught_by):
    if plant:
        plant(monkeypatch)
    assert _failing_comparisons(_sample()) == caught_by
