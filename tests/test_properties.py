"""Property tests over the beam and kinematics parameter space: for the
batched closed form, pi-periodicity and reflection symmetry of dnu(phi)
about the separation azimuth, and nonnegativity; for the 2-D momentum
route, which integrates every beam in the lab frame, the Gaussian and
mixture nulls in phi and agreement with the closed form, for the cats and
for the beams without a fringe; for the 4-D oracle, agreement with the 2-D
route for every beam, on wide and finite targets; for the Wigner
normalization, 1 within its own bound for every beam."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catscatter.scattering import (
    ScatteringConfig,
    event_density_cat_closed,
    event_density_cat_quadrature,
    event_density_gaussian,
    event_density_general,
    event_density_grid,
)
from catscatter.states import BeamState, wigner_normalization
from catscatter.targets import Kinematics, TargetProfile

N_PHI = 16


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sigma_perp=st.floats(0.3, 10.0),
    r0=st.floats(0.01, 40.0),
    theta=st.floats(0.0, math.pi),
    p=st.floats(1.0, 40.0),
    phi_r0=st.floats(0.0, 2.0 * math.pi),
    odd=st.booleans(),
    wide=st.booleans(),
)
# Strong separations at large angles, where a bare fringe integral held to
# its own (negligible) size never converged.
@example(sigma_perp=0.5, r0=7.0, theta=1.0, p=11.0, phi_r0=0.0, odd=False, wide=True)
@example(sigma_perp=0.625, r0=23.0, theta=0.75, p=28.0, phi_r0=1.0, odd=False, wide=False)
def test_batched_scan_symmetries(sigma_perp, r0, theta, p, phi_r0, odd, wide):
    maker = BeamState.odd_cat if odd else BeamState.even_cat
    target = TargetProfile.wide() if wide else TargetProfile.gaussian(20.0, (1.0, -0.5))
    cfg = ScatteringConfig(maker(sigma_perp, r0, phi_r0=phi_r0), target)
    phis = phi_r0 + 0.5 * math.pi * (np.arange(N_PHI) / (N_PHI // 4))
    grid = event_density_grid(cfg, Kinematics.elastic(p, theta), [theta], phis)
    vals, errs = grid.value[0].tolist(), grid.err_est[0].tolist()
    for k in range(N_PHI):
        assert vals[k] >= 0.0
        for j in ((k + N_PHI // 2) % N_PHI, (N_PHI - k) % N_PHI):  # phi + pi, 2 phi_r0 - phi
            assert abs(vals[k] - vals[j]) <= errs[k] + errs[j]


# -- the 2-D momentum route ----------------------------------------------------

ROUTE_2D = dict(
    sigma_perp=st.floats(0.3, 10.0),
    r0_ratio=st.floats(0.05, 10.0),
    theta=st.floats(0.0, math.pi),
    p=st.floats(1.0, 40.0),
    phi=st.floats(0.0, 2.0 * math.pi),
    phi_r0=st.floats(0.0, 2.0 * math.pi),
    wide=st.booleans(),
)


def _agree(a, b):
    assert abs(a.value - b.value) <= a.err_est + b.err_est


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**ROUTE_2D)
def test_route_2d_nulls_and_frames(sigma_perp, r0_ratio, theta, p, phi, phi_r0, wide):
    """Gaussian and incoherent-pair densities are flat in phi.  Both beams
    are integrated in the lab frame, so each phi is a different integrand
    and the nulls test the quadrature; the anisotropic beam with equal
    widths runs the same lab-frame integral as the round Gaussian."""
    target = TargetProfile.wide() if wide else TargetProfile.gaussian(20.0, (1.0, -0.5))
    kins = [Kinematics.elastic(p, theta, phi), Kinematics.elastic(p, theta, phi_r0)]
    r0 = r0_ratio * sigma_perp
    gauss = [event_density_gaussian(ScatteringConfig(BeamState.gaussian(sigma_perp), target), k)
             for k in kins]
    mix_cfg = ScatteringConfig(BeamState.incoherent_pair(sigma_perp, r0, phi_r0=phi_r0), target)
    mix = [event_density_cat_quadrature(mix_cfg, k) for k in kins]
    aniso = event_density_gaussian(
        ScatteringConfig(BeamState.anisotropic(sigma_perp, sigma_perp), target), kins[0])
    _agree(*gauss)
    _agree(*mix)
    _agree(aniso, gauss[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**ROUTE_2D, sigma_y=st.floats(0.3, 10.0))
def test_closed_form_agrees_with_route_2d_without_fringe(sigma_perp, r0_ratio, theta, p, phi,
                                                         phi_r0, wide, sigma_y):
    """The closed form of the beams without a fringe (Gaussian, mixture,
    anisotropic) agrees with the 2-D momentum route, and the anisotropic
    closed form at equal widths (lab frame) is the round Gaussian's
    (Qperp-aligned frame)."""
    target = TargetProfile.wide() if wide else TargetProfile.gaussian(20.0, (1.0, -0.5))
    kin = Kinematics.elastic(p, theta, phi)
    gauss = ScatteringConfig(BeamState.gaussian(sigma_perp), target)
    mix = ScatteringConfig(
        BeamState.incoherent_pair(sigma_perp, r0_ratio * sigma_perp, phi_r0=phi_r0), target)
    aniso = ScatteringConfig(BeamState.anisotropic(sigma_perp, sigma_y), target)
    equal = ScatteringConfig(BeamState.anisotropic(sigma_perp, sigma_perp), target)
    _agree(event_density_cat_closed(gauss, kin), event_density_gaussian(gauss, kin))
    _agree(event_density_cat_closed(mix, kin), event_density_cat_quadrature(mix, kin))
    _agree(event_density_cat_closed(aniso, kin), event_density_gaussian(aniso, kin))
    _agree(event_density_cat_closed(equal, kin), event_density_cat_closed(gauss, kin))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**ROUTE_2D, odd=st.booleans())
# Fast fringes: wide separations at large momentum transfer on the offset
# target, the corner that most tests the fringe panel budget of the 2-D route.
@example(sigma_perp=2.0, r0_ratio=5.0, theta=0.44, p=35.0, phi=0.3, phi_r0=1.1,
         wide=False, odd=True)
@example(sigma_perp=2.0, r0_ratio=5.0, theta=0.44, p=35.0, phi=0.3, phi_r0=1.1,
         wide=False, odd=False)
@example(sigma_perp=1.0, r0_ratio=6.0, theta=0.52, p=40.0, phi=2.0, phi_r0=0.7,
         wide=False, odd=True)
@example(sigma_perp=1.5, r0_ratio=6.0, theta=0.35, p=40.0, phi=5.5, phi_r0=0.4,
         wide=False, odd=False)
@example(sigma_perp=3.0, r0_ratio=4.0, theta=0.35, p=30.0, phi=4.0, phi_r0=2.5,
         wide=False, odd=False)
# Strong separations inside the validity band (r0 / sigma_perp up to 10),
# where a bare fringe integral held to its own size never converged.
@example(sigma_perp=1.0, r0_ratio=8.0, theta=0.35, p=20.0, phi=0.3, phi_r0=0.3,
         wide=True, odd=False)
@example(sigma_perp=1.0, r0_ratio=10.0, theta=0.17, p=10.0, phi=2.0, phi_r0=0.3,
         wide=True, odd=True)
@example(sigma_perp=2.0, r0_ratio=8.0, theta=0.3, p=20.0, phi=1.1, phi_r0=0.3,
         wide=False, odd=True)
@example(sigma_perp=0.5, r0_ratio=10.0, theta=0.6, p=40.0, phi=1.1, phi_r0=0.3,
         wide=False, odd=False)
def test_route_2d_cat_agrees_with_closed_form(sigma_perp, r0_ratio, theta, p, phi, phi_r0,
                                              wide, odd):
    maker = BeamState.odd_cat if odd else BeamState.even_cat
    target = TargetProfile.wide() if wide else TargetProfile.gaussian(20.0, (1.0, -0.5))
    cfg = ScatteringConfig(maker(sigma_perp, r0_ratio * sigma_perp, phi_r0=phi_r0), target)
    kin = Kinematics.elastic(p, theta, phi)
    _agree(event_density_cat_quadrature(cfg, kin), event_density_cat_closed(cfg, kin))


# -- the 4-D phase-space oracle ------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    variant=st.sampled_from(["gaussian", "even_cat", "odd_cat", "incoherent_pair",
                             "anisotropic"]),
    sigma_perp=st.floats(0.5, 5.0),
    sigma_y=st.floats(0.5, 5.0),
    r0_ratio=st.floats(0.5, 10.0),
    phi_r0=st.floats(0.0, 2.0 * math.pi),
    sigma_t=st.floats(5.0, 25.0),
    wide=st.booleans(),
    theta=st.floats(0.0, 0.5),
    p=st.floats(5.0, 30.0),
    phi=st.floats(0.0, 2.0 * math.pi),
)
def test_route_4d_cat_agrees_with_2d(variant, sigma_perp, sigma_y, r0_ratio, phi_r0, sigma_t,
                                     wide, theta, p, phi):
    """The lab-frame 4-D oracle of n W f^2 and the 2-D momentum route give
    one density within their summed bounds, for every beam, on the wide
    target and on an offset finite one."""
    if variant == "gaussian":
        state = BeamState.gaussian(sigma_perp)
    elif variant == "anisotropic":
        state = BeamState.anisotropic(sigma_perp, sigma_y)
    else:
        state = getattr(BeamState, variant)(sigma_perp, r0_ratio * sigma_perp, phi_r0=phi_r0)
    target = TargetProfile.wide() if wide else TargetProfile.gaussian(sigma_t, (1.0, -0.5))
    cfg = ScatteringConfig(state, target)
    kin = Kinematics.elastic(p, theta, phi)
    _agree(event_density_general(cfg, kin), event_density_cat_quadrature(cfg, kin))


# -- the Wigner normalization --------------------------------------------------

@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    variant=st.sampled_from(["gaussian", "even_cat", "odd_cat", "incoherent_pair",
                             "anisotropic"]),
    sigma=st.floats(0.3, 10.0),
    r0_ratio=st.floats(0.5, 10.0),
    phi_r0=st.floats(0.0, math.pi),
    aspect=st.floats(0.3, 3.0),
)
# Wide oblique separations: many fringe panels on both momentum axes.
@example(variant="even_cat", sigma=1.0, r0_ratio=6.0, phi_r0=0.5, aspect=1.0)
@example(variant="even_cat", sigma=1.0, r0_ratio=7.5, phi_r0=0.5, aspect=1.0)
def test_wigner_normalization_within_its_bound(variant, sigma, r0_ratio, phi_r0, aspect):
    """W integrates to 1 within its err_est, and err_est within 1e-4, for
    every beam; aspect is sigma_y / sigma_x of the anisotropic beam."""
    if variant == "gaussian":
        state = BeamState.gaussian(sigma)
    elif variant == "anisotropic":
        state = BeamState.anisotropic(sigma, aspect * sigma)
    else:
        state = getattr(BeamState, variant)(sigma, r0_ratio * sigma, phi_r0=phi_r0)
    res = wigner_normalization(state)
    assert abs(res.value - 1.0) <= res.err_est <= 1e-4
