"""Property tests of the batched closed form over the beam and kinematics
parameter space: pi-periodicity and reflection symmetry of dnu(phi) about
the separation azimuth, and nonnegativity."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catscatter.scattering import ScatteringConfig, event_densities
from catscatter.states import BeamState
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
    eds = event_densities(cfg, [Kinematics.elastic(p, theta, float(f)) for f in phis])
    for k, ed in enumerate(eds):
        assert ed.value >= 0.0
        for j in ((k + N_PHI // 2) % N_PHI, (N_PHI - k) % N_PHI):  # phi + pi, 2 phi_r0 - phi
            other = eds[j]
            assert abs(ed.value - other.value) <= ed.err_est + other.err_est
