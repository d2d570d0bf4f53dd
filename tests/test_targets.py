import math
import warnings

import numpy as np
import pytest

from catscatter.errors import WideLimitHasNoDensity
from catscatter.quadrature import Interval, QuadratureSpec, integrate_nd
from catscatter.scattering import ScatteringConfig, event_density
from catscatter.states import BeamState
from catscatter.targets import (
    Kinematics,
    TargetProfile,
    hydrogen_amplitude,
    target_density,
    transfer_components,
)

DEG = math.pi / 180.0


# -- momentum transfer -------------------------------------------------------


def transfer(kin):
    """(Qz, Q_x, Q_y) of a kinematics."""
    return transfer_components(kin.p_i, kin.p_f, kin.theta, kin.phi)


def test_forward_elastic_limit():
    qz, qx, qy = transfer(Kinematics.elastic(10.0, 0.0))
    assert qz == 0.0
    assert (qx, qy) == (0.0, 0.0)


def test_ten_degree_transfer():
    qz, qx, qy = transfer(Kinematics.elastic(10.0, 10.0 * DEG, 0.0))
    assert qz == pytest.approx(10.0 * (math.cos(10.0 * DEG) - 1.0), rel=1e-15)
    assert qz == pytest.approx(-0.151922, abs=1e-6)
    assert qx == pytest.approx(1.736482, abs=1e-6)
    assert qy == 0.0


def test_backscattering():
    p = 7.0
    qz, qx, qy = transfer(Kinematics.elastic(p, math.pi))
    assert qz == pytest.approx(-2.0 * p, rel=1e-15)
    assert abs(math.hypot(qx, qy)) <= 1e-14 * p


def test_law_of_cosines():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(1.0, 40.0)
        th = rng.uniform(0.0, math.pi)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        qz, qx, qy = transfer(Kinematics.elastic(p, th, ph))
        lhs = math.sqrt(qz ** 2 + qx ** 2 + qy ** 2) ** 2
        rhs = 2.0 * p * p * (1.0 - math.cos(th))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_qperp_magnitude_independent_of_phi():
    k1 = math.hypot(*transfer(Kinematics.elastic(10.0, 0.3, 0.2))[1:])
    k2 = math.hypot(*transfer(Kinematics.elastic(10.0, 0.3, 0.2 + 2.0 * math.pi))[1:])
    assert k1 == pytest.approx(k2, rel=1e-15)
    k3 = math.hypot(*transfer(Kinematics.elastic(10.0, 0.3, 4.4))[1:])
    assert k3 == pytest.approx(k1, rel=1e-12)


def test_inelastic_warning():
    # Construction is silent; the event density warns, once.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kin = Kinematics(10.0, 10.5, 0.1)
        assert caught == [] and not kin.is_elastic
        event_density(ScatteringConfig(BeamState.gaussian(2.0), TargetProfile.wide()), kin)
    assert ["inelastic kinematics" in str(w.message) for w in caught] == [True]


# -- hydrogen amplitude ------------------------------------------------------


def test_amplitude_at_zero_equals_radius():
    assert hydrogen_amplitude(0.0) == 1.0


def test_amplitude_direct_substitution():
    assert hydrogen_amplitude(2.0) == pytest.approx(0.375, rel=1e-15)
    expected = 0.5 * (1.0 / 101.0 + 1.0 / 101.0 ** 2)
    assert hydrogen_amplitude(20.0) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(0.0049995, abs=1e-7)


def test_amplitude_monotone_decreasing():
    q = np.linspace(0.0, 50.0, 400)
    f = hydrogen_amplitude(q)
    assert np.all(np.diff(f) < 0.0)


def test_amplitude_large_q_tail():
    q = 1e3
    assert q * q * hydrogen_amplitude(q) == pytest.approx(2.0, rel=0.01)


def test_amplitude_rejects_bad_input():
    with pytest.raises(ValueError):
        hydrogen_amplitude(-1.0)


# -- target density ----------------------------------------------------------


def test_density_peak():
    prof = TargetProfile.gaussian(3.0, (1.0, -2.0))
    assert target_density(prof, (1.0, -2.0)) == pytest.approx(
        1.0 / (2.0 * math.pi * 9.0), rel=1e-15)


def test_density_normalization():
    prof = TargetProfile.gaussian(1.7, (0.4, 0.1))
    lim = 8.0 * prof.sigma_t

    def f(x, y):
        return target_density(prof, (x, y))

    box = [Interval(0.4 - lim, 0.4 + lim), Interval(0.1 - lim, 0.1 + lim)]
    r = integrate_nd(f, box, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-13),
                     initial_splits=[8, 8])
    assert abs(r.value - 1.0) <= 1e-10


def test_density_offset_value():
    prof = TargetProfile.gaussian(2.0, (1.0, 0.0))
    expected = math.exp(-0.5) / (8.0 * math.pi)
    assert target_density(prof, (3.0, 0.0)) == pytest.approx(expected, rel=1e-15)


def test_density_on_arrays_equals_its_point_values():
    prof = TargetProfile.gaussian(2.5, (0.7, -1.2))
    x, y = np.linspace(-6.0, 6.0, 7)[:, None], np.linspace(-5.0, 4.0, 4)
    n = target_density(prof, (x, y))
    assert n.shape == (7, 4)
    assert [[target_density(prof, (a, b)) for b in y] for a in x.ravel()] == n.tolist()
    assert type(target_density(prof, (1.0, 2.0))) is float


def test_wide_limit_has_no_density():
    with pytest.raises(WideLimitHasNoDensity):
        target_density(TargetProfile.wide(), (0.0, 0.0))


def test_target_validation():
    with pytest.raises(ValueError):
        TargetProfile.gaussian(-1.0)
    with pytest.raises(ValueError):
        Kinematics(10.0, 10.0, -0.1)
    with pytest.raises(ValueError):
        Kinematics(-1.0, 1.0, 0.1)


@pytest.mark.parametrize("make", [
    lambda: TargetProfile.gaussian(math.inf),
    lambda: TargetProfile.gaussian(math.nan),
    lambda: TargetProfile.gaussian(20.0, (math.nan, 0.0)),
    lambda: Kinematics.elastic(math.nan, 0.1),
    lambda: Kinematics.elastic(math.inf, 0.1),
    lambda: Kinematics(10.0, math.nan, 0.1),
    lambda: Kinematics.elastic(10.0, math.nan),
    lambda: Kinematics.elastic(10.0, 0.1, math.inf),
    lambda: Kinematics.elastic(10.0, 0.1).with_phi(math.nan),
    # b0 is two finite numbers, not three, one, a scalar or a string.
    lambda: TargetProfile.gaussian(20.0, (1.0, 2.0, 3.0)),
    lambda: TargetProfile.gaussian(20.0, (1.0,)),
    lambda: TargetProfile.gaussian(20.0, 3.0),
    lambda: TargetProfile.gaussian(20.0, ("1", 2.0)),
])
def test_target_and_kinematics_reject_non_finite_fields(make):
    with pytest.raises(ValueError, match="finite"):
        make()
