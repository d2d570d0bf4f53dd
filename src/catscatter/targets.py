"""Target density profiles, scattering kinematics, and the hydrogen
ground-state Born amplitude.

The target is a normalized Gaussian column density
``n(b) = exp(-(b - b0)^2 / (2 sigma_t^2)) / (2 pi sigma_t^2)`` centered at
``b0`` in the transverse plane.  The wide-target limit (``sigma_t`` to
infinity) is a separate analytic mode: it has no pointwise density, and
the scattering formulas take the limit exactly, reporting effective cross
sections instead of event densities.

Kinematics are elastic by convention (``p_f = p_i``); the fields stay
independent because the momentum-transfer definitions permit it, but a
constructor warning flags inelastic inputs.  The momentum transfer is
``Qz = p_f cos(theta) - p_i`` with the transverse part
``Qperp = p_f sin(theta) (cos(phi), sin(phi))``.

The elastic electron scattering amplitude off hydrogen in the ground 1s
state is real in first Born order:

``f(q) = (a/2) [ 1/(1 + (a/2)^2 q^2) + 1/(1 + (a/2)^2 q^2)^2 ]``

with ``a`` the Bohr radius.  Lengths are in Bohr radii, so ``a = 1``
here and throughout the package: no function takes ``a``, and the ratio
of potential radius to beam width is the inverse width itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import WideLimitHasNoDensity

__all__ = [
    "TargetProfile",
    "Kinematics",
    "MomentumTransfer",
    "momentum_transfer",
    "transfer_components",
    "hydrogen_amplitude",
    "target_density",
]


@dataclass(frozen=True)
class TargetProfile:
    """Gaussian atomic-density profile, or its analytic wide limit."""

    sigma_t: float | None = None
    b0: tuple[float, float] = (0.0, 0.0)
    wide_limit: bool = False

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in self.b0):
            raise ValueError(f"target offset b0 must be finite, got {self.b0}")
        if self.sigma_t is not None and not math.isfinite(self.sigma_t):
            raise ValueError(f"sigma_t must be finite, got {self.sigma_t}")
        if self.wide_limit:
            return
        if self.sigma_t is None or self.sigma_t <= 0:
            raise ValueError("finite target needs sigma_t > 0")

    @classmethod
    def gaussian(cls, sigma_t: float, b0: tuple[float, float] = (0.0, 0.0)) -> "TargetProfile":
        return cls(sigma_t=sigma_t, b0=b0)

    @classmethod
    def wide(cls) -> "TargetProfile":
        return cls(wide_limit=True)


@dataclass(frozen=True)
class Kinematics:
    """Incident/final momenta [1/a] and scattering angles [rad]."""

    p_i: float
    p_f: float
    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p_i) and math.isfinite(self.p_f)
                and math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"kinematics must be finite, got {self}")
        if self.p_i <= 0 or self.p_f <= 0:
            raise ValueError("momenta must be > 0")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not self.is_elastic:
            warnings.warn(
                f"inelastic kinematics: p_f={self.p_f} differs from p_i={self.p_i}",
                stacklevel=3,
            )

    @property
    def is_elastic(self) -> bool:  # p_f = p_i to 1e-9 relative
        return abs(self.p_f - self.p_i) <= 1e-9 * self.p_i

    @classmethod
    def elastic(cls, p: float, theta: float, phi: float = 0.0) -> "Kinematics":
        return cls(p_i=p, p_f=p, theta=theta, phi=phi)

    def with_phi(self, phi: float) -> "Kinematics":
        return Kinematics(self.p_i, self.p_f, self.theta, phi)


@dataclass(frozen=True)
class MomentumTransfer:
    """3-D momentum transfer, split into its longitudinal and transverse parts."""

    qz: float
    qperp: tuple[float, float]

    @property
    def qperp_mag(self) -> float:
        return math.hypot(*self.qperp)

    @property
    def magnitude(self) -> float:
        return math.sqrt(self.qz ** 2 + self.qperp[0] ** 2 + self.qperp[1] ** 2)


def transfer_components(p_i: float, p_f: float, theta: float, phi: float) -> tuple[float, ...]:
    """(Qz, Q_x, Q_y) at these momenta and angles, unchecked; the formula's one copy."""
    qp = p_f * math.sin(theta)
    return p_f * math.cos(theta) - p_i, qp * math.cos(phi), qp * math.sin(phi)


def momentum_transfer(kin: Kinematics) -> MomentumTransfer:
    """Momentum transfer of the scattering event: final minus mean incident."""
    qz, qx, qy = transfer_components(kin.p_i, kin.p_f, kin.theta, kin.phi)
    return MomentumTransfer(qz=qz, qperp=(qx, qy))


def hydrogen_amplitude(q):
    """First-Born elastic amplitude for hydrogen 1s, real, with a = 1, the
    unit of length.

    Vectorized over ``q`` (momentum-transfer magnitude [1/a], >= 0).
    ``f(0) = 1`` and ``q^2 f(q) -> 2`` at large momentum transfer.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("q must be >= 0")
    u = 1.0 / (1.0 + 0.25 * q * q)
    out = 0.5 * (u + u * u)
    return float(out) if out.ndim == 0 else out


def target_density(profile: TargetProfile, b):
    """Target density n(b) at ``b = (b_x, b_y)``: a float at one point, an
    array of the broadcast shape for component arrays.  Undefined in the
    wide limit."""
    if profile.wide_limit:
        raise WideLimitHasNoDensity(
            "wide-limit target has no pointwise density; the limit is applied "
            "inside the scattering formulas"
        )
    (bx, by), (b0x, b0y) = b, profile.b0
    dx, dy = np.asarray(bx, dtype=float) - b0x, np.asarray(by, dtype=float) - b0y
    st2 = profile.sigma_t ** 2
    n = np.exp(-(dx * dx + dy * dy) / (2.0 * st2)) / (2.0 * math.pi * st2)
    return float(n) if n.ndim == 0 else n
