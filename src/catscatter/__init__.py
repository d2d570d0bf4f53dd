"""catscatter: elastic Born scattering of structured electron wave packets
computed through their transverse phase-space Wigner functions.

The library models beams prepared as single Gaussians, coherent two-packet
superpositions (even/odd), their incoherent mixture, or an anisotropic
Gaussian, scattered off Gaussian atomic targets (hydrogen 1s by default),
and predicts the azimuthal asymmetry of the scattered electrons that
signals Wigner-function negativity.  All quantities are in Hartree atomic
units (lengths in Bohr radii, momenta in 1/a).
"""

__version__ = "0.1.0"

from .errors import (
    CatscatterError,
    DegenerateDenominator,
    FlatDistribution,
    InvalidCatSeparation,
    MissingSigma,
    NegativeTotal,
    NoPureState,
    NonConvergence,
    NonFiniteIntegrand,
    TooFewPoints,
    UnsupportedDimension,
    UnsupportedVariant,
    WideLimitHasNoDensity,
)
from .quadrature import (
    DEFAULT_SPEC_1D,
    DEFAULT_SPEC_2D,
    DEFAULT_SPEC_4D,
    Interval,
    QuadratureResult,
    QuadratureSpec,
    integrate_1d,
    integrate_nd,
    oscillation_panels,
)
from .states import (
    HARTREE_EV,
    BeamState,
    NegativityScan,
    PhasePoint,
    kinetic_energy_keV,
    momentum_from_keV,
    momentum_wavefunction,
    negativity_scan,
    phase_space_grid,
    wigner,
    wigner_normalization,
    wigner_values,
)
from .targets import (
    Kinematics,
    TargetProfile,
    hydrogen_amplitude,
    target_density,
)
from .scattering import (
    METHOD_SPECS,
    EventDensity,
    ScatteringConfig,
    ValidityCondition,
    cross_section,
    event_density,
    event_density_grid,
    event_density_cat_closed,
    event_density_cat_quadrature,
    event_density_gaussian,
    event_density_general,
    validity_check,
)
from .analysis import (
    AsymmetryResult,
    AsymmetrySpec,
    OscillationReport,
    PeakResult,
    SweepRow,
    azimuthal_asymmetry,
    detect_oscillation,
    find_peak,
    peak_theta,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
