"""Floquet-Lindblad dynamics of periodically kicked open quantum systems.

A small library for two workflows: build the weak-coupling Markovian
generator of a delta-kicked system coupled to stationary baths, and
compare the resulting relaxation against closed-form rates, Bloch
trajectories, and spin-echo signals.  Brute-force validators live in
:mod:`floqlind.oracle`; the config-driven table writer in
:mod:`floqlind.cli`.
"""

from .bath import Lorentzian, PhononCutoff, SpectralDensity
from .dynamics import (
    TLSParams,
    Trajectory,
    closed_form_parallel,
    closed_form_perp,
    evolve,
)
from .echo import (
    DiscreteDetuning,
    EchoSignal,
    ExtractionResult,
    GaussianDetuning,
    UniformDetuning,
    echo_signal,
    extract_tau_c,
    read_rate_measurements,
)
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    HermiticityError,
    InconsistentDataError,
    InvalidStateError,
    OutOfRangeError,
    StabilityError,
    TruncationError,
    UnsupportedFrameError,
    UnsupportedRegimeError,
)
from .floquet import (
    FloquetDecomposition,
    HarmonicDecomposition,
    KickedModel,
    decompose,
    floor_frac,
    floquet_operator,
    harmonic_decomposition,
)
from .lindblad import (
    CPTPReport,
    LindbladGenerator,
    RateResult,
    TruncationInfo,
    build_generator,
    choi_matrix,
    rate_parallel_closed,
    rate_perp_closed,
    semigroup,
    verify_cptp,
)
from .operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_from_density,
    density_from_bloch,
    require_hermitian,
    vec,
    unvec,
)
from .oracle import (
    SeriesRate,
    integrate_master_equation,
    quadrature_harmonics,
    regularized_propagator,
    series_rate_parallel,
)

__version__ = "0.1.0"

__all__ = [
    "CPTPReport",
    "ConfigError",
    "DimensionError",
    "DiscreteDetuning",
    "DomainError",
    "EchoSignal",
    "ExtractionResult",
    "FloquetDecomposition",
    "GaussianDetuning",
    "HarmonicDecomposition",
    "HermiticityError",
    "InconsistentDataError",
    "InvalidStateError",
    "KickedModel",
    "LindbladGenerator",
    "Lorentzian",
    "OutOfRangeError",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PhononCutoff",
    "RateResult",
    "SeriesRate",
    "SpectralDensity",
    "StabilityError",
    "TLSParams",
    "Trajectory",
    "TruncationError",
    "TruncationInfo",
    "UniformDetuning",
    "UnsupportedFrameError",
    "UnsupportedRegimeError",
    "bloch_from_density",
    "build_generator",
    "choi_matrix",
    "closed_form_parallel",
    "closed_form_perp",
    "decompose",
    "density_from_bloch",
    "echo_signal",
    "evolve",
    "extract_tau_c",
    "floor_frac",
    "floquet_operator",
    "harmonic_decomposition",
    "integrate_master_equation",
    "quadrature_harmonics",
    "rate_parallel_closed",
    "rate_perp_closed",
    "read_rate_measurements",
    "regularized_propagator",
    "require_hermitian",
    "semigroup",
    "series_rate_parallel",
    "unvec",
    "vec",
    "verify_cptp",
]
