"""Scattering theory and weak limits for coined walks on the integer line.

The package is organized bottom-up:

* :mod:`qwscatter.coin` - 2x2 unitary coins and position-dependent fields
* :mod:`qwscatter.lattice` - states and exact windowed evolution
* :mod:`qwscatter.momentum` - Fourier analysis of the homogeneous walk
* :mod:`qwscatter.konno` - arcsine-type density and momentum inversion
* :mod:`qwscatter.scattering` - wave operators and outgoing states
* :mod:`qwscatter.weaklimit` - the limit law of position over time
* :mod:`qwscatter.cli` - INI-driven command line front end
"""

from .coin import (
    UNITARITY_ATOL,
    CoinField,
    CoinMatrix,
    TailRule,
    hadamard_coin,
    nearest_unitary,
    wrap_angle,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    QwalkError,
    ResourceLimitError,
)
from .konno import (
    VelocityGrid,
    apply_K,
    apply_K_adjoint,
    compose_K_adjoint,
    in_k_interval,
    k_interval,
    k_map,
    k_map_derivative,
    konno_density,
    velocity_grid,
)
from .lattice import Evolution, LatticeState, evolve, fourier_at
from .momentum import (
    FreeModel,
    SpectrumArcs,
    branch_packet,
    spectrum_arcs,
    velocity_projection,
)
from .scattering import (
    ConvergenceReport,
    PairState,
    Schedule,
    apply_J,
    apply_J_adjoint,
    free_evolve,
    free_model,
    intertwining_residual,
    outgoing_pair,
    outgoing_state,
    propagating_part,
    wave_forward,
)
from .weaklimit import (
    LimitDistribution,
    VelocityDensitySamples,
    cdf,
    cf_limit,
    compare_empirical,
    limit_distribution,
    moment,
    pure_point_mass,
    total_mass,
)

__version__ = "0.1.0"

__all__ = [
    "UNITARITY_ATOL",
    "CoinField",
    "CoinMatrix",
    "TailRule",
    "hadamard_coin",
    "nearest_unitary",
    "wrap_angle",
    "QwalkError",
    "ConfigError",
    "DomainError",
    "ResourceLimitError",
    "ConvergenceError",
    "LatticeState",
    "Evolution",
    "evolve",
    "fourier_at",
    "FreeModel",
    "SpectrumArcs",
    "spectrum_arcs",
    "velocity_projection",
    "branch_packet",
    "konno_density",
    "k_map",
    "k_map_derivative",
    "k_interval",
    "in_k_interval",
    "VelocityGrid",
    "velocity_grid",
    "apply_K",
    "apply_K_adjoint",
    "compose_K_adjoint",
    "Schedule",
    "ConvergenceReport",
    "PairState",
    "free_model",
    "apply_J",
    "apply_J_adjoint",
    "propagating_part",
    "free_evolve",
    "wave_forward",
    "outgoing_pair",
    "outgoing_state",
    "intertwining_residual",
    "VelocityDensitySamples",
    "LimitDistribution",
    "limit_distribution",
    "total_mass",
    "cdf",
    "moment",
    "cf_limit",
    "pure_point_mass",
    "compare_empirical",
    "__version__",
]
