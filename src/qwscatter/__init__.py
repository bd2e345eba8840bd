"""Scattering theory and weak limits for coined walks on the integer line.

The package is organized bottom-up:

* :mod:`qwscatter.coin` - 2x2 unitary coins and position-dependent fields
* :mod:`qwscatter.lattice` - states, exact windowed evolution, the NUFFT pair
* :mod:`qwscatter.momentum` - Fourier analysis of the homogeneous walk
* :mod:`qwscatter.konno` - arcsine-type density, Gauss rule, translators K
* :mod:`qwscatter.scattering` - wave operators and outgoing states
* :mod:`qwscatter.weaklimit` - the limit law of position over time
* :mod:`qwscatter.cli` - INI-driven command line front end

The package namespace holds what the command line and the acceptance
gate use, the Gauss rule and the error classes; every other public name
is imported from its module.
"""

from .coin import CoinField, CoinMatrix, hadamard_coin, wrap_angle
from .errors import ConfigError, ConvergenceError, DomainError, QwalkError, ResourceLimitError
from .konno import (
    apply_K,
    compose_K_adjoint,
    gauss_legendre,
    k_interval,
    k_map,
    k_map_derivative,
    konno_density,
    velocity_grid,
)
from .lattice import LatticeState, evolve
from .momentum import FreeModel, branch_packet, velocity_projection
from .scattering import PairState, Schedule, free_model, wave_forward
from .weaklimit import compare_empirical, limit_distribution, pure_point_mass, total_mass

__version__ = "0.1.0"

__all__ = [
    "CoinField",
    "CoinMatrix",
    "hadamard_coin",
    "wrap_angle",
    "QwalkError",
    "ConfigError",
    "DomainError",
    "ResourceLimitError",
    "ConvergenceError",
    "LatticeState",
    "evolve",
    "FreeModel",
    "velocity_projection",
    "branch_packet",
    "konno_density",
    "k_map",
    "k_map_derivative",
    "k_interval",
    "gauss_legendre",
    "velocity_grid",
    "apply_K",
    "compose_K_adjoint",
    "Schedule",
    "PairState",
    "free_model",
    "wave_forward",
    "limit_distribution",
    "total_mass",
    "pure_point_mass",
    "compare_empirical",
    "__version__",
]
