"""Arcsine-type limit density and the velocity-space translators K.

The ballistic scaling limit of a homogeneous walk with diagonal modulus
r in (0, 1) has the absolutely continuous density

    f(v; r) = sqrt(1 - r^2) / (pi (1 - v^2) sqrt(r^2 - v^2)),  |v| < r,

and zero outside.  Each branch j restricted to one of the two momentum
intervals I_m = [delta/2 - alpha + m pi - pi/2, ... + pi/2), m in {0, 1},
has strictly monotone group velocity, so k can be used as a function of
v there:

    k_{j,m}(v) = delta/2 - alpha + m pi
                 + arcsin( s_{j,m} * b v / (a sqrt(1 - v^2)) ),

with s_{j,m} = (-1)^{j+m+1}, and dk/dv = s_{j,m} * pi f(v; a).  The
operator K_{j,m} evaluates the branch-j Fourier amplitude along that
curve; it is a coisometry from l^2(Z, C^2) onto L^2([-a, a], f/2 dv) and
the four of them together are norm preserving.

Quadrature grids substitute v = r sin(theta); the transformed weight
sqrt(1 - r^2) / (2 pi (1 - r^2 sin^2 theta)) is analytic, so
Gauss-Legendre in theta converges spectrally despite the inverse square
root singularities at v = +-r.  The rule is a value, built once by
``gauss_legendre`` and mapped onto any velocity range by
``velocity_grid``: Newton iteration on the three-term recurrence for
P_n (Hale & Townsend, SIAM J. Sci. Comput. 2013), O(n^2) flops, with
nodes and weights exactly symmetric about 0.  ``apply_K`` and
``apply_K_adjoint`` run the NUFFT pair ``lattice.fourier_at`` and
``lattice.fourier_at_adjoint``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError
from .lattice import LatticeState, fourier_at, fourier_at_adjoint
from .momentum import FreeModel, to_branches

__all__ = [
    "konno_density",
    "k_map",
    "k_map_derivative",
    "k_interval",
    "in_k_interval",
    "VelocityGrid",
    "gauss_legendre",
    "velocity_grid",
    "apply_K",
    "apply_K_adjoint",
    "compose_K_adjoint",
]


def konno_density(v: np.ndarray, r: float) -> np.ndarray:
    """The density f(v; r); zero outside |v| < r and for r in {0, 1}."""
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"speed bound must lie in [0, 1], got {r}")
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    if r == 0.0 or r == 1.0:
        return out
    inside = np.abs(v) < r
    vi = v[inside]
    out[inside] = math.sqrt(1.0 - r * r) / (
        math.pi * (1.0 - vi * vi) * np.sqrt(r * r - vi * vi)
    )
    return out


def _require_scattering_coin(model: FreeModel) -> tuple[float, float]:
    a = model.coin.a
    if not 0.0 < a < 1.0:
        raise DomainError(
            "momentum inversion needs a coin with 0 < a < 1 "
            f"(got a = {a}; the velocity is constant there)"
        )
    return a, math.sqrt(1.0 - a * a)


def _check_branch_interval(branch: int, m: int) -> int:
    if branch not in (0, 1):
        raise DomainError(f"branch must be 0 or 1, got {branch}")
    if m not in (0, 1):
        raise DomainError(f"interval index must be 0 or 1, got {m}")
    return -1 if (branch + m) % 2 == 0 else 1


def k_interval(model: FreeModel, m: int) -> tuple[float, float]:
    """Unreduced endpoints [lo, hi) of the monotonicity interval I_m."""
    if m not in (0, 1):
        raise DomainError(f"interval index must be 0 or 1, got {m}")
    c = 0.5 * model.coin.delta - model.coin.alpha + m * math.pi
    return c - 0.5 * math.pi, c + 0.5 * math.pi


def in_k_interval(model: FreeModel, m: int, k: np.ndarray) -> np.ndarray:
    """Membership of momenta in I_m, compared on the circle."""
    lo, hi = k_interval(model, m)
    mid = 0.5 * (lo + hi)
    d = np.angle(np.exp(1j * (np.asarray(k, dtype=float) - mid)))
    return (d >= -0.5 * math.pi) & (d < 0.5 * math.pi)


def _check_speeds(v: np.ndarray, a: float) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(v) >= a):
        raise DomainError(f"velocities must satisfy |v| < a = {a}")
    return v


def k_map(model: FreeModel, branch: int, m: int, v: np.ndarray, *, reduce: bool = True) -> np.ndarray:
    """Momentum on branch ``branch`` in interval I_m with group velocity v.

    Velocities must satisfy |v| < a strictly; the band edges map to the
    interval endpoints where the parameterization degenerates.  With
    ``reduce`` the result is folded into [0, 2 pi).
    """
    a, b = _require_scattering_coin(model)
    sign = _check_branch_interval(branch, m)
    v = _check_speeds(v, a)
    c = 0.5 * model.coin.delta - model.coin.alpha + m * math.pi
    k = c + np.arcsin(sign * b * v / (a * np.sqrt(1.0 - v * v)))
    return np.mod(k, 2.0 * math.pi) if reduce else k


def k_map_derivative(model: FreeModel, branch: int, m: int, v: np.ndarray) -> np.ndarray:
    """dk/dv along the same curve, equal to +- pi f(v; a)."""
    a, _ = _require_scattering_coin(model)
    sign = _check_branch_interval(branch, m)
    v = _check_speeds(v, a)
    return sign * math.pi * konno_density(v, a)


@dataclass(frozen=True)
class VelocityGrid:
    """Gauss-Legendre grid for integrals against the half density f/2.

    ``weight[i]`` integrates f(v; r)/2 dv, so ``weight.sum()`` is 1/2
    on the full grid and 1/4 on either half.  ``side`` selects the full
    velocity range, the negative half [-r, 0) or the positive half
    (0, r]; nodes never touch 0 or the band edges.
    """

    r: float
    side: Literal["full", "neg", "pos"]
    theta: np.ndarray
    v: np.ndarray
    weight: np.ndarray

    def norm_sq(self, values: np.ndarray) -> float:
        """Squared L^2(f/2 dv) norm of a sampled function."""
        return float(np.sum(self.weight * np.abs(np.asarray(values)) ** 2))


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], n >= 2.

    Ascending nodes and weights 2 / ((1 - x^2) P_n'(x)^2), by Newton
    iteration from Tricomi's guesses.
    """
    if n < 2:
        raise DomainError("grid needs at least 2 points")
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    while True:
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


_THETA_RANGES = {
    "full": (-0.5 * math.pi, 0.5 * math.pi),
    "neg": (-0.5 * math.pi, 0.0),
    "pos": (0.0, 0.5 * math.pi),
}


def velocity_grid(
    model: FreeModel,
    rule: tuple[np.ndarray, np.ndarray],
    side: Literal["full", "neg", "pos"] = "full",
) -> VelocityGrid:
    """Map a Gauss-Legendre ``rule`` onto the velocities |v| < a of ``model``.

    ``rule`` is the (nodes, weights) pair of :func:`gauss_legendre`.
    """
    r = model.coin.a
    if not 0.0 < r < 1.0:
        raise DomainError(f"grid needs a speed bound in (0, 1), got {r}")
    if side not in _THETA_RANGES:
        raise DomainError(f"side must be 'full', 'neg' or 'pos', got {side!r}")
    nodes, gl_weights = rule
    lo, hi = _THETA_RANGES[side]
    half = 0.5 * (hi - lo)
    theta = 0.5 * (hi + lo) + half * nodes
    v = r * np.sin(theta)
    s = np.sin(theta)
    weight = gl_weights * half * math.sqrt(1.0 - r * r) / (2.0 * math.pi * (1.0 - r * r * s * s))
    return VelocityGrid(r=r, side=side, theta=theta, v=v, weight=weight)


def apply_K(state: LatticeState, model: FreeModel, branch: int, m: int, grid: VelocityGrid) -> np.ndarray:
    """Sample K_{j,m} psi on a velocity grid.

    (K_{j,m} psi)(v) = < u_j(k), hat(psi)(k) > at k = k_{j,m}(v); the
    Fourier transform comes from the non-uniform FFT
    :func:`~qwscatter.lattice.fourier_at`, accurate to 1e-12 times the
    l^1 norm of psi at every node.
    """
    if abs(grid.r - model.coin.a) > 1e-12:
        raise DomainError("grid speed bound does not match the model")
    k = k_map(model, branch, m, grid.v)
    hat = fourier_at(state, k)
    _, vec = model.eigensystem(k)
    return to_branches(vec.conj(), hat)[:, branch]


def apply_K_adjoint(
    values: np.ndarray,
    model: FreeModel,
    branch: int,
    m: int,
    grid: VelocityGrid,
    window: tuple[int, int],
) -> LatticeState:
    """Adjoint of the discretized K on a position window [lo, hi).

    Realized through the quadrature rule itself,

        (K* g)(x) = sum_i weight_i g_i u_j(k_i) e^{i k_i x},

    which is the exact adjoint of :func:`apply_K` with respect to the
    grid inner product; its pointwise values converge spectrally to the
    continuum adjoint.  The sum is the type-1 NUFFT
    :func:`~qwscatter.lattice.fourier_at_adjoint`, the adjoint of the
    transform inside :func:`apply_K`.  The true adjoint has 1/|x|
    tails, so choose the window according to how much of it is needed.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != grid.v.shape:
        raise DomainError("values must be sampled on the given grid")
    k = k_map(model, branch, m, grid.v)
    _, vec = model.eigensystem(k)
    coeff = (grid.weight * values)[:, None] * vec[:, branch, :]  # (points, 2)
    return fourier_at_adjoint(coeff, k, int(window[0]), int(window[1]))


def compose_K_adjoint(
    model: FreeModel,
    out_branch: int,
    out_m: int,
    in_branch: int,
    in_m: int,
    values: np.ndarray,
    grid: VelocityGrid,
) -> np.ndarray:
    """Evaluate K_{j,m} applied to the continuum adjoint K*_{j',m'} g.

    The Fourier transform of the continuum adjoint is the curve
    amplitude chi_{I_{m'}}(k) u_{j'}(k) g(v_{j'}(k)), so the composition
    never needs a position-space window:

        (K_{j,m} K*_{j',m'} g)(v)
            = chi_{I_{m'}}(k) < u_j(k), u_{j'}(k) > g(v_{j'}(k)),

    at k = k_{j,m}(v).  Matching index pairs reproduce g; a mismatch is
    annihilated either by the interval indicator or by orthogonality of
    the branch vectors.  Branch mismatches flip the sign of the velocity
    argument, which is only a grid point again on a symmetric grid, so
    those need ``side == "full"``.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape != grid.v.shape:
        raise DomainError("values must be sampled on the given grid")
    if abs(grid.r - model.coin.a) > 1e-12:
        raise DomainError("grid speed bound does not match the model")
    if in_branch != out_branch and grid.side != "full":
        raise DomainError("cross-branch composition needs a 'full' grid")
    k = k_map(model, out_branch, out_m, grid.v)
    mask = in_k_interval(model, in_m, k).astype(float)
    _, vec = model.eigensystem(k)
    overlap = np.sum(vec[:, out_branch, :].conj() * vec[:, in_branch, :], axis=-1)
    # v_{j'}(k_{j,m}(v)) is v itself on the same branch and -v across
    # branches; Gauss-Legendre nodes are symmetric, so -v is node-exact.
    g_at = values if in_branch == out_branch else values[::-1]
    return mask * overlap * g_at
