"""Weak limit of position/time for the inhomogeneous walk.

The scaled position X_n / n converges in distribution to a mixture of

* an atom at 0 carrying the mass trapped by bound states,
* atoms at -1 / +1 when the corresponding asymptotic coin is diagonal
  (|a| = 1, strictly ballistic transport),
* an absolutely continuous part on [-a_l, 0) and (0, a_r] whose density
  against f(v; a_star)/2 dv is the squared modulus of the velocity-space
  amplitudes of the outgoing states.

``limit_distribution`` assembles all pieces from one scattering pass.
Each a.c. side is evaluated on a Gauss grid of its half range; the
translators K are applied to the outgoing state after projecting onto
the velocities that can actually reach that side (leftward on the left,
rightward on the right), which removes the finite-iteration residue
that has no business in the density.  The integral of each density must
reproduce the norm of the projected outgoing state (the two are equal
in exact arithmetic); that identity and the total mass budget are
enforced as consistency gates rather than silently renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from .coin import CoinField
from .errors import ConvergenceError, DomainError
from .konno import VelocityGrid, apply_K, gauss_legendre, konno_density, velocity_grid
from .lattice import Evolution, LatticeState, _check_radius, _check_window, evolve
from .momentum import FreeModel, velocity_projection
from .scattering import PairState, Schedule, outgoing_pair

__all__ = [
    "VelocityDensitySamples",
    "LimitDistribution",
    "MASS_TOL",
    "limit_distribution",
    "total_mass",
    "cdf",
    "moment",
    "cf_limit",
    "pure_point_mass",
    "compare_empirical",
]

_ATOM_EPS = 1e-12

# Largest admitted gap between a side's density mass and the norm of its
# projected outgoing state, and overshoot of the captured mass over 1.
MASS_TOL = 1e-3


@dataclass(frozen=True)
class VelocityDensitySamples:
    """One side's a.c. part, sampled on its quadrature grid.

    ``values`` is the density relative to the reference measure
    f(v; r)/2 dv, so ``mass`` is a plain weighted sum.
    """

    grid: VelocityGrid
    values: np.ndarray

    def mass(self) -> float:
        return float(np.sum(self.grid.weight * self.values))

    def lebesgue_density(self) -> np.ndarray:
        """Pointwise probability density with respect to dv."""
        return self.values * konno_density(self.grid.v, self.grid.r) / 2.0


@dataclass(frozen=True)
class LimitDistribution:
    """Limit law of X_n / n: three possible atoms plus two a.c. sides."""

    atom_left: float
    atom_origin: float
    atom_right: float
    left: VelocityDensitySamples | None
    right: VelocityDensitySamples | None
    reports: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(position, mass) pairs of the atoms that are actually present."""
        out = []
        for pos, mass in ((-1.0, self.atom_left), (0.0, self.atom_origin), (1.0, self.atom_right)):
            if mass > _ATOM_EPS:
                out.append((pos, mass))
        return tuple(out)


def _require_normalized(state: LatticeState) -> None:
    if abs(state.norm() - 1.0) > 1e-6:
        raise DomainError("state must be normalized to interpret masses as probabilities")


def _check_point_mass_args(horizon: int, radius: int, state: LatticeState) -> None:
    """The rules of :func:`pure_point_mass` on its time-average window.

    The evolution window, the sites of ``state`` plus 2 ``horizon``, is
    checked against the cap here.
    """
    if horizon < 2:
        raise DomainError("horizon must be at least 2")
    _check_radius(radius)
    _check_window(state.hi - state.lo + 2 * horizon, "evolution")


def _check_compare_args(
    ns: Iterable[int], xi: Sequence[float], guard: float, state: LatticeState
) -> list[int]:
    """The rules of :func:`compare_empirical` on its arguments; returns the sorted times.

    The evolution window of the latest time, the sites of ``state`` plus
    twice that time, is checked against the cap here.
    """
    if not 0.0 <= guard < np.inf:
        raise DomainError(f"guard must be finite and >= 0, got {guard}")
    if not np.isfinite(np.asarray(xi, dtype=float)).all():
        raise DomainError(f"characteristic function arguments must be finite, got {tuple(xi)}")
    times = sorted(int(n) for n in ns)
    if times and times[0] < 1:
        raise DomainError("comparison times must be >= 1")
    if times:
        _check_window(state.hi - state.lo + 2 * times[-1], "evolution")
    return times


def _step_cdf(points: np.ndarray, masses: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Total mass at the ascending ``points`` that are <= each of ``at``."""
    cum = np.cumsum(masses)
    idx = np.searchsorted(points, at, side="right")
    return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)


def limit_distribution(
    state: LatticeState,
    field_: CoinField,
    schedule: Schedule | None = None,
    *,
    grid_points: int = 513,
) -> LimitDistribution:
    """Compute the full weak limit of a normalized state.

    One ``grid_points``-point Gauss-Legendre rule serves the grids of
    both a.c. sides.

    Raises
    ------
    ConvergenceError
        If a side's density mass disagrees with the norm of its
        projected outgoing state by more than ``MASS_TOL``, or if the
        captured mass exceeds 1 by more than ``MASS_TOL``.
    """
    _require_normalized(state)
    rule = gauss_legendre(grid_points)
    pair, conv_reports = outgoing_pair(state, field_, schedule)
    reports: dict[str, Any] = {
        "outgoing": pair,
        "convergence_left": conv_reports["left"],
        "convergence_right": conv_reports["right"],
    }
    atom = {"left": 0.0, "right": 0.0}
    samples: dict[str, VelocityDensitySamples | None] = {"left": None, "right": None}
    captured = 0.0
    for side in ("left", "right"):
        coin = field_.asymptotic(side)
        phi = pair.left if side == "left" else pair.right
        reports[f"outgoing_norm_sq_{side}"] = phi.norm_sq()
        if coin.a == 0.0:
            continue
        model = FreeModel(coin)
        if coin.a == 1.0:
            comp = 0 if side == "left" else 1
            kappa = phi.component(comp).norm_sq()
            reports[f"ballistic_residual_{side}"] = phi.norm_sq() - kappa
            atom[side] = kappa
            captured += kappa
            continue
        window = (lambda v: v < 0.0) if side == "left" else (lambda v: v > 0.0)
        proj = velocity_projection(phi, model, window).trimmed(1e-15)
        pnorm = proj.norm_sq()
        grid = velocity_grid(model, rule, "neg" if side == "left" else "pos")
        w = np.zeros(grid.v.shape, dtype=float)
        for branch in (0, 1):
            for m in (0, 1):
                w += np.abs(apply_K(proj, model, branch, m, grid)) ** 2
        qmass = float(np.sum(grid.weight * w))
        reports[f"projected_norm_sq_{side}"] = pnorm
        reports[f"density_mass_{side}"] = qmass
        if abs(qmass - pnorm) > MASS_TOL:
            raise ConvergenceError(
                f"{side} density mass {qmass:.6f} disagrees with the projected "
                f"outgoing norm {pnorm:.6f} beyond {MASS_TOL:g}"
            )
        samples[side] = VelocityDensitySamples(grid, w)
        captured += qmass
    kappa0 = 1.0 - captured
    if kappa0 < -MASS_TOL:
        raise ConvergenceError(f"captured mass {captured:.6f} exceeds the total by more than {MASS_TOL:g}")
    return LimitDistribution(
        atom_left=atom["left"],
        atom_origin=max(kappa0, 0.0),
        atom_right=atom["right"],
        left=samples["left"],
        right=samples["right"],
        reports=reports,
    )


def total_mass(dist: LimitDistribution) -> float:
    """Atoms plus integrated densities; 1 up to quadrature error."""
    return moment(dist, 0)


def cdf(dist: LimitDistribution, v: np.ndarray) -> np.ndarray:
    """Distribution function F(v) = P(X <= v), vectorized in v."""
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.where(v_arr >= -1.0, dist.atom_left, 0.0)
    out = out + np.where(v_arr >= 0.0, dist.atom_origin, 0.0)
    out = out + np.where(v_arr >= 1.0, dist.atom_right, 0.0)
    for side in (dist.left, dist.right):
        if side is None:
            continue
        out = out + _step_cdf(side.grid.v, side.grid.weight * side.values, v_arr)
    return out if np.ndim(v) else float(out[0])


def moment(dist: LimitDistribution, p: int) -> float:
    """p-th moment of the limit law (p a nonnegative integer)."""
    if p < 0 or p != int(p):
        raise DomainError(f"moment order must be a nonnegative integer, got {p}")
    p = int(p)
    total = dist.atom_left * (-1.0) ** p + dist.atom_right
    if p == 0:
        total += dist.atom_origin
    for side in (dist.left, dist.right):
        if side is not None:
            total += float(np.sum(side.grid.weight * side.values * side.grid.v**p))
    return total


def cf_limit(dist: LimitDistribution, xi: np.ndarray) -> np.ndarray:
    """Characteristic function E[exp(i xi X)] of the limit law."""
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    out = (
        dist.atom_left * np.exp(-1j * xi_arr)
        + dist.atom_origin
        + dist.atom_right * np.exp(1j * xi_arr)
    )
    for side in (dist.left, dist.right):
        if side is not None:
            out = out + np.exp(1j * np.outer(xi_arr, side.grid.v)) @ (side.grid.weight * side.values)
    return out if np.ndim(xi) else complex(out[0])


def pure_point_mass(
    state: LatticeState,
    field_: CoinField,
    *,
    outgoing: PairState,
    horizon: int = 2000,
    radius: int = 64,
    gate: float = 5e-2,
) -> float:
    """Mass bound in eigenstates: 1 minus the norms of ``outgoing``.

    ``outgoing`` is the pair that :func:`outgoing_pair` returns for
    ``state`` (``limit_distribution`` reports it as ``"outgoing"``).  The
    deficit is cross-checked against an independent time-average
    estimator (mean probability within ``radius`` of the origin over the
    second half of ``horizon`` steps); disagreement beyond ``gate``
    raises :class:`ConvergenceError` instead of returning a number that
    two halves of the theory cannot agree on.
    """
    _require_normalized(state)
    _check_point_mass_args(horizon, radius, state)
    deficit = 1.0 - outgoing.norm_sq()
    ev = Evolution(state, field_, horizon)
    start = horizon // 2
    acc = 0.0
    for n in range(1, horizon + 1):
        ev.step()
        if n > start:
            acc += ev.localized_mass(radius)
    stay = acc / (horizon - start)
    if abs(deficit - stay) > gate:
        raise ConvergenceError(
            f"bound-state mass estimates disagree: norm deficit {deficit:.4f} "
            f"vs localized time average {stay:.4f} (gate {gate:g})"
        )
    return min(max(deficit, 0.0), 1.0)


def compare_empirical(
    dist: LimitDistribution,
    state: LatticeState,
    field_: CoinField,
    ns: Iterable[int],
    *,
    xi: Sequence[float] = (1.0, 2.0, 5.0),
    guard: float = 0.02,
) -> list[dict[str, Any]]:
    """Finite-time laws of X_n / n against the limit, one record per n.

    The Kolmogorov distance is evaluated on 401 uniform points of
    [-1, 1], with bands of half-width ``guard`` around present atoms
    excluded, since the empirical law approaches a jump only at rate
    1/n there.  Records carry the Kolmogorov
    statistic, characteristic function errors at each ``xi`` and the
    first two moment errors.
    """
    times = _check_compare_args(ns, xi, guard, state)
    grid = np.linspace(-1.0, 1.0, 401)
    keep = np.ones(grid.shape, dtype=bool)
    for pos, _ in dist.atoms():
        keep &= np.abs(grid - pos) > guard
    kept = grid[keep]
    limit_cdf = cdf(dist, kept)
    limit_cf = {x: cf_limit(dist, x) for x in xi}
    limit_moment = {p: moment(dist, p) for p in (1, 2)}
    records: list[dict[str, Any]] = []
    for n in times:
        phi = evolve(state, field_, n)
        xs, probs = phi.position_distribution()
        emp_cdf = _step_cdf(xs, probs, kept * n)
        scaled = xs / n
        record: dict[str, Any] = {
            "n": n,
            "ks": float(np.max(np.abs(emp_cdf - limit_cdf))) if kept.size else 0.0,
            "cf_error": {
                x: abs(phi.characteristic_function(x, n) - limit_cf[x]) for x in xi
            },
            "moment_error": {
                p: abs(float(np.sum(probs * scaled**p)) - limit_moment[p]) for p in (1, 2)
            },
        }
        records.append(record)
    return records
