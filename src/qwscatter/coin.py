"""Coin matrices and position-dependent coin fields on the line.

Every 2x2 unitary can be written with four real parameters

    [[ a e^{i alpha},           b e^{i beta}          ],
     [ -b e^{i (delta - beta)}, a e^{i (delta - alpha)} ]]

with a, b >= 0, a^2 + b^2 = 1 and angles taken in (-pi, pi].  ``delta`` is
the argument of the determinant.  The pair (a, b) controls the group
velocity of the walk driven by the coin; the angles only move phases
around.  ``CoinMatrix`` stores that parameterization, ``CoinField``
assembles a full map x -> C(x) from two asymptotic coins, optional
site overrides and an optional power-law tail on each side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError

__all__ = [
    "UNITARITY_ATOL",
    "CoinMatrix",
    "TailRule",
    "CoinField",
    "hadamard_coin",
    "nearest_unitary",
    "wrap_angle",
]

UNITARITY_ATOL = 1e-10

# Below this the modulus of an entry carries no phase information.
_PIN_TOL = 1e-15

_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def wrap_angle(x: float) -> float:
    """Reduce an angle to the principal range (-pi, pi]."""
    y = math.remainder(x, 2.0 * math.pi)
    return math.pi if y == -math.pi else y


def _check_unitary(m: np.ndarray, where: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise DomainError(f"{where}: expected a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError(f"{where}: matrix entries must be finite")
    err = np.abs(m.conj().T @ m - np.eye(2)).max()
    if not err <= UNITARITY_ATOL:
        raise DomainError(f"{where}: matrix is not unitary (deviation {err:.3e})")
    return m


@dataclass(frozen=True)
class CoinMatrix:
    """A 2x2 unitary coin in canonical (a, b, alpha, beta, delta) form.

    Parameters
    ----------
    a, b : float
        Nonnegative moduli of the diagonal / off-diagonal entries,
        a^2 + b^2 = 1.  Values are snapped to exactly 0 or 1 when
        within 1e-15 of the endpoint.
    alpha, beta : float
        Phases of the (0,0) and (0,1) entries.  Pinned to 0 whenever
        the corresponding modulus vanishes, so the representation of
        every unitary is unique.
    delta : float
        Argument of the determinant.

    Notes
    -----
    ``a = 0`` gives a pure off-diagonal (reflecting) coin, ``a = 1`` a
    diagonal (ballistic) one.  Both are accepted everywhere; operations
    that are undefined in those regimes raise :class:`DomainError` at
    the point of use.
    """

    a: float
    b: float
    alpha: float
    beta: float
    delta: float

    def __post_init__(self) -> None:
        a, b = float(self.a), float(self.b)
        if not all(map(math.isfinite, (a, b, self.alpha, self.beta, self.delta))):
            raise DomainError("coin parameters must be finite")
        if a < -1e-12 or b < -1e-12 or abs(a * a + b * b - 1.0) > 1e-10:
            raise DomainError(
                f"coin moduli must satisfy a,b >= 0 and a^2+b^2 = 1, got a={a}, b={b}"
            )
        a, b = max(a, 0.0), max(b, 0.0)
        if a < _PIN_TOL:
            a, b = 0.0, 1.0
        elif b < _PIN_TOL:
            a, b = 1.0, 0.0
        else:
            n = math.hypot(a, b)
            a, b = a / n, b / n
        alpha = 0.0 if a == 0.0 else wrap_angle(float(self.alpha))
        beta = 0.0 if b == 0.0 else wrap_angle(float(self.beta))
        delta = wrap_angle(float(self.delta))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "CoinMatrix":
        """Recover the canonical parameters of a unitary matrix.

        Raises
        ------
        DomainError
            If ``m`` is not 2x2 unitary within ``UNITARITY_ATOL``, or does
            not round-trip through the parameterization at that tolerance.
        """
        m = _check_unitary(m, "coin matrix")
        delta = cmath.phase(np.linalg.det(m))
        a = abs(m[0, 0])
        b = abs(m[0, 1])
        alpha = cmath.phase(m[0, 0]) if a >= _PIN_TOL else 0.0
        beta = cmath.phase(m[0, 1]) if b >= _PIN_TOL else 0.0
        coin = cls(a, b, alpha, beta, delta)
        res = np.abs(coin.matrix() - m).max()
        if res > 10.0 * UNITARITY_ATOL:
            raise DomainError(f"matrix does not fit the canonical form (residual {res:.3e})")
        return coin

    def matrix(self) -> np.ndarray:
        """The coin as a complex 2x2 array."""
        a, b = self.a, self.b
        return np.array(
            [
                [a * cmath.exp(1j * self.alpha), b * cmath.exp(1j * self.beta)],
                [
                    -b * cmath.exp(1j * (self.delta - self.beta)),
                    a * cmath.exp(1j * (self.delta - self.alpha)),
                ],
            ]
        )


def hadamard_coin() -> CoinMatrix:
    """The Hadamard coin, (a, alpha, beta, delta) = (1/sqrt(2), 0, 0, pi)."""
    r = 1.0 / math.sqrt(2.0)
    return CoinMatrix(r, r, 0.0, 0.0, math.pi)


def nearest_unitary(stack: np.ndarray) -> np.ndarray:
    """Polar (closest-unitary) factor of a stack of matrices.

    Accepts shape (..., 2, 2); the result minimizes the distance to the
    input in every unitarily invariant norm.
    """
    u, s, vh = np.linalg.svd(np.asarray(stack, dtype=complex))
    if np.any(s[..., -1] <= 2.3e-16):
        raise DomainError("cannot unitarize a (nearly) singular matrix")
    return u @ vh


@dataclass(frozen=True)
class TailRule:
    """Power-law approach of the coin field to its asymptotic value.

    The realized coins obey ``||C(x) - C_inf||_2 <= kappa * |x|^(-1-epsilon)``;
    the bound is re-checked on sample sites when the field is built.
    """

    kappa: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise DomainError(f"tail amplitude must be >= 0, got {self.kappa}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise DomainError(f"tail exponent must be > 0, got {self.epsilon}")

    def deviation_bound(self, x: np.ndarray | int) -> np.ndarray:
        ax = np.abs(np.asarray(x, dtype=float))
        return self.kappa * ax ** (-1.0 - self.epsilon)


def _tail_block(base: np.ndarray, rule: TailRule, x: np.ndarray) -> np.ndarray:
    """Coins on sites ``x`` (all nonzero) under a power-law tail.

    The perturbation is half the declared bound times the symmetric swap,
    re-unitarized by the polar decomposition; polar projection can at most
    double the raw perturbation, so the declared bound survives.
    """
    amp = 0.5 * rule.deviation_bound(x)
    pert = base[None, :, :] + amp[:, None, None] * _SWAP[None, :, :]
    return nearest_unitary(pert)


@dataclass(frozen=True)
class CoinField:
    """Position-dependent coin assignment x -> C(x).

    Sites with an explicit override use that matrix.  Outside the
    overrides, a side with a :class:`TailRule` uses the power-law
    deformation of its asymptotic coin; otherwise the asymptotic coin
    itself.  Site 0 counts as the right half-line unless overridden.

    Parameters
    ----------
    left, right : CoinMatrix
        Asymptotic coins for x < 0 and x >= 0.
    overrides : mapping of int to array_like, optional
        Explicit unitary coins on finitely many sites.
    tail_left, tail_right : TailRule, optional
        Power-law tails; they apply strictly beyond the largest
        overridden |x| and never at x = 0.
    """

    left: CoinMatrix
    right: CoinMatrix
    overrides: Mapping[int, np.ndarray] = field(default_factory=dict)
    tail_left: TailRule | None = None
    tail_right: TailRule | None = None

    def __post_init__(self) -> None:
        clean: dict[int, np.ndarray] = {}
        for site, m in dict(self.overrides).items():
            site = int(site)
            mat = _check_unitary(m, f"override at x={site}")
            mat.setflags(write=False)
            clean[site] = mat
        object.__setattr__(self, "overrides", clean)
        self._verify_tails()

    @property
    def override_radius(self) -> int:
        """Largest |x| carrying an explicit override (0 when none)."""
        return max((abs(x) for x in self.overrides), default=0)

    def _verify_tails(self) -> None:
        r = self.override_radius
        probes = np.unique(np.array([r + 1, r + 2, r + 5, r + 30, r + 1000], dtype=int))
        for rule, coin, sign in ((self.tail_left, self.left, -1), (self.tail_right, self.right, 1)):
            if rule is None:
                continue
            x = sign * probes
            block = _tail_block(coin.matrix(), rule, x)
            dev = np.linalg.norm(block - coin.matrix()[None], ord=2, axis=(1, 2))
            if np.any(dev > rule.deviation_bound(x) + 1e-12):
                raise DomainError("tail rule violates its declared deviation bound")

    def asymptotic(self, side: str) -> CoinMatrix:
        if side == "left":
            return self.left
        if side == "right":
            return self.right
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")

    def at(self, x: int) -> np.ndarray:
        """The coin at a single site."""
        return self.block(x, x + 1)[0]

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Coins on the half-open site range [lo, hi) as shape (hi-lo, 2, 2)."""
        if hi < lo:
            raise DomainError(f"empty or inverted site range [{lo}, {hi})")
        x = np.arange(lo, hi)
        out = np.empty((hi - lo, 2, 2), dtype=complex)
        out[x < 0] = self.left.matrix()
        out[x >= 0] = self.right.matrix()
        r = self.override_radius
        if self.tail_left is not None:
            mask = x < min(-r, 0)
            if mask.any():
                out[mask] = _tail_block(self.left.matrix(), self.tail_left, x[mask])
        if self.tail_right is not None:
            mask = x > max(r, 0)
            if mask.any():
                out[mask] = _tail_block(self.right.matrix(), self.tail_right, x[mask])
        for site, m in self.overrides.items():
            if lo <= site < hi:
                out[site - lo] = m
        return out
