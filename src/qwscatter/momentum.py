"""Momentum-space analysis of the translation invariant walk.

For a homogeneous coin C the walk diagonalizes in the Fourier picture:
U(k) = diag(e^{ik}, e^{-ik}) C is a 2x2 unitary for each quasi-momentum
k.  With phi = k + alpha - delta/2 and

    tau = a cos(phi),   sigma = a sin(phi),   eta = sqrt(1 - tau^2),

the two eigenvalue branches are lambda_j = e^{i delta/2} (tau + s_j i eta),
s_j = 1 - 2j, and the group velocity of branch j is

    v_j(k) = -s_j sigma / eta,

bounded by |v_j| <= a.  Branch 0 carries eigenvector (1, 0) and velocity
-1 in the diagonal limit a = 1; for a = 0 both velocities vanish and the
spectrum degenerates to two infinitely degenerate eigenvalues.

Every function of the free walk, U_0^n, the velocity projection chi(V),
the outgoing-state average and the translators K, multiplies branch
amplitudes by a factor per momentum.  ``to_branches(vec.conj(), hat)``
takes a spinor transform to the amplitudes <u_j(k), hat(psi)(k)> on the
bras, which a caller reusing one basis conjugates once, and
``from_branches(vec, amp)`` takes them back on the kets; that pair is
the one branch-decomposition kernel.  ``_fourier_multiplier`` is the
one Fourier-multiplier kernel on that pair: U_0^n and chi(V) pass it
their factor per momentum, and the outgoing average, summed as
amplitudes, shares its last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coin import CoinMatrix, wrap_angle
from .errors import DomainError
from .lattice import LatticeState, _check_window, _next_pow2

__all__ = [
    "FreeModel",
    "SpectrumArcs",
    "spectrum_arcs",
    "to_branches",
    "from_branches",
    "velocity_projection",
    "branch_packet",
]


@dataclass(frozen=True)
class FreeModel:
    """Fourier-diagonalized homogeneous walk built from one coin.

    All array methods accept scalars or arrays of momenta and broadcast;
    branch indices are 0 and 1 with the conventions in the module
    docstring.
    """

    coin: CoinMatrix

    @property
    def a(self) -> float:
        return self.coin.a

    def _phi(self, k: np.ndarray) -> np.ndarray:
        return np.asarray(k, dtype=float) + self.coin.alpha - 0.5 * self.coin.delta

    def symbol(self, k: np.ndarray) -> np.ndarray:
        """U(k) = diag(e^{ik}, e^{-ik}) C, shape (..., 2, 2)."""
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape + (2, 2), dtype=complex)
        c = self.coin.matrix()
        up = np.exp(1j * k)
        out[..., 0, 0] = up * c[0, 0]
        out[..., 0, 1] = up * c[0, 1]
        out[..., 1, 0] = c[1, 0] / up
        out[..., 1, 1] = c[1, 1] / up
        return out

    def eigenvalues(self, k: np.ndarray) -> np.ndarray:
        """Both eigenvalue branches, shape (..., 2), branch index last."""
        k = np.asarray(k, dtype=float)
        phase = np.exp(0.5j * self.coin.delta)
        out = np.zeros(k.shape + (2,), dtype=complex)
        if self.coin.a == 1.0:
            # Bands touch; the analytic branches are e^{+-i phi}.
            phi = self._phi(k)
            out[..., 0] = phase * np.exp(1j * phi)
            out[..., 1] = phase * np.exp(-1j * phi)
            return out
        tau = self.coin.a * np.cos(self._phi(k))
        eta = np.sqrt(1.0 - tau * tau)
        out[..., 0] = phase * (tau + 1j * eta)
        out[..., 1] = phase * (tau - 1j * eta)
        return out

    def velocity(self, k: np.ndarray) -> np.ndarray:
        """Group velocities -d(arg lambda_j)/dk of both branches, shape (..., 2)."""
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape + (2,), dtype=float)
        a = self.coin.a
        if a == 1.0:
            out[..., 0] = -1.0
            out[..., 1] = 1.0
            return out
        phi = self._phi(k)
        tau = a * np.cos(phi)
        sig = a * np.sin(phi)
        eta = np.sqrt(1.0 - tau * tau)
        out[..., 0] = -sig / eta
        out[..., 1] = sig / eta
        return out

    def eigensystem(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (..., 2) and eigenvectors (..., 2, 2).

        ``vec[..., j, :]`` is the unit eigenvector of branch j, gauged so
        that its larger component (component 0 at ties) is real positive.
        For a = 1 the eigenvectors are the standard basis vectors; both
        components of the generic formula are nonvanishing for 0 < a < 1,
        so no exceptional handling is needed there.
        """
        k = np.asarray(k, dtype=float)
        lam = self.eigenvalues(k)
        vec = np.zeros(k.shape + (2, 2), dtype=complex)
        if self.coin.a == 1.0:
            vec[..., 0, 0] = 1.0
            vec[..., 1, 1] = 1.0
            return lam, vec
        c = self.coin.matrix()
        up = np.exp(1j * k)
        top = up * c[0, 1]  # symbol entry (0, 1), modulus b > 0
        for j in (0, 1):
            bot = lam[..., j] - up * c[0, 0]
            norm = np.sqrt(np.abs(top) ** 2 + np.abs(bot) ** 2)
            u0, u1 = top / norm, bot / norm
            big = np.where(np.abs(u0) >= math.sqrt(0.5), u0, u1)
            gauge = np.exp(-1j * np.angle(big))
            vec[..., j, 0] = gauge * u0
            vec[..., j, 1] = gauge * u1
        return lam, vec


@dataclass(frozen=True)
class SpectrumArcs:
    """Spectrum of the homogeneous walk on the unit circle.

    ``arcs`` lists closed arcs of absolutely continuous spectrum as
    (start, end) angle pairs with start <= end (end may exceed pi when
    the arc crosses the branch cut).  ``thresholds`` are the band edge
    points where the group velocity vanishes; ``eigenvalues`` is
    nonempty only in the fully reflecting case a = 0, whose spectrum is
    pure point.
    """

    arcs: tuple[tuple[float, float], ...]
    thresholds: tuple[complex, ...]
    eigenvalues: tuple[complex, ...]

    @property
    def is_pure_point(self) -> bool:
        return len(self.eigenvalues) > 0


def spectrum_arcs(model: FreeModel) -> SpectrumArcs:
    """Arcs, thresholds and point spectrum of the free walk."""
    a, delta = model.coin.a, model.coin.delta
    if a == 0.0:
        eig = (1j * np.exp(0.5j * delta), -1j * np.exp(0.5j * delta))
        return SpectrumArcs(arcs=(), thresholds=(), eigenvalues=tuple(eig))
    if a == 1.0:
        return SpectrumArcs(arcs=((-math.pi, math.pi),), thresholds=(), eigenvalues=())
    w = math.acos(a)  # arg offset of the band edge, in (0, pi/2)
    half = 0.5 * delta
    arcs = (
        (wrap_angle(half + w), wrap_angle(half + w) + (math.pi - 2.0 * w)),
        (wrap_angle(half - math.pi + w), wrap_angle(half - math.pi + w) + (math.pi - 2.0 * w)),
    )
    thresholds = tuple(
        np.exp(1j * (half + t)) for t in (w, math.pi - w, -w, w - math.pi)
    )
    return SpectrumArcs(arcs=arcs, thresholds=thresholds, eigenvalues=())


def to_branches(bras: np.ndarray, hat: np.ndarray) -> np.ndarray:
    """Branch amplitudes <u_j(k), hat(psi)(k)>, shape (W, 2), branch last.

    ``bras`` is ``vec.conj()`` for the (W, 2, 2) eigenvectors ``vec`` of
    :meth:`FreeModel.eigensystem`, ``hat`` the (W, 2) spinor transform.
    """
    return bras[..., 0] * hat[:, None, 0] + bras[..., 1] * hat[:, None, 1]


def from_branches(vec: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Spinor transform sum_j amp_j(k) u_j(k), the inverse of :func:`to_branches`."""
    return amp[:, 0, None] * vec[:, 0, :] + amp[:, 1, None] * vec[:, 1, :]


def _from_amplitudes(x0: int, vec: np.ndarray, amp: np.ndarray) -> LatticeState:
    """The state on the window from site ``x0`` whose branch amplitudes are ``amp``."""
    return LatticeState(x0, np.fft.ifft(from_branches(vec, amp), axis=0))


def _fourier_multiplier(
    state: LatticeState,
    model: FreeModel,
    size: int,
    what: str,
    factor: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> LatticeState:
    """Multiply the branch amplitudes of ``state`` by ``factor(k, lam)`` on a window.

    The window has ``size`` sites, centres the state and is checked against
    the cap before allocation; k = 2 pi m / size, and ``lam`` are its eigenvalues.
    """
    _check_window(size, what)
    n = state.hi - state.lo
    x0 = state.lo - (size - n) // 2
    hat = np.zeros((size, 2), dtype=complex)
    hat[state.lo - x0 : state.hi - x0] = state.amp
    hat = np.fft.fft(hat, axis=0)  # rebinding frees the window before the eigensystem
    k = 2.0 * math.pi * np.arange(size) / size
    lam, vec = model.eigensystem(k)
    return _from_amplitudes(x0, vec, factor(k, lam) * to_branches(vec.conj(), hat))


def velocity_projection(
    state: LatticeState,
    model: FreeModel,
    window: Callable[[np.ndarray], np.ndarray],
    *,
    dft_size: int | None = None,
) -> LatticeState:
    """Spectral projection chi_B(V) onto a window of group velocities.

    The projector multiplies the amplitudes of both branches by the
    indicator of ``window``, an elementwise predicate on velocities that
    also settles v = -0.0 and +0.0 (Hadamard has both at k = pi/2), in
    the Fourier picture, on a grid padded by 256 sites on each side and
    rounded up to a power of two.  The result keeps the padded window;
    pass the same explicit ``dft_size`` when checking algebraic identities
    between repeated projections, since re-gridding truncated output
    folds in O(1/N) wrap-around error.
    """
    n = state.hi - state.lo
    size = dft_size if dft_size is not None else _next_pow2(n + 512)
    if size < n:
        raise DomainError(f"dft_size {size} is smaller than the state support {n}")

    def mask(k: np.ndarray, _lam: np.ndarray) -> np.ndarray:
        return np.asarray(window(model.velocity(k)), dtype=bool)

    return _fourier_multiplier(state, model, size, "projection", mask)


def branch_packet(
    model: FreeModel,
    branch: int,
    k0: float,
    sigma_k: float,
    *,
    size: int = 4096,
    center: int = 0,
) -> LatticeState:
    """Normalized Gaussian packet concentrated on one dispersion branch.

    Builds hat(psi)(k) = g(k - k0) u_branch(k) with a circular Gaussian
    profile of momentum width sigma_k, centered at lattice site
    ``center``.  Useful for preparing states with a sharp group velocity
    v_branch(k0).
    """
    if branch not in (0, 1):
        raise DomainError(f"branch must be 0 or 1, got {branch}")
    if not 0 < sigma_k < 1.0:
        raise DomainError("momentum width must lie in (0, 1)")
    size = _next_pow2(size)
    k = 2.0 * math.pi * np.arange(size) / size
    d = np.angle(np.exp(1j * (k - k0)))  # circular distance to k0
    profile = np.exp(-(d * d) / (4.0 * sigma_k * sigma_k))
    _, vec = model.eigensystem(k)
    hat = profile[:, None] * vec[:, branch, :]
    amp = np.fft.ifft(hat, axis=0)
    # Roll the (periodic) packet into the middle of the window before
    # assigning positions, then recentre at the requested site.
    amp = np.roll(amp, size // 2, axis=0)
    state = LatticeState(center - size // 2, amp).trimmed(1e-14)
    return state.normalized()
