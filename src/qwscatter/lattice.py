"""Spinor states on the integer lattice and exact windowed evolution.

A state is a finitely supported map x -> (psi0(x), psi1(x)) stored as a
dense (n, 2) complex block together with the integer offset of its first
site.  One walk step is U = S C: the coin C acts sitewise, the shift S
moves component 0 one site down and component 1 one site up,

    (S psi)(x) = (psi0(x + 1), psi1(x - 1)).

The support grows by one site per step, so ``evolve`` allocates the full
final window once and steps in place.  Evolution is exact up to roundoff
with no truncation of the state.

``fourier_at`` (type 2: a state's transform at arbitrary momenta) and
``fourier_at_adjoint`` (type 1: plane waves at those momenta summed on a
window of sites) are one non-uniform FFT pair (Greengard & Lee, SIAM
Rev. 2004); both take their kernel from ``_nufft_kernel``, so each is
the literal adjoint of the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .coin import CoinField
from .errors import DomainError, ResourceLimitError

__all__ = [
    "MAX_WINDOW",
    "LatticeState",
    "Evolution",
    "evolve",
    "fourier_at",
    "fourier_at_adjoint",
]

# Largest window, in sites, of any evolution or Fourier grid (the NUFFT's
# oversampled grid excepted: it is at most twice the window).
MAX_WINDOW = 1 << 20

# Half-width, in fine-grid points, of the NUFFT's Gaussian kernel; 14 reaches 1e-13.
_SPREAD = 14


def _check_radius(radius: int) -> None:
    if radius < 0:
        raise DomainError(f"radius must be >= 0, got {radius}")


def _check_window(size: int, what: str) -> None:
    """Raise ResourceLimitError for a window over MAX_WINDOW, before it is allocated."""
    if size > MAX_WINDOW:
        raise ResourceLimitError(f"{what} window of {size} sites exceeds the cap of {MAX_WINDOW}")


@dataclass
class LatticeState:
    """Compactly supported two-component wave function on the integers.

    Parameters
    ----------
    offset : int
        Position of the first stored site.
    amp : numpy.ndarray
        Amplitudes of shape (n, 2); column c is spin component c.

    Operations never mutate their operands; arithmetic aligns windows
    automatically.
    """

    offset: int
    amp: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amp, dtype=complex)
        if amp.ndim != 2 or amp.shape[1] != 2 or amp.shape[0] < 1:
            raise DomainError(f"amplitude block must have shape (n, 2), got {amp.shape}")
        if not np.isfinite(amp).all():
            raise DomainError("amplitudes must be finite")
        self.offset = int(self.offset)
        self.amp = amp

    # -- constructors -------------------------------------------------

    @classmethod
    def point(cls, x: int, spinor: Iterable[complex] = (1.0, 0.0)) -> "LatticeState":
        """State concentrated on a single site."""
        s = np.asarray(tuple(spinor), dtype=complex)
        if s.shape != (2,):
            raise DomainError("spinor must have exactly two components")
        return cls(int(x), s[None, :].copy())

    @classmethod
    def from_entries(cls, entries: Mapping[int, Iterable[complex]]) -> "LatticeState":
        """Assemble a state from a site -> spinor mapping."""
        if not entries:
            raise DomainError("state needs at least one entry")
        sites = sorted(int(x) for x in entries)
        lo, hi = sites[0], sites[-1] + 1
        amp = np.zeros((hi - lo, 2), dtype=complex)
        for x, spinor in entries.items():
            s = np.asarray(tuple(spinor), dtype=complex)
            if s.shape != (2,):
                raise DomainError(f"spinor at x={x} must have two components")
            amp[int(x) - lo] = s
        return cls(lo, amp)

    @classmethod
    def zero(cls, lo: int, hi: int) -> "LatticeState":
        if hi <= lo:
            raise DomainError(f"empty window [{lo}, {hi})")
        return cls(lo, np.zeros((hi - lo, 2), dtype=complex))

    # -- geometry ------------------------------------------------------

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + self.amp.shape[0]

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.lo, self.hi)

    def values_on(self, lo: int, hi: int) -> np.ndarray:
        """Amplitudes on [lo, hi) as an (hi-lo, 2) block, zero padded."""
        if hi <= lo:
            raise DomainError(f"empty window [{lo}, {hi})")
        out = np.zeros((hi - lo, 2), dtype=complex)
        a, b = max(lo, self.lo), min(hi, self.hi)
        if a < b:
            out[a - lo : b - lo] = self.amp[a - self.lo : b - self.lo]
        return out

    def copy(self) -> "LatticeState":
        return LatticeState(self.offset, self.amp.copy())

    def trimmed(self, tol: float = 0.0) -> "LatticeState":
        """Drop leading/trailing sites whose total amplitude is <= tol."""
        mag = np.abs(self.amp).max(axis=1)
        keep = np.nonzero(mag > tol)[0]
        if keep.size == 0:
            return LatticeState(self.offset, self.amp[:1] * 0.0)
        return LatticeState(self.offset + keep[0], self.amp[keep[0] : keep[-1] + 1].copy())

    # -- algebra -------------------------------------------------------

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amp) ** 2))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def inner(self, other: "LatticeState") -> complex:
        """<self|other>, conjugate linear in self."""
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo >= hi:
            return 0.0 + 0.0j
        a = self.amp[lo - self.lo : hi - self.lo]
        b = other.amp[lo - other.lo : hi - other.lo]
        return complex(np.sum(a.conj() * b))

    def normalized(self) -> "LatticeState":
        n = self.norm()
        if n == 0.0:
            raise DomainError("cannot normalize the zero state")
        return LatticeState(self.offset, self.amp / n)

    def __add__(self, other: "LatticeState") -> "LatticeState":
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        out = self.values_on(lo, hi)
        out += other.values_on(lo, hi)
        return LatticeState(lo, out)

    def __sub__(self, other: "LatticeState") -> "LatticeState":
        return self + (-1.0) * other

    def __mul__(self, c: complex) -> "LatticeState":
        return LatticeState(self.offset, self.amp * c)

    __rmul__ = __mul__

    def __neg__(self) -> "LatticeState":
        return self * (-1.0)

    # -- projections and observables ------------------------------------

    def component(self, c: int) -> "LatticeState":
        """Keep one spin component, zeroing the other."""
        if c not in (0, 1):
            raise DomainError(f"component must be 0 or 1, got {c}")
        amp = np.zeros_like(self.amp)
        amp[:, c] = self.amp[:, c]
        return LatticeState(self.offset, amp)

    def restricted(self, side: str) -> "LatticeState":
        """Multiply by the half line indicator ('left': x < 0, 'right': x >= 0)."""
        amp = self.amp.copy()
        x = self.sites
        if side == "left":
            amp[x >= 0] = 0.0
        elif side == "right":
            amp[x < 0] = 0.0
        else:
            raise DomainError(f"side must be 'left' or 'right', got {side!r}")
        return LatticeState(self.offset, amp)

    def position_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """Sites and per-site probabilities (both components summed)."""
        return self.sites, np.sum(np.abs(self.amp) ** 2, axis=1)

    def characteristic_function(self, xi: float, scale: float) -> complex:
        """E[exp(i xi X / scale)] for the position distribution."""
        if scale <= 0:
            raise DomainError("scale must be positive")
        x, p = self.position_distribution()
        return complex(np.sum(p * np.exp(1j * xi * x / scale)))


def _next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 1).bit_length()


def _nufft_kernel(lo: int, n: int, k: np.ndarray):
    """Gaussian-kernel pieces of the NUFFT pair on the n sites from ``lo``.

    Oversampling 2, half-width ``_SPREAD``.  Returns the fine-grid size,
    the grid index of each site y = x - c (c the centre), the
    deconvolution exp(tau y^2), the (len(k), 2 _SPREAD) grid indices
    and kernel weights, and the phase exp(-i k c).
    """
    size = max(_next_pow2(2 * n), 32)
    tau = 4.0 * math.pi * _SPREAD / (3.0 * size * size)
    y = np.arange(n) - n // 2
    c = lo + n // 2
    h = 2.0 * math.pi / size
    m = np.floor(k / h).astype(np.int64)[:, None] + np.arange(1 - _SPREAD, _SPREAD + 1)
    kernel = np.exp(-((k[:, None] - m * h) ** 2) / (4.0 * tau)) * (math.sqrt(math.pi / tau) / size)
    # hi on a 2^-20 grid makes hi * c exact, so the phase stays accurate at large c
    hi = np.round(k * 2.0**20) * 2.0**-20
    phase = np.exp(-1j * (hi * c)) * np.exp(-1j * ((k - hi) * c))
    return size, y % size, np.exp(tau * y * y), m % size, kernel, phase


def fourier_at(state: LatticeState, k: np.ndarray) -> np.ndarray:
    """Fourier transform sum_x exp(-i k x) psi(x) at arbitrary momenta.

    Returns shape (len(k), 2).  A type-2 non-uniform FFT: the sites,
    centred at c, are divided by the kernel's Fourier coefficients and
    transformed on a fine grid of 2n points or more; each k is
    interpolated from its 28 nearest grid points and multiplied by
    exp(-i k c).  The error is about 1e-12 * sum_x |psi(x)| or less up
    to 4,097 sites.  The kernel distances round to about 1e-16 |k|,
    which the deconvolution amplifies at the edges of wider supports: up
    to 2e-11 * sum_x |psi(x)| at 16,384 sites.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    size, sites, deconv, m, kernel, phase = _nufft_kernel(state.lo, state.amp.shape[0], k)
    buf = np.zeros((size, 2), dtype=complex)
    buf[sites] = state.amp * deconv[:, None]
    fine = np.fft.fft(buf, axis=0)
    return np.einsum("kj,kjc->kc", kernel, fine[m]) * phase[:, None]


def fourier_at_adjoint(values: np.ndarray, k: np.ndarray, lo: int, hi: int) -> LatticeState:
    """Plane-wave sum sum_i exp(i k_i x) values_i on the sites [lo, hi).

    ``values`` has shape (len(k), 2).  A type-1 non-uniform FFT, the
    literal adjoint of :func:`fourier_at` on the same window: the values
    times exp(i k c) are spread onto the fine grid with the same kernel
    weights, transformed back, and multiplied by the same deconvolution.
    Its error, against sum_i |values_i|, is that of :func:`fourier_at`.
    """
    if hi <= lo:
        raise DomainError(f"empty window [{lo}, {hi})")
    _check_window(hi - lo, "adjoint")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    size, sites, deconv, m, kernel, phase = _nufft_kernel(lo, hi - lo, k)
    spread = kernel[:, :, None] * (values * phase.conj()[:, None])[:, None, :]
    fine = np.zeros((size, 2), dtype=complex)
    np.add.at(fine, m.ravel(), spread.reshape(-1, 2))
    buf = size * np.fft.ifft(fine, axis=0)
    return LatticeState(lo, buf[sites] * deconv[:, None])


class Evolution:
    """Stepper applying U = S C (or U^{-1} = C^dagger S^dagger) in place.

    The window for ``max_steps`` applications is allocated up front and
    the coin block ``coins`` (C(x) on the window from site ``origin``) is
    built once, so repeated stepping is cheap.  Use
    :func:`evolve` unless intermediate states are needed.
    """

    def __init__(
        self,
        state: LatticeState,
        field: CoinField,
        max_steps: int,
        *,
        inverse: bool = False,
    ) -> None:
        if max_steps < 0:
            raise DomainError("max_steps must be >= 0")
        lo = state.lo - max_steps
        hi = state.hi + max_steps
        _check_window(hi - lo, "evolution")
        self.origin = lo
        self.inverse = inverse
        self.max_steps = max_steps
        self.steps_done = 0
        self._buf = np.zeros((hi - lo, 2), dtype=complex)
        self._buf[state.lo - lo : state.hi - lo] = state.amp
        self._i0 = state.lo - lo
        self._i1 = state.hi - lo
        self.coins = field.block(lo, hi)
        self._coins = self.coins.conj().transpose(0, 2, 1) if inverse else self.coins

    @property
    def lo(self) -> int:
        return self.origin + self._i0

    @property
    def hi(self) -> int:
        return self.origin + self._i1

    @property
    def state(self) -> LatticeState:
        return LatticeState(self.lo, self._buf[self._i0 : self._i1].copy())

    def values_view(self) -> np.ndarray:
        """Live view of the active amplitudes; do not write through it."""
        return self._buf[self._i0 : self._i1]

    def window_view(self) -> np.ndarray:
        """Live view of the whole window from site ``origin``, zero off the
        active amplitudes; do not write through it."""
        return self._buf

    def localized_mass(self, radius: int) -> float:
        """Probability within |x| <= radius, read off the buffer."""
        _check_radius(radius)
        a = max(-radius - self.origin, self._i0)
        b = min(radius + 1 - self.origin, self._i1)
        if a >= b:
            return 0.0
        return float(np.sum(np.abs(self._buf[a:b]) ** 2))

    def step(self, count: int = 1) -> None:
        for _ in range(count):
            self._step_once()

    def _step_once(self) -> None:
        if self.steps_done >= self.max_steps:
            raise DomainError("evolution capacity exhausted; allocate more steps")
        i0, i1, b = self._i0, self._i1, self._buf
        if not self.inverse:
            a = np.einsum("xab,xb->xa", self._coins[i0:i1], b[i0:i1])
            b[i0 - 1 : i1 + 1] = 0.0
            b[i0 - 1 : i1 - 1, 0] = a[:, 0]
            b[i0 + 1 : i1 + 1, 1] = a[:, 1]
        else:
            s = np.zeros((i1 - i0 + 2, 2), dtype=complex)
            s[2:, 0] = b[i0:i1, 0]
            s[:-2, 1] = b[i0:i1, 1]
            b[i0 - 1 : i1 + 1] = np.einsum("xab,xb->xa", self._coins[i0 - 1 : i1 + 1], s)
        self._i0 -= 1
        self._i1 += 1
        self.steps_done += 1


def evolve(state: LatticeState, field: CoinField, steps: int) -> LatticeState:
    """Apply U^steps; a negative ``steps`` applies U^{-|steps|}, the only spelling of U^{-n}."""
    ev = Evolution(state, field, abs(steps), inverse=steps < 0)
    ev.step(abs(steps))
    return ev.state
