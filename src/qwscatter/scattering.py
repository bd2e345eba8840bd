"""Wave operators between an inhomogeneous walk and its asymptotic sides.

The comparison dynamics is the pair of homogeneous walks built from the
two asymptotic coins.  States of the pair are identified with states of
the full walk through the gluing map

    J(psi_l, psi_r) = 1_{x<0} psi_l + 1_{x>=0} psi_r,

which satisfies J J* = 1.  Two limits are computed here, both by
iteration with certified increments:

* ``wave_forward``: Phi = lim_n U^{-n} J U_0^n (psi_l, psi_r), the
  identification-then-interaction limit.  The free evolution is exact
  (Fourier), the backward interacting steps are exact windowed products,
  and each checkpoint is evaluated from scratch, so no error accumulates
  between checkpoints.

* ``outgoing_pair``: Phi_star = lim_n U_star^{-n} 1_star U^n psi for
  both sides star in {l, r}.  Pure point components of U have no strong
  limit under this iteration (their contribution oscillates without
  decaying), so the iterates are averaged over dyadic tail blocks
  (N/2, N], which removes bound state contamination at rate N^{-1/2}
  while leaving the limit of the scattering part untouched.  The whole
  average is accumulated as free-walk branch amplitudes on the momentum
  grid of one fixed window (``momentum.to_branches``) and turned back
  into a spinor state once, at the end, so one interacting evolution
  pass serves every block and both sides.

  Each side forms the iterates in one of two ways.  Cook's identity

      U_star^{-n} 1_star U^n psi = 1_star psi
          + sum_{m<n} U_star^{-(m+1)} (1_star U - U_star 1_star) U^m psi

  has increments that live on the nonzero rows of the increment
  operator M = 1_star U - U_star 1_star, which are few when the coins
  equal the side's asymptotic coin away from a compact region (two rows
  per side for a homogeneous field, two or three next to a one-site
  defect).  A side with at
  most ``_TELESCOPE_ROWS`` rows on the walk's window telescopes: it
  reads those rows off U^m psi before each step and adds their branch
  amplitudes through a precomputed kernel, with no FFT.  A side with
  more rows, such as one with a power-law tail, transforms its half of
  the window after every step instead.  Both run on the calling thread.

Sides whose asymptotic coin is purely off diagonal (a = 0) carry no
propagating modes; ``propagating_part`` projects them away, which is
exactly the spectral cutoff of the free dynamics away from its point
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coin import CoinField, CoinMatrix
from .errors import ConvergenceError, DomainError
from .lattice import Evolution, LatticeState, _check_window, _next_pow2, evolve
from .momentum import FreeModel, _fourier_multiplier, _from_amplitudes, to_branches

__all__ = [
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
    "intertwining_residual",
]


@dataclass(frozen=True)
class Schedule:
    """Iteration budget: dyadic checkpoints first, 2*first, ..., n_max."""

    n_max: int = 1 << 14
    tol: float = 1e-6
    first: int = 64

    def __post_init__(self) -> None:
        if self.first < 2 or self.n_max < self.first:
            raise DomainError("need 2 <= first <= n_max")
        if not 0.0 < self.tol < math.inf:
            raise DomainError("tolerance must be positive and finite")

    def checkpoints(self) -> list[int]:
        ns = [self.first]
        while ns[-1] < self.n_max:
            ns.append(min(2 * ns[-1], self.n_max))
        return ns


@dataclass
class ConvergenceReport:
    """Checkpoint trace of an iterated limit."""

    checkpoints: list[int]
    increments: list[float]
    tol: float

    @property
    def converged(self) -> bool:
        """True without checkpoints (nothing to iterate), else final_increment <= tol."""
        return not self.checkpoints or self.final_increment <= self.tol

    @property
    def final_n(self) -> int:
        return self.checkpoints[-1]

    @property
    def final_increment(self) -> float:
        return self.increments[-1] if self.increments else math.inf

    def require(self) -> None:
        if not self.converged:
            raise ConvergenceError(
                f"limit not converged: increment {self.final_increment:.3e} "
                f"above {self.tol:.3e} at n = {self.final_n}"
            )


@dataclass(frozen=True)
class PairState:
    """Element of the doubled comparison space (one state per side)."""

    left: LatticeState
    right: LatticeState

    def norm_sq(self) -> float:
        return self.left.norm_sq() + self.right.norm_sq()

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


def free_model(field: CoinField, side: str) -> FreeModel:
    """Homogeneous comparison walk of one side."""
    return FreeModel(field.asymptotic(side))


def apply_J(pair: PairState) -> LatticeState:
    """Glue a pair into one state: left half from psi_l, right half from psi_r."""
    return pair.left.restricted("left") + pair.right.restricted("right")


def apply_J_adjoint(state: LatticeState) -> PairState:
    """J* psi = (1_{x<0} psi, 1_{x>=0} psi)."""
    return PairState(state.restricted("left"), state.restricted("right"))


def propagating_part(pair: PairState, field: CoinField) -> PairState:
    """Remove components on sides whose free walk is pure point (a = 0)."""
    left = pair.left if field.left.a > 0.0 else 0.0 * pair.left
    right = pair.right if field.right.a > 0.0 else 0.0 * pair.right
    return PairState(left, right)


def free_evolve(state: LatticeState, model: FreeModel, steps: int) -> LatticeState:
    """Apply the homogeneous walk exactly via its Fourier symbol.

    ``steps`` may be negative.  The result lives on a padded power-of-two
    window large enough that the circular convolution is exact.
    """
    if steps == 0:
        return state.copy()
    size = _next_pow2(state.hi - state.lo + 2 * abs(steps) + 64)

    def phases(_k: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return np.exp(1j * steps * np.angle(lam))  # lambda^steps with exact modulus

    return _fourier_multiplier(state, model, size, "free evolution", phases)


def wave_forward(
    pair: PairState,
    field: CoinField,
    schedule: Schedule | None = None,
) -> tuple[LatticeState, ConvergenceReport]:
    """Iterated limit of U^{-n} J U_0^n on a pair of free states.

    Returns the state at the last evaluated checkpoint together with the
    increment trace; stops early once consecutive checkpoints differ by
    at most ``schedule.tol`` in norm.
    """
    sched = schedule or Schedule()
    pair = propagating_part(pair, field)
    models = (free_model(field, "left"), free_model(field, "right"))
    prev: LatticeState | None = None
    report = ConvergenceReport([], [], sched.tol)
    for n in sched.checkpoints():
        sides = []
        for st, model in zip((pair.left, pair.right), models):
            sides.append(st if st.norm_sq() == 0.0 else free_evolve(st, model, n))
        joined = apply_J(PairState(*sides))
        phi = evolve(joined, field, -n)
        report.checkpoints.append(n)
        if prev is not None:
            report.increments.append((phi - prev).norm())
        prev = phi
        if report.converged:
            break
    assert prev is not None
    return prev.trimmed(1e-15), report


class _SideAccumulator:
    """Tail-block averaging of U_star^{-n} 1_star U^n psi in branch amplitudes.

    The free eigenbasis is orthonormal at every k, so block averages and
    their increments are taken on the (W, 2) amplitudes ``acc`` directly;
    the spinor transform is rebuilt once, from the last block average.
    Subclasses add each step's amplitudes to ``acc``.  With
    ``branch_major`` the eigenvalues, powers and sums are stored as
    contiguous (2, W) arrays and ``acc`` is a view of them.
    """

    def __init__(self, model: FreeModel, k: np.ndarray, tol: float, branch_major: bool = False) -> None:
        lam, vec = model.eigensystem(k)
        if branch_major:
            lam = np.ascontiguousarray(lam.T)
        self.bras = vec.conj()  # (W, 2, 2), conjugated once, not on every step
        self.lam_conj = lam.conj()
        self.powers = np.ones_like(lam)  # lambda^{-n}, renormalized periodically
        self.sums = np.zeros_like(lam)
        self.acc = self.sums.T if branch_major else self.sums
        self.snap = np.zeros_like(self.acc)
        self.block_avg: np.ndarray | None = None
        self.report = ConvergenceReport([], [], tol)

    def advance_powers(self, n: int) -> None:
        self.powers *= self.lam_conj
        if n % 1024 == 0:
            self.powers /= np.abs(self.powers)

    def checkpoint(self, n: int, prev_n: int) -> None:
        avg = (self.acc - self.snap) / (n - prev_n)
        np.copyto(self.snap, self.acc)
        if self.block_avg is not None:
            w = avg.shape[0]
            self.report.increments.append(float(np.linalg.norm(avg - self.block_avg)) / math.sqrt(w))
        self.block_avg = avg
        self.report.checkpoints.append(n)

    def result(self, x0: int) -> tuple[LatticeState, ConvergenceReport]:
        assert self.block_avg is not None
        return _from_amplitudes(x0, self.bras.conj(), self.block_avg).trimmed(1e-15), self.report


class _TransformedSide(_SideAccumulator):
    """A side that transforms 1_star U^n psi on the whole window after each step.

    The side's half line is the window index range [lo, hi).
    """

    def __init__(self, model: FreeModel, k: np.ndarray, tol: float, lo: int, hi: int) -> None:
        super().__init__(model, k, tol)
        self.lo, self.hi = lo, hi
        self.ybuf = np.zeros((k.size, 2), dtype=complex)
        self.yhat = np.empty_like(self.ybuf)

    def after_step(self, n: int, g0: int, amp: np.ndarray) -> None:
        """Absorb 1_star U^n psi, whose amplitudes start at window index g0."""
        # the walk's support only grows, so the side's part [a0, a1)
        # covers every earlier one and the rest of ybuf is still zero
        a0, a1 = max(g0, self.lo), min(g0 + len(amp), self.hi)
        if a0 < a1:
            self.ybuf[a0:a1] = amp[a0 - g0 : a1 - g0]
        yhat = np.fft.fft(self.ybuf, axis=0, out=self.yhat)
        self.advance_powers(n)
        # Keep this one expression, to_branches' result unnamed and on the
        # right: with FMA, a*b and b*a differ in the last bit, and for
        # windows of 8192 sites or more numpy evaluates the product in place
        # as tmp *= powers.  Naming tmp or writing the product into an out=
        # buffer changes the outgoing state.
        self.acc += self.powers * to_branches(self.bras, yhat)


class _TelescopedSide(_SideAccumulator):
    """A side that sums Cook increments read off a few sites before each step.

    The telescoped amplitude z_n = lambda^{-n} <u_j, F 1_star U^n psi>
    starts from the transform of 1_star psi and moves by
    z_n - z_{n-1} = lambda^{-n} <u_j, F M U^{n-1} psi> (see
    :func:`_increment_rows`).  ``kernel`` row q takes the value of row q
    of M to the branch amplitudes of its shifted output: the bras of its
    component times exp(-i k d), d the window index it moves to, with the
    phase reduced mod 2 pi exactly in integers.
    """

    def __init__(
        self,
        model: FreeModel,
        k: np.ndarray,
        tol: float,
        rows: tuple[np.ndarray, np.ndarray, np.ndarray],
        ev: Evolution,
        start: LatticeState,
        x0: int,
    ) -> None:
        super().__init__(model, k, tol, branch_major=True)
        size = k.size
        sites, comps, self.coef = rows
        self.values = ev.window_view().reshape(-1)  # live: (site, component) pairs from ev.origin
        self.index = 2 * (sites - ev.origin)[:, None] + np.arange(2)
        dest = sites + 2 * comps - 1 - x0  # component 0 moves down a site, 1 up
        turns = (np.arange(size)[None, :] * dest[:, None]) % size
        kernel = self.bras[:, :, comps].transpose(2, 1, 0) * np.exp(-2j * math.pi / size * turns)[:, None, :]
        self.kernel = kernel.reshape(len(sites), 2 * size)
        self.inc = np.empty(2 * size, dtype=complex)
        hat = np.fft.fft(start.values_on(x0, x0 + size), axis=0)
        self.z = np.ascontiguousarray(to_branches(self.bras, hat).T)

    def before_step(self, n: int) -> None:
        """Add z_n to the sums, with the walk still at U^{n-1} psi."""
        v = np.einsum("qc,qc->q", self.coef, self.values[self.index])
        self.advance_powers(n)
        inc = np.dot(v, self.kernel, out=self.inc).reshape(self.z.shape)
        inc *= self.powers
        self.z += inc
        self.sums += self.z


def _increment_rows(
    coins: np.ndarray, lo: int, coin: CoinMatrix, side: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero rows of the increment operator M = 1_star U - U_star 1_star.

    On site z, M acts as diag(1_star(z-1), 1_star(z+1)) C(z) - 1_star(z) C_star,
    and its component 0 moves to z - 1, component 1 to z + 1.  ``coins`` are
    C(z) on the sites from ``lo``.  Returns the sites, the components and
    the (Q, 2) rows: where C = C_star away from the boundary of the half
    line, few rows are left.
    """
    x = lo + np.arange(len(coins))

    def half(y: np.ndarray) -> np.ndarray:
        return (y >= 0) if side == "right" else (y < 0)

    gate = np.stack([half(x - 1), half(x + 1)], axis=1)
    m = gate[:, :, None] * coins - half(x)[:, None, None] * coin.matrix()
    site, comp = np.nonzero(np.any(m != 0.0, axis=2))
    return x[site], comp, m[site, comp]


# Most increment rows a telescoped side may have.  A telescoped step costs
# one (rows, 2W) product and four ufuncs on 2W values, a transformed step
# one FFT and one branch transform of the window; at 8192 sites the two
# cost the same at about 19 rows per side.
_TELESCOPE_ROWS = 16


def outgoing_pair(
    state: LatticeState,
    field: CoinField,
    schedule: Schedule | None = None,
) -> tuple[PairState, dict[str, ConvergenceReport]]:
    """Tail-averaged outgoing states of both sides in one evolution pass.

    A side whose increment operator has at most ``_TELESCOPE_ROWS``
    nonzero rows on the walk's window (no tail rule on its half line)
    sums Cook increments read off those sites before each step; any other
    side transforms its half of the window after each step.  A side whose
    asymptotic coin has a = 0 supports no scattering and comes back as the
    zero state with an empty report.
    """
    sched = schedule or Schedule()
    states = {s: LatticeState.zero(0, 1) for s in ("left", "right")}
    reports = {s: ConvergenceReport([], [], sched.tol) for s in ("left", "right")}
    sides = [s for s in ("left", "right") if field.asymptotic(s).a > 0.0]
    if not sides:
        return PairState(states["left"], states["right"]), reports
    n_max = sched.n_max
    size = _next_pow2(state.hi - state.lo + 4 * n_max + 256)
    _check_window(size, "outgoing-state")
    x0 = state.lo - 2 * n_max - 128
    k = 2.0 * math.pi * np.arange(size) / size
    origin_idx = -x0  # fourier buffer index of lattice site 0
    half = {"left": (0, origin_idx), "right": (origin_idx, size)}
    ev = Evolution(state, field, n_max)
    accs: dict[str, _SideAccumulator] = {}
    for s in sides:
        model = free_model(field, s)
        rows = _increment_rows(ev.coins, ev.origin, model.coin, s)
        if len(rows[0]) <= _TELESCOPE_ROWS:
            accs[s] = _TelescopedSide(model, k, sched.tol, rows, ev, state.restricted(s), x0)
        else:
            accs[s] = _TransformedSide(model, k, sched.tol, *half[s])
    telescoped = [a for a in accs.values() if isinstance(a, _TelescopedSide)]
    transformed = [a for a in accs.values() if isinstance(a, _TransformedSide)]
    prev_cp = 0
    for cp in sched.checkpoints():
        for n in range(prev_cp + 1, cp + 1):
            for tel in telescoped:
                tel.before_step(n)
            ev.step()
            for tra in transformed:
                tra.after_step(n, ev.lo - x0, ev.values_view())
        for acc in accs.values():
            acc.checkpoint(cp, prev_cp)
        prev_cp = cp
        if all(acc.report.converged for acc in accs.values()):
            break
    for s, acc in accs.items():
        states[s], reports[s] = acc.result(x0)
    return PairState(states["left"], states["right"]), reports


def intertwining_residual(
    pair: PairState,
    field: CoinField,
    schedule: Schedule | None = None,
) -> float:
    """Norm of (W U_0 - U W) applied to a pair, at the schedule's resolution."""
    sched = schedule or Schedule()
    ml, mr = free_model(field, "left"), free_model(field, "right")
    advanced = PairState(free_evolve(pair.left, ml, 1), free_evolve(pair.right, mr, 1))
    phi_adv, _ = wave_forward(advanced, field, sched)
    phi, _ = wave_forward(pair, field, sched)
    return (phi_adv - evolve(phi, field, 1)).norm()
