"""Wave operators, outgoing states and the identification map."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_coin, random_state, two_phase_field
from qwscatter import (
    CoinField,
    ConvergenceError,
    DomainError,
    FreeModel,
    LatticeState,
    PairState,
    ResourceLimitError,
    Schedule,
    branch_packet,
    evolve,
    free_model,
    hadamard_coin,
    velocity_projection,
    wave_forward,
)
from qwscatter.coin import TailRule
from qwscatter.lattice import Evolution
from qwscatter.scattering import (
    ConvergenceReport,
    apply_J,
    apply_J_adjoint,
    free_evolve,
    intertwining_residual,
    outgoing_pair,
    propagating_part,
)


def reflecting_coin():
    from qwscatter import CoinMatrix

    return CoinMatrix(0.0, 1.0, 0.0, 0.0, 0.0)


def moving_packet(model: FreeModel, sign: float, center: int, sigma_k: float = 0.09) -> LatticeState:
    """Packet whose group velocity has the requested sign, |v| interior.

    The momentum width keeps the amplitude at the velocity zero
    crossings below 1e-10, which is what makes the scattering limits
    converge immediately instead of at a slow power law.
    """
    k0 = math.pi - 0.7
    v = model.velocity(k0)
    branch = 0 if math.copysign(1.0, v[0]) == sign else 1
    assert math.copysign(1.0, v[branch]) == sign
    return branch_packet(model, branch, k0=k0, sigma_k=sigma_k, center=center)


def test_schedule_checkpoints_are_dyadic_then_capped():
    assert Schedule(n_max=1000, first=64).checkpoints() == [64, 128, 256, 512, 1000]
    assert Schedule(n_max=64, first=64).checkpoints() == [64]
    with pytest.raises(DomainError):
        Schedule(n_max=10, first=64)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            Schedule(tol=bad)


def test_convergence_report_require():
    good = ConvergenceReport([64, 128], [1e-9], 1e-6)
    good.require()
    assert good.converged and good.final_n == 128 and good.final_increment == 1e-9
    assert ConvergenceReport([], [], 1e-6).converged  # nothing to iterate
    for bad in (ConvergenceReport([64, 128], [0.5], 1e-6), ConvergenceReport([64], [], 1e-6)):
        assert not bad.converged
        with pytest.raises(ConvergenceError):
            bad.require()


def test_identification_map_identities(rng):
    left, right = random_state(rng, -9, -1), random_state(rng, 2, 8)
    pair = PairState(left, right)
    glued = apply_J(pair)
    assert abs(glued.norm_sq() - pair.norm_sq()) < 1e-13  # sides stay put here
    back = apply_J_adjoint(glued)
    assert (back.left - left).norm() < 1e-13
    assert (back.right - right).norm() < 1e-13
    # J J* is the identity for any state
    psi = random_state(rng, -5, 6)
    assert (apply_J(apply_J_adjoint(psi)) - psi).norm() < 1e-14
    # J drops the part of each side living on the wrong half line
    mixed = PairState(psi, psi)
    assert abs(apply_J(mixed).norm_sq() - psi.norm_sq()) < 1e-13


def test_propagating_part_zeroes_reflecting_sides(rng):
    fld = CoinField(left=reflecting_coin(), right=hadamard_coin())
    pair = PairState(random_state(rng), random_state(rng))
    cut = propagating_part(pair, fld)
    assert cut.left.norm() == 0.0
    assert (cut.right - pair.right).norm() == 0.0


def test_free_evolve_matches_lattice_route(rng):
    coin = random_coin(rng, a_range=(0.2, 0.9))
    model = FreeModel(coin)
    fld = CoinField(left=coin, right=coin)
    psi = random_state(rng, -6, 7)
    for steps in (1, 9, -5):
        a = free_evolve(psi, model, steps)
        b = evolve(psi, fld, steps)
        assert (a - b).norm() < 1e-12


def test_free_evolve_group_law_and_norm(rng):
    model = FreeModel(random_coin(rng))
    psi = random_state(rng)
    ab = free_evolve(free_evolve(psi, model, 11), model, 6)
    once = free_evolve(psi, model, 17)
    assert (ab - once).norm() < 1e-12
    assert once.norm() == pytest.approx(psi.norm(), abs=1e-13)
    undone = free_evolve(once, model, -17)
    assert (undone - psi).norm() < 1e-12
    with pytest.raises(ResourceLimitError):
        free_evolve(psi, model, 1 << 20)


def test_wave_forward_fixes_correctly_moving_pairs():
    fld = two_phase_field(0.8, 0.6)
    ml, mr = free_model(fld, "left"), free_model(fld, "right")
    pair = PairState(moving_packet(ml, -1.0, -60), moving_packet(mr, +1.0, 60))
    phi, report = wave_forward(pair, fld, Schedule(n_max=512, tol=1e-8))
    assert report.converged
    # both packets already live where they are headed, so the limit is J
    assert (phi - apply_J(pair)).norm() < 1e-8
    assert abs(phi.norm() - pair.norm()) < 1e-10


def test_wave_forward_annihilates_escaping_pairs():
    fld = two_phase_field(0.8, 0.6)
    ml, mr = free_model(fld, "left"), free_model(fld, "right")
    # wrong-way packets leave their half line under the free flow
    pair = PairState(moving_packet(ml, +1.0, -60), moving_packet(mr, -1.0, 60))
    phi, _ = wave_forward(pair, fld, Schedule(n_max=512, tol=1e-10))
    assert phi.norm() < 1e-6


def test_wave_forward_is_isometric_across_the_defect(rng):
    fld = CoinField(
        left=hadamard_coin(),
        right=hadamard_coin(),
        overrides={0: np.diag([1.0, -1.0])},
    )
    ml = free_model(fld, "left")
    pair = PairState(moving_packet(ml, -1.0, -50), LatticeState.zero(0, 1))
    phi, report = wave_forward(pair, fld, Schedule(n_max=512, tol=1e-8))
    assert report.converged
    assert abs(phi.norm() - pair.norm()) < 1e-10


def test_intertwining_with_the_full_evolution():
    fld = two_phase_field(0.8, 0.6)
    ml, mr = free_model(fld, "left"), free_model(fld, "right")
    pair = PairState(moving_packet(ml, -1.0, -60), moving_packet(mr, +1.0, 60))
    resid = intertwining_residual(pair, fld, Schedule(n_max=512, tol=1e-8))
    assert resid < 1e-6


def test_outgoing_pair_recovers_velocity_split_packets():
    # homogeneous field: the outgoing sides are the velocity sign parts
    coin = hadamard_coin()
    fld = CoinField(left=coin, right=coin)
    model = FreeModel(coin)
    neg = moving_packet(model, -1.0, 0)
    pos = moving_packet(model, +1.0, 0)
    psi = ((neg + pos) * (1.0 / math.sqrt(2.0))).trimmed(1e-14)
    psi = psi.normalized()
    pair, reports = outgoing_pair(psi, fld, Schedule(n_max=256, tol=1e-6))
    assert reports["left"].converged and reports["right"].converged
    assert abs(pair.norm_sq() - 1.0) < 1e-6
    want_left = velocity_projection(psi, model, lambda v: v < 0.0)
    want_right = velocity_projection(psi, model, lambda v: v > 0.0)
    assert (pair.left - want_left).norm() < 1e-8
    assert (pair.right - want_right).norm() < 1e-8


def spinor_accumulated_outgoing(state, field, sched):
    """Frozen reference for ``outgoing_pair``: the per-step accumulation
    of spinor transforms that preceded the branch-amplitude kernel.

    Each step decomposes 1_star U^n psi into free branches, weights them
    by lambda^{-n} and recomposes the spinor transform right away; block
    averages and increments are taken on spinors.
    """
    sides = [s for s in ("left", "right") if field.asymptotic(s).a > 0.0]
    n_max = sched.n_max
    size = 1 << max(state.hi - state.lo + 4 * n_max + 256 - 1, 1).bit_length()
    x0 = state.lo - 2 * n_max - 128
    k = 2.0 * math.pi * np.arange(size) / size
    eig = {s: free_model(field, s).eigensystem(k) for s in sides}
    powers = {s: np.ones((size, 2), dtype=complex) for s in sides}
    acc = {s: np.zeros((size, 2), dtype=complex) for s in sides}
    snap = {s: np.zeros((size, 2), dtype=complex) for s in sides}
    avg = {s: None for s in sides}
    incs = {s: [] for s in sides}
    ev = Evolution(state, field, n_max)
    prev_cp = 0
    for cp in sched.checkpoints():
        for n in range(prev_cp + 1, cp + 1):
            ev.step()
            view, g0, g1 = ev.values_view(), ev.lo - x0, ev.hi - x0
            for side in sides:
                a0, a1 = (g0, min(g1, -x0)) if side == "left" else (max(g0, -x0), g1)
                ybuf = np.zeros((size, 2), dtype=complex)
                if a0 < a1:
                    ybuf[a0:a1] = view[a0 - g0 : a1 - g0]
                yhat = np.fft.fft(ybuf, axis=0)
                lam, u = eig[side]
                powers[side] *= lam.conj()
                if n % 1024 == 0:
                    powers[side] /= np.abs(powers[side])
                for j in (0, 1):
                    t = powers[side][:, j] * (
                        u[:, j, 0].conj() * yhat[:, 0] + u[:, j, 1].conj() * yhat[:, 1]
                    )
                    acc[side][:, 0] += t * u[:, j, 0]
                    acc[side][:, 1] += t * u[:, j, 1]
        block = []
        for side in sides:
            new = (acc[side] - snap[side]) / (cp - prev_cp)
            snap[side] = acc[side].copy()
            inc = math.inf
            if avg[side] is not None:
                inc = float(np.linalg.norm(new - avg[side])) / math.sqrt(size)
                incs[side].append(inc)
            avg[side] = new
            block.append(inc)
        prev_cp = cp
        if all(inc <= sched.tol for inc in block):
            break
    out = {s: LatticeState(x0, np.fft.ifft(avg[s], axis=0)) for s in sides}
    return out, incs


def test_outgoing_pair_matches_spinor_accumulation(one_defect_field):
    psi = LatticeState.point(0, (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)))
    sched = Schedule(n_max=256, tol=1e-6)
    pair, reports = outgoing_pair(psi, one_defect_field, sched)
    want, incs = spinor_accumulated_outgoing(psi, one_defect_field, sched)
    assert (pair.left - want["left"]).norm() < 1e-12
    assert (pair.right - want["right"]).norm() < 1e-12
    for side in ("left", "right"):
        assert np.allclose(reports[side].increments, incs[side], rtol=1e-12, atol=0.0)


def serial_outgoing(state, field, sched):
    """Frozen reference for ``outgoing_pair``: the loop that absorbed the
    two sides one after the other on the calling thread, one FFT of a
    freshly zeroed window per step and side.

    Its arithmetic is the library's, operation for operation (the branch
    transforms are written out), so the results must agree bit for bit.
    Returns the outgoing states and increments of the a.c. sides.
    """
    sides = [s for s in ("left", "right") if field.asymptotic(s).a > 0.0]
    n_max = sched.n_max
    size = 1 << max(state.hi - state.lo + 4 * n_max + 256 - 1, 1).bit_length()
    x0 = state.lo - 2 * n_max - 128
    k = 2.0 * math.pi * np.arange(size) / size
    lam_conj, u, powers, acc, snap, avg, incs = {}, {}, {}, {}, {}, {}, {}
    for s in sides:
        lam, u[s] = free_model(field, s).eigensystem(k)  # u: (W, 2, 2), branch first
        lam_conj[s], powers[s] = lam.conj(), np.ones_like(lam)
        acc[s] = np.zeros((size, 2), dtype=complex)
        snap[s], avg[s], incs[s] = np.zeros_like(acc[s]), None, []
    ev = Evolution(state, field, n_max)
    ybuf = np.zeros((size, 2), dtype=complex)
    prev_cp = 0
    for cp in sched.checkpoints():
        for n in range(prev_cp + 1, cp + 1):
            ev.step()
            view, g0, g1 = ev.values_view(), ev.lo - x0, ev.hi - x0
            for s in sides:
                a0, a1 = (g0, min(g1, -x0)) if s == "left" else (max(g0, -x0), g1)
                ybuf[:] = 0.0
                if a0 < a1:
                    ybuf[a0:a1] = view[a0 - g0 : a1 - g0]
                yhat = np.fft.fft(ybuf, axis=0)
                powers[s] *= lam_conj[s]
                if n % 1024 == 0:
                    powers[s] /= np.abs(powers[s])
                uc = u[s].conj()
                acc[s] += powers[s] * (uc[..., 0] * yhat[:, None, 0] + uc[..., 1] * yhat[:, None, 1])
        for s in sides:
            new = (acc[s] - snap[s]) / (cp - prev_cp)
            np.copyto(snap[s], acc[s])
            if avg[s] is not None:
                incs[s].append(float(np.linalg.norm(new - avg[s])) / math.sqrt(size))
            avg[s] = new
        prev_cp = cp
        if all(incs[s] and incs[s][-1] <= sched.tol for s in sides):
            break
    out = {}
    for s in sides:
        spinor = avg[s][:, 0, None] * u[s][:, 0, :] + avg[s][:, 1, None] * u[s][:, 1, :]
        out[s] = LatticeState(x0, np.fft.ifft(spinor, axis=0)).trimmed(1e-15)
    return out, incs


def tailed_field(both: bool) -> CoinField:
    """Two-phase field 0.8 / 0.6 with a power-law tail on the right, or on both sides."""
    fld = two_phase_field(0.8, 0.6)
    tail = TailRule(0.4, 1.0)
    return CoinField(left=fld.left, right=fld.right, tail_left=tail if both else None, tail_right=tail)


def outgoing_fields(one_defect_field):
    return {
        "one_defect": one_defect_field,
        "hadamard": CoinField(left=hadamard_coin(), right=hadamard_coin()),
        "one_reflecting_side": CoinField(left=hadamard_coin(), right=reflecting_coin()),
        "tails": tailed_field(both=True),
        "one_sided_tail": tailed_field(both=False),
    }


@pytest.mark.parametrize(
    "case, n_max, sides",
    [
        pytest.param("tails", 256, ("left", "right"), id="tails-256"),
        pytest.param("one_sided_tail", 256, ("right",), id="one_sided_tail-256"),  # the left side telescopes
    ],
)
def test_outgoing_pair_is_bit_identical_to_the_serial_loop(rng, one_defect_field, case, n_max, sides):
    # a side with a tail rule transforms its window after every step, as the serial loop did
    fld = outgoing_fields(one_defect_field)[case]
    psi = random_state(rng, -1, 2)
    sched = Schedule(n_max=n_max, tol=1e-6)
    pair, reports = outgoing_pair(psi, fld, sched)
    want, incs = serial_outgoing(psi, fld, sched)
    assert reports["right"].final_n == n_max  # no early stop: every step is compared
    for side in sides:
        got, ref = getattr(pair, side), want[side]
        assert got.lo == ref.lo
        assert got.amp.tobytes() == ref.amp.tobytes()
        assert np.array(reports[side].increments).tobytes() == np.array(incs[side]).tobytes()


@pytest.mark.parametrize(
    "case, n_max, sides",
    [
        pytest.param("one_defect", 256, ("left", "right"), id="one_defect-256"),  # 2,048-site window
        pytest.param("hadamard", 1024, ("left", "right"), id="hadamard-1024"),  # 8,192 sites
        pytest.param("one_reflecting_side", 256, ("left",), id="one_reflecting_side-256"),
        pytest.param("one_sided_tail", 256, ("left",), id="one_sided_tail-256"),  # the right side transforms
    ],
)
def test_telescoped_sides_match_the_serial_loop(rng, one_defect_field, case, n_max, sides):
    # Cook increments summed on a few sites give the serial loop's states
    # up to the roundoff of the two summation orders
    fld = outgoing_fields(one_defect_field)[case]
    psi = random_state(rng, -1, 2)
    sched = Schedule(n_max=n_max, tol=1e-6)
    pair, reports = outgoing_pair(psi, fld, sched)
    want, incs = serial_outgoing(psi, fld, sched)
    assert reports["left"].final_n == n_max
    for side in sides:
        assert (getattr(pair, side) - want[side]).norm() <= 1e-12
        np.testing.assert_allclose(reports[side].increments, incs[side], rtol=1e-12, atol=0.0)
    if case == "one_reflecting_side":
        assert pair.right.norm() == 0.0 and reports["right"].checkpoints == []


def test_outgoing_states_keep_their_physical_support(rng, hadamard_field):
    # The telescoped sums carry no per-step transform roundoff across the
    # window, so the 1e-15 trim keeps the light cone of speed a, not the window
    n_max = 1024
    pair, _ = outgoing_pair(random_state(rng, -1, 2), hadamard_field, Schedule(n_max=n_max, tol=1e-6))
    bound = 2 * hadamard_coin().a * n_max + 256
    for side in (pair.left, pair.right):
        assert side.norm() > 0.1
        assert side.hi - side.lo <= bound


def test_outgoing_pair_transforms_only_the_tailed_sides(monkeypatch, rng, one_defect_field):
    calls = []
    fft = np.fft.fft

    def counting(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    psi = random_state(rng, -1, 2)
    for fld, tailed in ((one_defect_field, 0), (tailed_field(both=False), 1), (tailed_field(both=True), 2)):
        counts = []
        for n_max in (64, 128):
            calls.clear()
            _, reports = outgoing_pair(psi, fld, Schedule(n_max=n_max, tol=1e-300))
            assert reports["left"].final_n == n_max
            counts.append(len(calls))
        # one transform of 1_star psi per telescoped side, one per step per tailed side
        assert counts == [2 - tailed + tailed * n for n in (64, 128)]


def test_outgoing_pair_zeroes_reflecting_side(rng):
    fld = CoinField(left=reflecting_coin(), right=hadamard_coin())
    psi = random_state(rng)
    pair, reports = outgoing_pair(psi, fld, Schedule(n_max=64, tol=1e-3))
    assert pair.left.norm() == 0.0
    assert reports["left"].checkpoints == []


def test_outgoing_pair_respects_window_cap(rng):
    coin = hadamard_coin()
    fld = CoinField(left=coin, right=coin)
    psi = random_state(rng)
    with pytest.raises(ResourceLimitError):
        outgoing_pair(psi, fld, Schedule(n_max=1 << 18))
