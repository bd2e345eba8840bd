"""Fourier analysis of the homogeneous walk.

Eigensystems are compared against numpy's generic eigensolver and the
group velocity against a finite difference of the eigenvalue phase, so
the closed forms never certify themselves.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_coin
from qwscatter import (
    CoinField,
    CoinMatrix,
    FreeModel,
    LatticeState,
    branch_packet,
    evolve,
    hadamard_coin,
    velocity_projection,
)
from qwscatter.momentum import from_branches, spectrum_arcs, to_branches
from qwscatter.scattering import free_evolve


def interval(lo, hi):
    """The half-open velocity window [lo, hi) as a projection predicate."""
    return lambda v: (v >= lo) & (v < hi)


def test_symbol_is_unitary_and_has_coin_determinant(rng):
    model = FreeModel(random_coin(rng))
    ks = rng.uniform(-np.pi, np.pi, size=11)
    sym = model.symbol(ks)
    for m in sym:
        assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-12
    det = np.linalg.det(sym)
    assert np.allclose(det, np.exp(1j * model.coin.delta), atol=1e-12)


def test_eigensystem_solves_the_symbol(rng):
    for _ in range(10):
        model = FreeModel(random_coin(rng))
        ks = rng.uniform(0.0, 2.0 * np.pi, size=64)
        sym = model.symbol(ks)
        lam, vec = model.eigensystem(ks)
        assert np.allclose(np.abs(lam), 1.0, atol=1e-12)
        for j in (0, 1):
            resid = np.einsum("kab,kb->ka", sym, vec[:, j, :]) - lam[:, j, None] * vec[:, j, :]
            assert np.abs(resid).max() < 1e-10
            norms = np.sum(np.abs(vec[:, j, :]) ** 2, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-12)
        # branches exhaust the spectrum computed independently
        ref = np.sort_complex(np.linalg.eigvals(sym))
        got = np.sort_complex(lam)
        assert np.abs(ref - got).max() < 1e-10


def test_eigenvector_gauge_largest_component_real_positive(rng):
    model = FreeModel(random_coin(rng))
    ks = rng.uniform(0.0, 2.0 * np.pi, size=32)
    _, vec = model.eigensystem(ks)
    for j in (0, 1):
        u = vec[:, j, :]
        big = np.where(np.abs(u[:, 0]) >= math.sqrt(0.5), u[:, 0], u[:, 1])
        assert np.abs(big.imag).max() < 1e-12
        assert big.real.min() > 0.0


def test_velocity_matches_phase_derivative(rng):
    h = 1e-6
    for _ in range(10):
        model = FreeModel(random_coin(rng, a_range=(0.1, 0.9)))
        ks = rng.uniform(0.0, 2.0 * np.pi, size=128)
        v = model.velocity(ks)
        lam_p = model.eigenvalues(ks + h)
        lam_m = model.eigenvalues(ks - h)
        lam_0 = model.eigenvalues(ks)
        # -d(arg lambda)/dk without phase unwrapping issues
        fd = -np.imag((lam_p - lam_m) / (2.0 * h) / lam_0)
        assert np.abs(v - fd).max() < 1e-7


def test_velocity_bound_is_attained(rng):
    coin = random_coin(rng, a_range=(0.2, 0.95))
    model = FreeModel(coin)
    ks = np.linspace(0.0, 2.0 * np.pi, 20001)
    v = model.velocity(ks)
    assert np.abs(v).max() <= coin.a + 1e-12
    assert np.abs(v).max() > coin.a - 1e-6


def test_velocities_of_the_two_branches_are_opposite(rng):
    model = FreeModel(random_coin(rng))
    ks = rng.uniform(0.0, 2.0 * np.pi, size=16)
    v = model.velocity(ks)
    assert np.allclose(v[:, 0], -v[:, 1], atol=1e-14)


def test_diagonal_coin_is_strictly_ballistic():
    coin = CoinMatrix(1.0, 0.0, 0.4, 0.0, 1.3)
    model = FreeModel(coin)
    ks = np.linspace(0.0, 2.0 * np.pi, 9)
    v = model.velocity(ks)
    assert np.all(v[:, 0] == -1.0) and np.all(v[:, 1] == 1.0)
    lam, vec = model.eigensystem(ks)
    assert np.allclose(vec[:, 0, :], [1.0, 0.0], atol=1e-15)
    assert np.allclose(vec[:, 1, :], [0.0, 1.0], atol=1e-15)
    phi = ks + coin.alpha - 0.5 * coin.delta
    assert np.allclose(lam[:, 0], np.exp(1j * (0.5 * coin.delta + phi)), atol=1e-12)


def test_reflecting_coin_has_flat_bands():
    coin = CoinMatrix(0.0, 1.0, 0.0, 0.2, 0.9)
    model = FreeModel(coin)
    ks = np.linspace(0.0, 2.0 * np.pi, 9)
    assert np.all(model.velocity(ks) == 0.0)
    lam = model.eigenvalues(ks)
    expected = {1j * np.exp(0.5j * coin.delta), -1j * np.exp(0.5j * coin.delta)}
    for row in lam:
        assert min(abs(row[0] - e) for e in expected) < 1e-12
        assert min(abs(row[1] - e) for e in expected) < 1e-12


def test_spectral_decomposition_reconstructs_symbol(rng):
    model = FreeModel(random_coin(rng))
    ks = rng.uniform(0.0, 2.0 * np.pi, size=16)
    sym = model.symbol(ks)
    lam, vec = model.eigensystem(ks)
    rebuilt = np.zeros_like(sym)
    for j in (0, 1):
        proj = np.einsum("ka,kb->kab", vec[:, j, :], vec[:, j, :].conj())
        rebuilt += lam[:, j, None, None] * proj
    assert np.abs(rebuilt - sym).max() < 1e-10


@pytest.mark.parametrize("diagonal", [False, True], ids=["random", "a1"])
def test_branch_kernel_matches_eig_projectors(rng, diagonal):
    for _ in range(5):
        coin = random_coin(rng)
        if diagonal:
            coin = CoinMatrix(1.0, 0.0, coin.alpha, 0.0, coin.delta)
        model = FreeModel(coin)
        ks = 2.0 * np.pi * np.arange(64) / 64
        hat = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
        _, vec = model.eigensystem(ks)
        amp = to_branches(vec.conj(), hat)
        assert amp.shape == (64, 2)
        assert abs(np.linalg.norm(amp) - np.linalg.norm(hat)) < 1e-13 * np.linalg.norm(hat)
        assert np.abs(from_branches(vec, amp) - hat).max() < 1e-13
        # each branch alone is the rank-one eig projector, free of gauge
        w, v = np.linalg.eig(model.symbol(ks))
        for j in (0, 1):
            keep = np.zeros((64, 2))
            keep[:, j] = 1.0
            got = from_branches(vec, keep * amp)
            for i in range(64):
                col = v[i][:, np.argmax(np.abs(v[i].conj().T @ vec[i, j]))]
                col = col / np.linalg.norm(col)
                want = col * (col.conj() @ hat[i])
                assert np.abs(got[i] - want).max() < 1e-12


def test_spectrum_arcs_hadamard_thresholds_frozen():
    arcs = spectrum_arcs(FreeModel(hadamard_coin()))
    assert not arcs.is_pure_point
    expected = {
        np.exp(1j * np.pi / 4),
        np.exp(3j * np.pi / 4),
        np.exp(-1j * np.pi / 4),
        np.exp(-3j * np.pi / 4),
    }
    assert len(arcs.thresholds) == 4
    for t in arcs.thresholds:
        assert min(abs(t - e) for e in expected) < 1e-12
    total = sum(hi - lo for lo, hi in arcs.arcs)
    assert total == pytest.approx(2.0 * (np.pi - 2.0 * math.acos(1.0 / math.sqrt(2.0))))


def test_spectrum_arcs_degenerate_cases():
    refl = spectrum_arcs(FreeModel(CoinMatrix(0.0, 1.0, 0.0, 0.0, 0.8)))
    assert refl.is_pure_point and refl.arcs == ()
    assert len(refl.eigenvalues) == 2
    ball = spectrum_arcs(FreeModel(CoinMatrix(1.0, 0.0, 0.0, 0.0, 0.8)))
    assert ball.arcs == ((-math.pi, math.pi),) and not ball.is_pure_point


def test_spectrum_arcs_contain_the_eigenvalues(rng):
    coin = random_coin(rng)
    model = FreeModel(coin)
    arcs = spectrum_arcs(model)
    lam = model.eigenvalues(np.linspace(0.0, 2.0 * np.pi, 257))
    angles = np.angle(lam).ravel()
    for ang in angles:
        inside = any(
            lo - 1e-9 <= ang <= hi + 1e-9 or lo - 1e-9 <= ang + 2.0 * np.pi <= hi + 1e-9
            for lo, hi in arcs.arcs
        )
        assert inside


def test_velocity_projection_splits_and_projects(rng):
    model = FreeModel(hadamard_coin())
    state = branch_packet(model, 0, k0=1.0, sigma_k=0.15, size=1024)
    size = 4096
    neg = velocity_projection(state, model, lambda v: v < 0.0, dft_size=size)
    pos = velocity_projection(state, model, lambda v: v >= 0.0, dft_size=size)
    assert ((neg + pos) - state).norm() < 1e-10
    again = velocity_projection(neg, model, lambda v: v < 0.0, dft_size=size)
    assert (again - neg).norm() < 1e-10
    # orthogonality and self-adjointness on a second state
    other = branch_packet(model, 1, k0=0.3, sigma_k=0.2, size=1024)
    neg_o = velocity_projection(other, model, lambda v: v < 0.0, dft_size=size)
    assert abs(neg.inner(other) - neg.inner(neg_o)) < 1e-10
    assert abs(pos.inner(neg_o)) < 1e-10


def test_velocity_projection_decides_the_signed_zero_velocities():
    # at k = pi/2 the Hadamard branches move at exactly -0.0 and +0.0 on
    # every power-of-two grid; v > 0 and v < 0 both drop that mode pair,
    # v >= 0 keeps it, which a half-open interval (0, 1) cannot express
    model = FreeModel(hadamard_coin())
    for size in (64, 1024, 1 << 14):
        k = 2.0 * math.pi * np.arange(size) / size
        v = model.velocity(k)[size // 4]
        assert v.tolist() == [0.0, 0.0] and np.signbit(v).tolist() == [True, False]
        _, vec = model.eigensystem(k[size // 4])
        hat = np.zeros((size, 2), dtype=complex)
        hat[size // 4] = vec[0] + 1j * vec[1]
        state = LatticeState(0, np.fft.ifft(hat, axis=0)).normalized()
        for drop in (lambda v: v > 0.0, lambda v: v < 0.0):
            assert velocity_projection(state, model, drop, dft_size=size).norm() < 1e-12
        kept = velocity_projection(state, model, lambda v: v >= 0.0, dft_size=size)
        assert (kept - state).norm() < 1e-12


def test_velocity_projection_commutes_with_free_steps():
    # two packets on opposite sides of the cut, both well away from it
    model = FreeModel(hadamard_coin())
    fld = CoinField(left=model.coin, right=model.coin)
    up = branch_packet(model, 0, k0=math.pi, sigma_k=0.06, size=1024)
    down = branch_packet(model, 1, k0=math.pi, sigma_k=0.06, size=1024)
    assert model.velocity(math.pi)[0] < -0.2 and model.velocity(math.pi)[1] > 0.2
    state = ((up + down) * (1.0 / math.sqrt(2.0))).trimmed(1e-14)
    size = 8192
    stepped = evolve(state, fld, 5)
    a = velocity_projection(stepped, model, interval(0.0, 1.0), dft_size=size)
    b = evolve(velocity_projection(state, model, interval(0.0, 1.0), dft_size=size), fld, 5)
    assert (a - b).norm() < 1e-9
    assert a.norm_sq() == pytest.approx(0.5, abs=1e-9)


def test_velocity_projection_interval_window(rng):
    model = FreeModel(hadamard_coin())
    state = branch_packet(model, 0, k0=2.0, sigma_k=0.1)
    inside = velocity_projection(state, model, interval(-1.0, 1.0))
    assert (inside - state).norm() < 1e-9


def test_branch_packet_moves_at_its_group_velocity():
    model = FreeModel(hadamard_coin())
    k0, n = 1.2, 300
    v = model.velocity(k0)
    packet = branch_packet(model, 1, k0=k0, sigma_k=0.08)
    moved = free_evolve(packet, model, n)
    xs, probs = moved.position_distribution()
    mean = float(np.sum(xs * probs))
    assert abs(mean - n * v[1]) < 3.0
    assert moved.norm() == pytest.approx(1.0, abs=1e-12)


def test_branch_packet_velocity_content_is_concentrated():
    model = FreeModel(hadamard_coin())
    k0 = 1.2
    v0 = model.velocity(k0)[1]
    packet = branch_packet(model, 1, k0=k0, sigma_k=0.05)
    assert abs(v0) > 0.25  # the window below and its mirror image are disjoint
    kept = velocity_projection(packet, model, interval(v0 - 0.25, v0 + 0.25))
    assert kept.norm_sq() == pytest.approx(1.0, abs=1e-6)
    # branch 0 near k0 moves at -v0: the packet has no content there
    other = velocity_projection(packet, model, interval(-v0 - 0.25, -v0 + 0.25))
    assert other.norm_sq() < 1e-10
