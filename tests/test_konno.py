"""Limit density, momentum inversion and the velocity-space translators.

Normalization and second moments are checked against closed forms
evaluated through an independent trapezoid rule; the K operators are
checked through their algebraic identities.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_coin, random_state
from qwscatter import (
    CoinMatrix,
    DomainError,
    FreeModel,
    LatticeState,
    apply_K,
    compose_K_adjoint,
    gauss_legendre,
    hadamard_coin,
    k_interval,
    k_map,
    k_map_derivative,
    konno_density,
    velocity_grid,
    wrap_angle,
)
from qwscatter.konno import apply_K_adjoint, in_k_interval
from qwscatter.scattering import free_evolve


def speed_model(r):
    """A free walk whose speed bound is r."""
    return FreeModel(CoinMatrix(r, math.sqrt(1.0 - r * r), 0.0, 0.0, 0.0))


def test_density_value_at_zero_frozen():
    # sqrt(1 - 1/2) / (pi * 1 * sqrt(1/2)) = 1/pi
    r = 1.0 / math.sqrt(2.0)
    assert konno_density(np.array(0.0), r) == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_density_support_symmetry_and_degenerate_bounds():
    v = np.linspace(-1.0, 1.0, 1001)
    f = konno_density(v, 0.6)
    assert np.all(f >= 0.0)
    assert np.all(f[np.abs(v) >= 0.6] == 0.0)
    assert np.allclose(f, f[::-1], atol=1e-15)
    assert np.all(konno_density(v, 0.0) == 0.0)
    assert np.all(konno_density(v, 1.0) == 0.0)
    with pytest.raises(DomainError):
        konno_density(v, 1.5)


@pytest.mark.parametrize("r", [0.2, 1.0 / math.sqrt(2.0), 0.95])
def test_density_normalization_by_substitution(r):
    # integrate f(r sin t) r cos t dt with an open midpoint rule; the
    # substitution removes the edge singularities of the density itself
    edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 400001)
    mid = 0.5 * (edges[:-1] + edges[1:])
    h = edges[1] - edges[0]
    total = float(np.sum(konno_density(r * np.sin(mid), r) * r * np.cos(mid)) * h)
    assert abs(total - 1.0) < 1e-8


@pytest.mark.parametrize("r", [0.2, 1.0 / math.sqrt(2.0), 0.95])
def test_second_moment_closed_form(r):
    # E[V^2] = 1 - sqrt(1 - r^2)
    grid = velocity_grid(speed_model(r), gauss_legendre(513))
    second = 2.0 * float(np.sum(grid.weight * grid.v**2))
    assert abs(second - (1.0 - math.sqrt(1.0 - r * r))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 65, 129, 513, 2049])
def test_gauss_legendre_rule(n):
    x, w = gauss_legendre(n)
    ref_x, _ = np.polynomial.legendre.leggauss(n)
    # leggauss's weights are not compared: near the endpoints they are
    # off by 7e-8 relative at n = 2049 (an mpmath check puts the Newton
    # weights within 4e-12 there), so only its nodes serve as a reference
    assert np.max(np.abs(x - ref_x)) < 1e-14
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) < 1e-14
    for j in range(min(n - 1, 40) + 1):
        assert abs(np.sum(w * x ** (2 * j)) - 2.0 / (2 * j + 1)) < 1e-14


def test_gauss_legendre_is_built_once_per_size():
    x, w = gauss_legendre(129)
    again = gauss_legendre(129)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    assert gauss_legendre(65)[0] is not x


def test_velocity_grid_masses_and_ranges():
    for side, mass in (("full", 0.5), ("neg", 0.25), ("pos", 0.25)):
        grid = velocity_grid(speed_model(0.7), gauss_legendre(257), side)
        assert grid.weight.sum() == pytest.approx(mass, abs=1e-12)
        assert np.all(grid.weight > 0.0)
        assert np.all(np.abs(grid.v) < 0.7)
        if side == "neg":
            assert np.all(grid.v < 0.0)
        if side == "pos":
            assert np.all(grid.v > 0.0)
    with pytest.raises(DomainError):
        velocity_grid(speed_model(0.0), gauss_legendre(3))
    with pytest.raises(DomainError):
        velocity_grid(speed_model(0.5), gauss_legendre(3), side="both")
    for points in (1, 0, -5):
        with pytest.raises(DomainError):
            gauss_legendre(points)


def test_k_intervals_tile_the_circle(rng):
    model = FreeModel(random_coin(rng))
    lo0, hi0 = k_interval(model, 0)
    assert hi0 - lo0 == pytest.approx(math.pi)
    ks = rng.uniform(-10.0, 10.0, size=400)
    m0 = in_k_interval(model, 0, ks)
    m1 = in_k_interval(model, 1, ks)
    assert np.all(m0 ^ m1)


def test_k_map_lands_in_its_interval(rng):
    for _ in range(5):
        model = FreeModel(random_coin(rng))
        grid = velocity_grid(model, gauss_legendre(65))
        for j in (0, 1):
            for m in (0, 1):
                k = k_map(model, j, m, grid.v)
                assert np.all(in_k_interval(model, m, k))
                assert np.all((0.0 <= k) & (k < 2.0 * math.pi))


def test_k_map_inverts_the_velocity(rng):
    for _ in range(5):
        model = FreeModel(random_coin(rng))
        grid = velocity_grid(model, gauss_legendre(129))
        for j in (0, 1):
            for m in (0, 1):
                k = k_map(model, j, m, grid.v)
                back = model.velocity(k)[:, j]
                assert np.abs(back - grid.v).max() < 1e-12


def test_velocity_inverts_the_k_map(rng):
    for _ in range(5):
        model = FreeModel(random_coin(rng, a_range=(0.15, 0.9)))
        for m in (0, 1):
            lo, hi = k_interval(model, m)
            ks = np.linspace(lo + 1e-4, hi - 1e-4, 101)
            v = model.velocity(ks)
            for j in (0, 1):
                back = k_map(model, j, m, v[:, j])
                diff = np.array([wrap_angle(d) for d in back - ks])
                assert np.abs(diff).max() < 1e-10


def test_k_map_derivative_identities(rng):
    h = 1e-6
    for _ in range(5):
        model = FreeModel(random_coin(rng, a_range=(0.2, 0.9)))
        a = model.a
        v = np.linspace(-0.9 * a, 0.9 * a, 41)
        for j in (0, 1):
            for m in (0, 1):
                d = k_map_derivative(model, j, m, v)
                fd = (
                    k_map(model, j, m, v + h, reduce=False)
                    - k_map(model, j, m, v - h, reduce=False)
                ) / (2.0 * h)
                assert np.abs(d - fd).max() < 1e-5
                sign = -1.0 if (j + m) % 2 == 0 else 1.0
                assert np.allclose(d, sign * math.pi * konno_density(v, a), atol=1e-12)


def test_k_map_domain_errors():
    model = FreeModel(hadamard_coin())
    with pytest.raises(DomainError):
        k_map(model, 0, 0, np.array([0.8]))  # beyond the speed bound
    with pytest.raises(DomainError):
        k_map(model, 2, 0, np.array([0.1]))
    with pytest.raises(DomainError):
        k_map(model, 0, 3, np.array([0.1]))
    with pytest.raises(DomainError):
        k_map(model, 0, 0, np.array([model.a]))  # exactly at the band edge
    degenerate = FreeModel(type(hadamard_coin())(1.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        k_map(degenerate, 0, 0, np.array([0.1]))


def test_apply_K_adjoint_pairing_is_exact(rng):
    # the quadrature adjoint pairs exactly against states supported in
    # the window, whatever the grid resolution
    model = FreeModel(random_coin(rng, a_range=(0.2, 0.9)))
    grid = velocity_grid(model, gauss_legendre(97))
    psi = random_state(rng, -9, 10)
    g = rng.standard_normal(grid.v.shape) + 1j * rng.standard_normal(grid.v.shape)
    for j in (0, 1):
        for m in (0, 1):
            lhs = apply_K_adjoint(g, model, j, m, grid, (psi.lo, psi.hi)).inner(psi)
            rhs = np.sum(grid.weight * np.conj(g) * apply_K(psi, model, j, m, grid))
            assert abs(lhs - rhs) < 1e-12


def test_adjoint_window_round_trip_converges_slowly():
    # the materialized adjoint has 1/|x| tails, so the round trip
    # through a position window converges only like the square root of
    # the width; the closed-form composition exists for this reason
    model = FreeModel(hadamard_coin())
    errs = []
    for pts, half in ((2049, 240), (8193, 960)):
        grid = velocity_grid(model, gauss_legendre(pts))
        g = np.exp(-((grid.v / 0.3) ** 2)) * (1.0 + 0.5j * grid.v)
        st = apply_K_adjoint(g, model, 0, 0, grid, (-half, half))
        back = apply_K(st, model, 0, 0, grid)
        errs.append(math.sqrt(grid.norm_sq(back - g) / grid.norm_sq(g)))
    assert errs[1] < 0.6 * errs[0]
    assert errs[1] < 0.05


def test_translators_preserve_the_norm(rng):
    for _ in range(10):
        model = FreeModel(random_coin(rng, a_range=(0.1, 0.9)))
        grid = velocity_grid(model, gauss_legendre(129))
        psi = random_state(rng, -12, 13)
        total = sum(
            grid.norm_sq(apply_K(psi, model, j, m, grid)) for j in (0, 1) for m in (0, 1)
        )
        assert abs(total - 1.0) < 1e-12


def test_translators_preserve_the_norm_at_bench_sizes(rng):
    # a 2049-node grid and a 4096-site window, as on the tails-fine
    # bench workload; random amplitudes on the middle 2048 sites keep
    # the quadrature exact, so the check sees the Fourier evaluation
    amp = np.zeros((4096, 2), dtype=complex)
    amp[1024:3072] = rng.standard_normal((2048, 2)) + 1j * rng.standard_normal((2048, 2))
    psi = LatticeState(-3000, amp / np.linalg.norm(amp))
    for a in (0.8, 0.6):
        model = FreeModel(CoinMatrix(a, math.sqrt(1.0 - a * a), 0.0, 0.0, math.pi))
        grid = velocity_grid(model, gauss_legendre(2049))
        total = sum(
            grid.norm_sq(apply_K(psi, model, j, m, grid)) for j in (0, 1) for m in (0, 1)
        )
        assert abs(total - 1.0) < 1e-12


def test_translators_diagonalize_the_free_step(rng):
    model = FreeModel(random_coin(rng, a_range=(0.2, 0.9)))
    fld_coin = model.coin
    grid = velocity_grid(model, gauss_legendre(129))
    psi = random_state(rng, -6, 7)
    stepped = free_evolve(psi, model, 1)
    for j in (0, 1):
        for m in (0, 1):
            k = k_map(model, j, m, grid.v)
            lam = model.eigenvalues(k)[:, j]
            lhs = apply_K(stepped, model, j, m, grid)
            rhs = lam * apply_K(psi, model, j, m, grid)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_composition_reproduces_matching_indices(rng):
    model = FreeModel(random_coin(rng, a_range=(0.2, 0.9)))
    grid = velocity_grid(model, gauss_legendre(129))
    g = np.exp(-((grid.v / 0.2) ** 2)) * (1.0 + 2.0j * grid.v)  # asymmetric on purpose
    for j in (0, 1):
        for m in (0, 1):
            out = compose_K_adjoint(model, j, m, j, m, g, grid)
            assert np.abs(out - g).max() < 1e-12


def test_composition_annihilates_mismatched_indices(rng):
    model = FreeModel(random_coin(rng, a_range=(0.2, 0.9)))
    grid = velocity_grid(model, gauss_legendre(129))
    g = np.exp(-((grid.v / 0.2) ** 2)) * (1.0 + 2.0j * grid.v)
    pairs = [(j, m) for j in (0, 1) for m in (0, 1)]
    for jo, mo in pairs:
        for ji, mi in pairs:
            if (jo, mo) == (ji, mi):
                continue
            out = compose_K_adjoint(model, jo, mo, ji, mi, g, grid)
            assert np.abs(out).max() < 1e-12


def test_composition_validates_inputs(rng):
    model = FreeModel(hadamard_coin())
    grid_pos = velocity_grid(model, gauss_legendre(65), "pos")
    g = np.ones_like(grid_pos.v)
    with pytest.raises(DomainError):
        compose_K_adjoint(model, 0, 0, 1, 0, g, grid_pos)  # cross branch needs full
    with pytest.raises(DomainError):
        compose_K_adjoint(model, 0, 0, 0, 0, g[:-1], grid_pos)
    out = compose_K_adjoint(model, 0, 0, 0, 0, g, grid_pos)
    assert np.abs(out - g).max() < 1e-12
