"""States on the line and exact windowed evolution.

The evolution kernel is checked against an explicitly assembled step
matrix on a window wide enough that nothing reaches the open boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import dense_step_matrix, dense_to_state, random_coin, random_state, state_to_dense
from qwscatter import (
    CoinField,
    CoinMatrix,
    DomainError,
    LatticeState,
    ResourceLimitError,
    evolve,
    hadamard_coin,
)
from qwscatter.lattice import Evolution, fourier_at, fourier_at_adjoint


def test_point_state_and_entries():
    p = LatticeState.point(3, (1.0, 0.0))
    assert p.lo == 3 and p.hi == 4
    assert p.norm() == pytest.approx(1.0)
    s = LatticeState.from_entries({-2: (1.0, 0.0), 5: (0.0, 1j)})
    assert s.lo == -2 and s.hi == 6
    vals = s.values_on(-2, 6)
    assert vals[0, 0] == 1.0 and vals[-1, 1] == 1j
    assert np.all(vals[1:-1] == 0.0)
    z = LatticeState.zero(-1, 4)
    assert z.norm() == 0.0


def test_state_rejects_non_finite_amplitudes():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(DomainError):
            LatticeState(0, np.array([[bad, 0.0]]))
        with pytest.raises(DomainError):
            LatticeState.from_entries({0: (1.0, 0.0), 3: (0.0, bad)})


def test_values_on_pads_with_zeros(rng):
    s = random_state(rng, -3, 4)
    vals = s.values_on(-10, 10)
    assert vals.shape == (20, 2)
    assert np.all(vals[:7] == 0.0) and np.all(vals[-6:] == 0.0)
    assert np.allclose(vals[7:11], s.amp[:4])


def test_trimmed_drops_zero_margins():
    amp = np.zeros((7, 2), dtype=complex)
    amp[2, 0] = 1e-3
    amp[4, 1] = 1.0
    s = LatticeState(offset=-3, amp=amp)
    t = s.trimmed(1e-6)
    assert (t.lo, t.hi) == (-1, 2)
    tt = s.trimmed(1e-2)
    assert (tt.lo, tt.hi) == (1, 2)


def test_algebra_aligns_windows(rng):
    x = random_state(rng, -5, 2)
    y = random_state(rng, 0, 7)
    z = x + 2.0 * y
    for site in range(-5, 7):
        expect = x.values_on(site, site + 1)[0] + 2.0 * y.values_on(site, site + 1)[0]
        assert np.allclose(z.values_on(site, site + 1)[0], expect, atol=1e-15)
    d = (x - x).norm()
    assert d == 0.0
    assert np.allclose((-x).amp, -(x.amp))
    assert (0.5 * x).norm() == pytest.approx(0.5 * x.norm())


def test_inner_product_conjugate_linear(rng):
    x, y = random_state(rng), random_state(rng)
    ip = x.inner(y)
    assert np.conj(y.inner(x)) == pytest.approx(ip)
    assert x.inner(x).real == pytest.approx(x.norm_sq())
    assert x.inner(1j * y) == pytest.approx(1j * ip)


def test_component_and_restriction(rng):
    s = random_state(rng, -4, 5)
    c0, c1 = s.component(0), s.component(1)
    assert c0.norm_sq() + c1.norm_sq() == pytest.approx(s.norm_sq())
    left, right = s.restricted("left"), s.restricted("right")
    assert left.norm_sq() + right.norm_sq() == pytest.approx(s.norm_sq())
    assert left.trimmed().hi <= 0 and right.trimmed().lo >= 0
    assert (left + right - s).norm() < 1e-15
    with pytest.raises(DomainError):
        s.restricted("middle")


def test_shift_moves_components_oppositely():
    # under the identity coin one step of U = S C is the bare shift S
    identity = CoinMatrix(1, 0, 0, 0, 0)
    fld = CoinField(left=identity, right=identity)
    s = LatticeState.point(0, (1.0, 1.0))
    shifted = evolve(s, fld, 1)
    assert np.allclose(shifted.values_on(-1, 0)[0], (1.0, 0.0))
    assert np.allclose(shifted.values_on(1, 2)[0], (0.0, 1.0))
    assert np.allclose(shifted.values_on(0, 1)[0], (0.0, 0.0))
    back = evolve(shifted, fld, -1)
    assert (back - s).norm() < 1e-15


def test_evolve_matches_dense_step_matrix(rng):
    fld = CoinField(
        left=random_coin(rng),
        right=random_coin(rng),
        overrides={0: hadamard_coin().matrix(), 2: random_coin(rng).matrix()},
    )
    s = random_state(rng, -6, 7)
    lo, hi = -40, 40
    mat = dense_step_matrix(fld, lo, hi)
    vec = state_to_dense(s, lo, hi)
    steps = 12
    expected = dense_to_state(np.linalg.matrix_power(mat, steps) @ vec, lo)
    got = evolve(s, fld, steps)
    assert (got - expected).norm() < 1e-12


def test_inverse_evolve_matches_adjoint_matrix(rng):
    fld = CoinField(left=random_coin(rng), right=random_coin(rng))
    s = random_state(rng, -4, 5)
    lo, hi = -30, 30
    mat = dense_step_matrix(fld, lo, hi)
    vec = state_to_dense(s, lo, hi)
    expected = dense_to_state(np.linalg.matrix_power(mat.conj().T, 7) @ vec, lo)
    got = evolve(s, fld, -7)
    assert (got - expected).norm() < 1e-12


def test_evolution_is_unitary_and_invertible(rng):
    fld = CoinField(left=random_coin(rng), right=random_coin(rng))
    s = random_state(rng)
    forward = evolve(s, fld, 25)
    assert forward.norm() == pytest.approx(s.norm(), abs=1e-13)
    back = evolve(forward, fld, -25)
    assert (back - s).norm() < 1e-12


def test_evolution_object_steps_incrementally(rng):
    fld = CoinField(left=random_coin(rng), right=random_coin(rng))
    s = random_state(rng)
    ev = Evolution(s, fld, max_steps=10)
    ev.step(4)
    mid = ev.state
    assert (mid - evolve(s, fld, 4)).norm() < 1e-13
    ev.step()
    assert (ev.state - evolve(s, fld, 5)).norm() < 1e-13
    with pytest.raises(DomainError):
        ev.step(6)  # only 10 were provisioned


def test_evolution_window_cap():
    s = LatticeState.point(0)
    fld = CoinField(left=hadamard_coin(), right=hadamard_coin())
    with pytest.raises(ResourceLimitError):
        Evolution(s, fld, max_steps=1 << 20)


def direct_sum(state, k):
    """Frozen oracle for fourier_at: sum_x exp(-i k x) psi(x) term by term.

    Each k is split as hi + (k - hi) with hi on a 2^-20 grid, so that
    hi * x is exact and the phases stay accurate far from the origin.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    hi = np.round(k * 2.0**20) * 2.0**-20
    x = state.sites
    phases = np.exp(-1j * np.outer(hi, x)) * np.exp(-1j * np.outer(k - hi, x))
    return phases @ state.amp


def nufft_momenta(rng, length):
    """Random momenta, the special points and points of the NUFFT's fine grid."""
    fine = max(1 << (2 * length - 1).bit_length(), 32)
    return np.concatenate(
        [
            rng.uniform(-4.0 * np.pi, 4.0 * np.pi, 64),
            [0.0, np.pi, -np.pi, 2.0 * np.pi, 4.0 * np.pi, -4.0 * np.pi],
            2.0 * np.pi * np.array([1, 2, fine // 3, fine - 1, -1, -fine // 2]) / fine,
        ]
    )


def test_fourier_at_matches_direct_sum(rng):
    for length in (1, 2, 17, 1024, 4097, 16384):
        amp = rng.standard_normal((length, 2)) + 1j * rng.standard_normal((length, 2))
        ks = nufft_momenta(rng, length)
        for lo in (0, -(length // 2), -(1 << 15) + 5):
            s = LatticeState(lo, amp)
            hat = fourier_at(s, ks)
            assert hat.shape == (ks.size, 2)
            err = np.max(np.abs(hat - direct_sum(s, ks)))
            assert err <= 1e-12 * np.abs(amp).sum(), (length, lo, err)
    hat = fourier_at(s, 0.3)  # a scalar momentum
    assert hat.shape == (1, 2)
    assert np.max(np.abs(hat - direct_sum(s, 0.3))) <= 1e-12 * np.abs(amp).sum()


def direct_adjoint_sum(values, k, lo, hi):
    """Frozen oracle for fourier_at_adjoint: sum_i exp(i k_i x) values_i term by term.

    The plane waves are summed directly, with the same exact phase split
    as :func:`direct_sum`.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    khi = np.round(k * 2.0**20) * 2.0**-20
    x = np.arange(lo, hi)
    phases = np.exp(1j * np.outer(x, khi)) * np.exp(1j * np.outer(x, k - khi))
    return phases @ values


def test_fourier_at_adjoint_matches_direct_sum(rng):
    # The kernel distances k - m h round to about 1e-16 |k|, and the
    # deconvolution amplifies that toward the window edges; fourier_at
    # shares the error.  At 16384 sites it is 2.6e-12 * sum |values|
    # here, so that window gets 5e-12.
    for length, tol in ((1, 1e-12), (2, 1e-12), (17, 1e-12), (1024, 1e-12), (4097, 1e-12), (16384, 5e-12)):
        ks = nufft_momenta(rng, length)
        values = rng.standard_normal((ks.size, 2)) + 1j * rng.standard_normal((ks.size, 2))
        for lo in (0, -(length // 2), -(1 << 15) + 5):
            st = fourier_at_adjoint(values, ks, lo, lo + length)
            assert (st.lo, st.hi) == (lo, lo + length)
            err = np.max(np.abs(st.amp - direct_adjoint_sum(values, ks, lo, lo + length)))
            assert err <= tol * np.abs(values).sum(), (length, lo, err)
            # the literal adjoint: <A* g, psi> = <g, A psi> to roundoff
            psi = LatticeState(lo, rng.standard_normal((length, 2)) + 1j * rng.standard_normal((length, 2)))
            lhs = st.inner(psi)
            rhs = np.sum(values.conj() * fourier_at(psi, ks))
            assert abs(lhs - rhs) <= 1e-13 * np.abs(values).sum() * np.abs(psi.amp).sum()
    with pytest.raises(DomainError):
        fourier_at_adjoint(values, ks, 3, 3)
    with pytest.raises(ResourceLimitError):
        fourier_at_adjoint(values, ks, 0, (1 << 20) + 1)


def test_position_distribution_and_localized_mass(rng):
    s = random_state(rng, -3, 4)
    xs, probs = s.position_distribution()
    assert xs.shape == probs.shape
    assert probs.sum() == pytest.approx(1.0)
    ev = Evolution(s, CoinField(left=hadamard_coin(), right=hadamard_coin()), max_steps=0)
    assert ev.localized_mass(100) == pytest.approx(1.0)
    assert ev.localized_mass(0) == pytest.approx(float(probs[xs == 0][0]))
    with pytest.raises(DomainError):
        ev.localized_mass(-1)  # used to read 0.0


@pytest.mark.parametrize("lo", [10, -20])
def test_localized_mass_of_a_state_outside_the_ball(rng, lo):
    # a state right of radius + max_steps + 1 must not wrap the buffer
    # slice around and read its own mass
    s = random_state(rng, lo, lo + 10)
    ev = Evolution(s, CoinField(left=hadamard_coin(), right=hadamard_coin()), max_steps=5)
    for _ in range(5):
        assert ev.localized_mass(0) == 0.0
        ev.step()
    assert ev.localized_mass(0) == 0.0


def test_characteristic_function_matches_direct_sum(rng):
    s = random_state(rng, -4, 4)
    xs = np.arange(s.lo, s.hi)
    probs = np.sum(np.abs(s.amp) ** 2, axis=1)
    n = 17.0
    direct = np.sum(probs * np.exp(1j * 2.0 * xs / n))
    assert s.characteristic_function(2.0, n) == pytest.approx(direct)
