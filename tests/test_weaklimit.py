"""Limit-law assembly: atoms, densities, moments, and the RAGE cross-check."""

import math

import numpy as np
import pytest

from conftest import two_phase_field
from qwscatter import (
    CoinField,
    CoinMatrix,
    ConvergenceError,
    DomainError,
    FreeModel,
    LatticeState,
    Schedule,
    compare_empirical,
    evolve,
    gauss_legendre,
    hadamard_coin,
    konno_density,
    limit_distribution,
    pure_point_mass,
    total_mass,
    velocity_grid,
)
from qwscatter import weaklimit
from qwscatter.scattering import outgoing_pair
from qwscatter.weaklimit import cdf, cf_limit, moment

SQRT2 = math.sqrt(2.0)
# E[V] = -(1 - 1/sqrt(2)) and E[V^2] = 1 - 1/sqrt(2) for the Hadamard
# walk started in delta_0 (x) (1, 0).
HAD_MOMENT = 1.0 - 1.0 / SQRT2
# bound-state mass of the one-defect field (sigma = +-pi/2) started in
# delta_0 (x) (1, 0); frozen from a dense periodic eigendecomposition.
DEFECT_KAPPA0 = SQRT2 - 1.0


@pytest.fixture(scope="module")
def had_field():
    return CoinField(left=hadamard_coin(), right=hadamard_coin())


@pytest.fixture(scope="module")
def had_dist(had_field):
    psi = LatticeState.point(0, (1.0, 0.0))
    return limit_distribution(psi, had_field, Schedule(n_max=512))


@pytest.fixture(scope="module")
def defect_field():
    r = 1.0 / SQRT2
    return CoinField(
        left=CoinMatrix(r, r, 0.0, -math.pi / 2, math.pi),
        right=CoinMatrix(r, r, 0.0, math.pi / 2, math.pi),
        overrides={0: np.diag([1.0, -1.0]).astype(complex)},
    )


@pytest.fixture(scope="module")
def defect_dist(defect_field):
    psi = LatticeState.point(0, (1.0, 0.0))
    return limit_distribution(psi, defect_field, Schedule(n_max=1024))


def test_hadamard_moments(had_dist):
    assert abs(total_mass(had_dist) - 1.0) < 1e-9
    assert abs(moment(had_dist, 1) + HAD_MOMENT) < 2e-4
    assert abs(moment(had_dist, 2) - HAD_MOMENT) < 2e-4
    # no bound states, only a finite-n residue at the origin
    assert had_dist.atom_origin < 0.02
    assert had_dist.atoms() == ((0.0, had_dist.atom_origin),)


def test_hadamard_densities_cover_both_sides(had_dist):
    for side in (had_dist.left, had_dist.right):
        assert side is not None
        assert np.all(side.values >= 0.0)
        assert side.mass() > 0.2
    assert np.all(had_dist.left.grid.v < 0.0)
    assert np.all(had_dist.right.grid.v > 0.0)
    assert np.max(np.abs(had_dist.left.grid.v)) < 1.0 / SQRT2


def test_hadamard_symmetric_state_has_zero_mean(had_field):
    psi = LatticeState.point(0, (1.0 / SQRT2, 1j / SQRT2))
    dist = limit_distribution(psi, had_field, Schedule(n_max=512))
    assert abs(moment(dist, 1)) < 2e-4


def test_defect_atom_matches_dense_diagonalization(defect_dist):
    assert abs(defect_dist.atom_origin - DEFECT_KAPPA0) < 5e-4
    assert defect_dist.atom_left == 0.0 and defect_dist.atom_right == 0.0


def test_defect_mass_budget(defect_dist):
    out = (
        defect_dist.reports["outgoing_norm_sq_left"]
        + defect_dist.reports["outgoing_norm_sq_right"]
    )
    # raw outgoing norms still carry ~5e-3 wrong-direction residue at
    # this depth (2e-5 at n_max=2048); the atom itself is much closer
    assert abs(defect_dist.atom_origin + out - 1.0) < 6e-3
    # point states converge like 1/n, far above the 1e-6 increment tol;
    # the report must say so while the tail-averaged masses are accurate
    for side in ("left", "right"):
        rep = defect_dist.reports[f"convergence_{side}"]
        assert not rep.converged
        assert all(b < a for a, b in zip(rep.increments, rep.increments[1:]))
        assert rep.increments[-1] < rep.increments[0] / 4.0


def test_defect_dark_state_escapes(defect_field):
    # delta_0 (x) (1, i)/sqrt(2) has no bound-state overlap at all
    psi = LatticeState.point(0, (1.0 / SQRT2, 1j / SQRT2))
    dist = limit_distribution(psi, defect_field, Schedule(n_max=1024))
    assert dist.atom_origin < 1e-3


def test_pure_point_mass_hadamard_near_zero(had_field):
    psi = LatticeState.point(0, (1.0, 0.0))
    pair, _ = outgoing_pair(psi, had_field, Schedule(n_max=1024))
    val = pure_point_mass(psi, had_field, outgoing=pair, horizon=2000, radius=64)
    assert 0.0 <= val < 0.05


def test_pure_point_mass_reuses_outgoing(defect_field, defect_dist):
    psi = LatticeState.point(0, (1.0, 0.0))
    val = pure_point_mass(
        psi,
        defect_field,
        horizon=2000,
        radius=64,
        outgoing=defect_dist.reports["outgoing"],
    )
    assert abs(val - DEFECT_KAPPA0) < 5e-3


def test_pure_point_mass_gate_trips_on_short_horizon(had_field):
    # ballistic mass has not left radius 64 after 100 steps, so the
    # time average cannot match the (near zero) norm deficit
    psi = LatticeState.point(0, (1.0, 0.0))
    pair, _ = outgoing_pair(psi, had_field, Schedule(n_max=256))
    with pytest.raises(ConvergenceError):
        pure_point_mass(psi, had_field, outgoing=pair, horizon=100, radius=64)


def test_pure_point_mass_rejects_negative_radius(had_field):
    # a negative radius used to make the time average 0 and the
    # cross-check vacuous
    psi = LatticeState.point(0, (1.0, 0.0))
    pair, _ = outgoing_pair(psi, had_field, Schedule(n_max=64))
    with pytest.raises(DomainError, match="radius"):
        pure_point_mass(psi, had_field, outgoing=pair, horizon=100, radius=-1)
    with pytest.raises(DomainError, match="horizon"):
        pure_point_mass(psi, had_field, outgoing=pair, horizon=1, radius=4)


def test_pure_point_mass_of_a_state_far_from_the_origin(had_field):
    # the walk never comes within radius 4 of the origin, so the time
    # average is 0 and agrees with the Hadamard walk's zero deficit
    psi = LatticeState.point(200, (1.0, 0.0))
    pair, _ = outgoing_pair(psi, had_field, Schedule(n_max=256))
    val = pure_point_mass(psi, had_field, outgoing=pair, horizon=100, radius=4)
    assert 0.0 <= val < 0.05


def test_limit_distribution_builds_one_gauss_rule(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return gauss_legendre(n)

    monkeypatch.setattr(weaklimit, "gauss_legendre", counting)
    psi = LatticeState.point(0, (1.0 / SQRT2, 1j / SQRT2))
    dist = limit_distribution(psi, two_phase_field(0.8, 0.6), Schedule(n_max=64), grid_points=65)
    assert dist.left is not None and dist.right is not None
    assert calls == [65]


def test_limit_distribution_grids_match_separate_grids():
    fld = two_phase_field(0.8, 0.6)
    psi = LatticeState.point(0, (1.0 / SQRT2, 1j / SQRT2))
    dist = limit_distribution(psi, fld, Schedule(n_max=64), grid_points=65)
    for samples, coin, side in ((dist.left, fld.left, "neg"), (dist.right, fld.right, "pos")):
        want = velocity_grid(FreeModel(coin), gauss_legendre(65), side)
        for name in ("theta", "v", "weight"):
            assert getattr(samples.grid, name).tobytes() == getattr(want, name).tobytes()
        assert samples.grid.side == side and samples.grid.r == coin.a


def test_rejects_unnormalized_state(had_field):
    psi = LatticeState.point(0, (0.5, 0.0))
    with pytest.raises(DomainError):
        limit_distribution(psi, had_field, Schedule(n_max=64))
    pair, _ = outgoing_pair(psi, had_field, Schedule(n_max=64))
    with pytest.raises(DomainError):
        pure_point_mass(psi, had_field, outgoing=pair)


def test_cdf_monotone_and_normalized(had_dist):
    v = np.linspace(-1.2, 1.2, 241)
    f = cdf(had_dist, v)
    assert f.shape == v.shape
    assert np.all(np.diff(f) >= -1e-12)
    assert f[0] == 0.0
    assert abs(f[-1] - total_mass(had_dist)) < 1e-9
    assert isinstance(cdf(had_dist, 0.3), float)


def test_cf_limit_basics(had_dist):
    assert abs(cf_limit(had_dist, 0.0) - total_mass(had_dist)) < 1e-12
    xi = np.array([0.5, 1.0, 5.0])
    vals = cf_limit(had_dist, xi)
    assert vals.shape == xi.shape
    assert np.all(np.abs(vals) <= 1.0 + 1e-9)


def test_moment_rejects_bad_order(had_dist):
    with pytest.raises(DomainError):
        moment(had_dist, -1)
    with pytest.raises(DomainError):
        moment(had_dist, 1.5)


def test_lebesgue_density_weighting(had_dist):
    side = had_dist.right
    ref = konno_density(side.grid.v, side.grid.r) / 2.0
    np.testing.assert_allclose(side.lebesgue_density(), side.values * ref, rtol=1e-12)


def test_compare_empirical_records(had_dist, had_field):
    psi = LatticeState.point(0, (1.0, 0.0))
    records = compare_empirical(had_dist, psi, had_field, ns=(100, 50))
    assert [r["n"] for r in records] == [50, 100]
    rec = records[-1]
    assert rec["ks"] < 0.2
    assert set(rec["cf_error"]) == {1.0, 2.0, 5.0}
    assert set(rec["moment_error"]) == {1, 2}
    assert all(err < 0.1 for err in rec["cf_error"].values())
    with pytest.raises(DomainError):
        compare_empirical(had_dist, psi, had_field, ns=(0,))
    for bad in ({"guard": math.nan}, {"guard": -0.1}, {"xi": (1.0, math.nan)}, {"xi": (math.inf,)}):
        with pytest.raises(DomainError):
            compare_empirical(had_dist, psi, had_field, ns=(50,), **bad)


def test_reflecting_field_gives_origin_atom_only():
    refl = CoinMatrix(0.0, 1.0, 0.0, 0.3, 1.1)
    field = CoinField(left=refl, right=refl)
    psi = LatticeState.point(0, (1.0, 0.0))
    dist = limit_distribution(psi, field, Schedule(n_max=256))
    assert dist.atoms() == ((0.0, 1.0),)
    assert dist.left is None and dist.right is None
    assert total_mass(dist) == 1.0
    # the orbit never leaves {-1, 0, 1}
    st = psi
    for _ in range(64):
        st = evolve(st, field, 1)
        tr = st.trimmed()
        assert tr.lo >= -1 and tr.hi <= 2


def test_diagonal_field_is_strictly_ballistic():
    diag = CoinMatrix(1.0, 0.0, 0.4, 0.0, -0.7)
    field = CoinField(left=diag, right=diag)
    psi = LatticeState.point(0, (1.0, 0.0))
    dist = limit_distribution(psi, field, Schedule(n_max=256))
    assert abs(dist.atom_left - 1.0) < 1e-12
    assert dist.atom_origin < 1e-12 and dist.atom_right == 0.0
    for n in (1, 2, 17):
        st = evolve(psi, field, n).trimmed()
        assert (st.lo, st.hi) == (-n, -n + 1)
        vals = st.values_on(-n, -n + 1)
        assert abs(abs(vals[0, 0]) - 1.0) < 1e-12
        assert vals[0, 1] == 0.0
