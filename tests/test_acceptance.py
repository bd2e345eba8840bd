"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test covers one release criterion, prints a single PASS/FAIL line
(visible with ``pytest -s`` or on failure) and enforces both the
numeric gates and the wall-clock budget.  Tolerances are fixed here on
purpose; loosening them is a release decision, not a test edit.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import two_phase_field
from qwscatter import (
    CoinField,
    CoinMatrix,
    FreeModel,
    LatticeState,
    PairState,
    Schedule,
    apply_K,
    branch_packet,
    compare_empirical,
    compose_K_adjoint,
    evolve,
    free_model,
    gauss_legendre,
    hadamard_coin,
    k_interval,
    k_map,
    k_map_derivative,
    konno_density,
    limit_distribution,
    pure_point_mass,
    total_mass,
    velocity_grid,
    velocity_projection,
    wave_forward,
    wrap_angle,
)

SQRT2 = math.sqrt(2.0)


def _verdict(label: str, elapsed: float, budget: float, checks: dict[str, tuple[float, float]]) -> None:
    """Print one summary line, then fail if any gate or the budget broke."""
    ok = elapsed < budget and all(value <= gate for value, gate in checks.values())
    detail = "  ".join(f"{name}={value:.3g} (gate {gate:g})" for name, (value, gate) in checks.items())
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}  time={elapsed:.1f}s/{budget:g}s")
    assert ok, f"{label}: {detail}  time={elapsed:.2f}s/{budget:g}s"


def _random_coin(rng, lo=0.05, hi=0.95):
    a = float(rng.uniform(lo, hi))
    return CoinMatrix(
        a,
        math.sqrt(1.0 - a * a),
        float(rng.uniform(-math.pi, math.pi)),
        float(rng.uniform(-math.pi, math.pi)),
        float(rng.uniform(-math.pi, math.pi)),
    )


def test_coin_parameter_matrix_round_trip():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        coin = _random_coin(rng, 0.0, 1.0)
        m = coin.matrix()
        back = CoinMatrix.from_matrix(m).matrix()
        worst = max(worst, float(np.abs(back - m).max()))
    _verdict(
        "coin params <-> matrix round trip (1000 draws)",
        time.perf_counter() - t0,
        1.0,
        {"max_entry_error": (worst, 1e-10)},
    )


def test_group_velocity_matches_phase_derivative():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        model = FreeModel(_random_coin(rng, 0.02, 0.98))
        ks = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
        fd = -np.imag(
            (model.eigenvalues(ks + h) - model.eigenvalues(ks - h))
            / (2.0 * h)
            / model.eigenvalues(ks)
        )
        worst = max(worst, float(np.abs(model.velocity(ks) - fd).max()))
    _verdict(
        "closed-form group velocity vs finite difference (20 coins x 2048 k)",
        time.perf_counter() - t0,
        5.0,
        {"max_error": (worst, 1e-6)},
    )


def test_velocity_momentum_inversion_identities():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    w_v, w_k, w_d = 0.0, 0.0, 0.0
    for _ in range(20):
        model = FreeModel(_random_coin(rng))
        a = model.a
        t = (np.arange(512) + 0.5) / 512.0
        v = 0.95 * a * (2.0 * t - 1.0)
        h = 1e-5 * a
        for j in (0, 1):
            for m in (0, 1):
                k = k_map(model, j, m, v)
                w_v = max(w_v, float(np.abs(model.velocity(k)[:, j] - v).max()))
                fd = (
                    k_map(model, j, m, v + h, reduce=False)
                    - k_map(model, j, m, v - h, reduce=False)
                ) / (2.0 * h)
                w_d = max(w_d, float(np.abs(k_map_derivative(model, j, m, v) - fd).max()))
        for m in (0, 1):
            lo, hi = k_interval(model, m)
            ks = lo + (hi - lo) * t
            vv = model.velocity(ks)
            for j in (0, 1):
                diff = np.abs([wrap_angle(x) for x in k_map(model, j, m, vv[:, j]) - ks])
                w_k = max(w_k, float(diff.max()))
    _verdict(
        "momentum <-> velocity inversion on 512-point grids (20 coins)",
        time.perf_counter() - t0,
        5.0,
        {
            "v_of_k_of_v": (w_v, 1e-10),
            "k_of_v_of_k": (w_k, 1e-10),
            "derivative_vs_fd": (w_d, 1e-6),
        },
    )


def test_velocity_translator_relations():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    # completeness: the four translators carry the full norm
    w_complete = 0.0
    for _ in range(20):
        model = FreeModel(_random_coin(rng))
        grid = velocity_grid(model, gauss_legendre(129))
        amp = rng.standard_normal((17, 2)) + 1j * rng.standard_normal((17, 2))
        psi = LatticeState.from_entries({x - 8: tuple(amp[x]) for x in range(17)}).normalized()
        captured = sum(
            float(np.sum(grid.weight * np.abs(apply_K(psi, model, j, m, grid)) ** 2))
            for j in (0, 1)
            for m in (0, 1)
        )
        w_complete = max(w_complete, abs(captured - 1.0))
    # partial isometries: matching composition is the identity on the
    # range, mismatched branches/sheets annihilate
    w_match, w_cross = 0.0, 0.0
    for _ in range(20):
        model = FreeModel(_random_coin(rng))
        grid = velocity_grid(model, gauss_legendre(129))
        g = np.exp(-((grid.v / (0.5 * model.a)) ** 2)) * np.exp(1.7j * grid.v)
        for j in (0, 1):
            for m in (0, 1):
                for jp in (0, 1):
                    for mp in (0, 1):
                        out = compose_K_adjoint(model, j, m, jp, mp, g, grid)
                        if (j, m) == (jp, mp):
                            w_match = max(w_match, float(np.abs(out - g).max()))
                        else:
                            w_cross = max(w_cross, float(np.abs(out).max()))
    # the translators turn velocity windows into indicator functions
    w_window = 0.0
    for _ in range(20):
        model = FreeModel(_random_coin(rng))
        ks = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        k0 = float(ks[np.argmax(model.velocity(ks)[:, 0])])
        sign = 1.0 if model.velocity(k0)[0] > 0 else -1.0
        psi = (
            branch_packet(model, 0, k0=k0, sigma_k=0.05, size=1024)
            + branch_packet(model, 1, k0=k0, sigma_k=0.05, size=1024)
        ) * (1.0 / SQRT2)
        window = (0.0, 2.0) if sign > 0 else (-2.0, 0.0)
        proj = velocity_projection(
            psi, model, lambda v: (v >= window[0]) & (v < window[1]), dft_size=4096
        )
        grid = velocity_grid(model, gauss_legendre(257))
        ind = ((grid.v >= window[0]) & (grid.v < window[1])).astype(float)
        for j in (0, 1):
            for m in (0, 1):
                lhs = apply_K(proj, model, j, m, grid)
                rhs = ind * apply_K(psi, model, j, m, grid)
                w_window = max(w_window, float(np.abs(lhs - rhs).max()))
    _verdict(
        "velocity translators: completeness, isometry, window action",
        time.perf_counter() - t0,
        30.0,
        {
            "norm_deficiency": (w_complete, 1e-6),
            "matching_composition": (w_match, 1e-6),
            "mismatched_composition": (w_cross, 1e-6),
            "window_intertwining": (w_window, 1e-6),
        },
    )


def test_limit_density_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    edges = np.linspace(-np.pi / 2.0, np.pi / 2.0, 400001)
    mids = (edges[:-1] + edges[1:]) / 2.0
    h = edges[1] - edges[0]
    for r in (0.2, 1.0 / SQRT2, 0.95):
        total = float(np.sum(konno_density(r * np.sin(mids), r) * r * np.cos(mids)) * h)
        worst = max(worst, abs(total - 1.0))
    _verdict(
        "limit density normalization at r in {0.2, 0.707, 0.95}",
        time.perf_counter() - t0,
        1.0,
        {"max_integral_error": (worst, 1e-8)},
    )


def _side_packet(model, sign, center):
    # momentum width 0.09 keeps the amplitude at the velocity zero
    # crossings below 1e-10, so the scattering limits settle immediately
    k0 = math.pi - 0.7
    v = model.velocity(k0)
    branch = 0 if math.copysign(1.0, v[0]) == sign else 1
    return branch_packet(model, branch, k0=k0, sigma_k=0.09, center=center)


def test_wave_operator_isometry_and_kernel():
    t0 = time.perf_counter()
    fld = two_phase_field(0.8, 0.6)
    ml, mr = free_model(fld, "left"), free_model(fld, "right")
    outgoing = PairState(_side_packet(ml, -1.0, -60), _side_packet(mr, +1.0, 60))
    phi_out, report = wave_forward(outgoing, fld, Schedule(n_max=4096, tol=1e-8))
    norm_drift = abs(phi_out.norm() - outgoing.norm())
    incoming = PairState(_side_packet(ml, +1.0, -60), _side_packet(mr, -1.0, 60))
    phi_in, _ = wave_forward(incoming, fld, Schedule(n_max=4096, tol=1e-10))
    _verdict(
        "forward wave operator: isometric on outgoing pairs, kills incoming",
        time.perf_counter() - t0,
        120.0,
        {
            "outgoing_norm_drift": (norm_drift, 1e-2),
            "incoming_residual_norm": (phi_in.norm(), 1e-2),
            "not_converged": (0.0 if report.converged else 1.0, 0.5),
        },
    )


def test_bound_mass_budget_one_defect():
    t0 = time.perf_counter()
    r = 1.0 / SQRT2
    fld = CoinField(
        left=CoinMatrix(r, r, 0.0, -math.pi / 2, math.pi),
        right=CoinMatrix(r, r, 0.0, math.pi / 2, math.pi),
        overrides={0: np.diag([1.0, -1.0]).astype(complex)},
    )
    psi = LatticeState.point(0, (1.0, 0.0))
    dist = limit_distribution(psi, fld, Schedule(n_max=2048))
    kappa0 = dist.atom_origin
    budget_gap = abs(
        kappa0
        + dist.reports["outgoing_norm_sq_left"]
        + dist.reports["outgoing_norm_sq_right"]
        - 1.0
    )
    # independent estimate: time-averaged probability near the origin.
    # pure_point_mass returns the norm deficit and raises if that drifts
    # from the time average beyond its gate; the two 2.5e-2 bounds below
    # compose to a 5e-2 agreement between the atom and the time average.
    deficit = pure_point_mass(
        psi, fld, horizon=2000, radius=64, gate=2.5e-2, outgoing=dist.reports["outgoing"]
    )
    _verdict(
        "one-defect mass budget and localized-mass cross-check",
        time.perf_counter() - t0,
        180.0,
        {
            "budget_gap": (budget_gap, 1e-3),
            "atom_vs_norm_deficit": (abs(kappa0 - deficit), 2.5e-2),
        },
    )


def test_weak_limit_hadamard_end_to_end():
    t0 = time.perf_counter()
    fld = CoinField(left=hadamard_coin(), right=hadamard_coin())
    psi = LatticeState.point(0, (1.0, 0.0))
    dist = limit_distribution(psi, fld, Schedule(n_max=4096))
    rec = compare_empirical(dist, psi, fld, ns=(1000,), xi=(1.0, 2.0, 5.0), guard=0.02)[0]
    _verdict(
        "weak limit end to end on the balanced homogeneous walk (n=1000)",
        time.perf_counter() - t0,
        120.0,
        {
            "kolmogorov_distance": (rec["ks"], 0.05),
            "cf_error_max": (max(rec["cf_error"].values()), 2e-2),
            "moment_error_max": (max(rec["moment_error"].values()), 1e-2),
        },
    )


def test_anisotropic_two_phase_prediction():
    t0 = time.perf_counter()
    fld = two_phase_field(0.9, 0.4)
    psi = LatticeState.point(0, (1.0 / SQRT2, 1j / SQRT2))
    dist = limit_distribution(psi, fld, Schedule(n_max=2048))
    left_ok = dist.left is not None and bool(
        np.all((dist.left.grid.v >= -0.9) & (dist.left.grid.v < 0.0))
    )
    right_ok = dist.right is not None and bool(
        np.all((dist.right.grid.v > 0.0) & (dist.right.grid.v <= 0.4))
    )
    n = 1500
    xs, probs = evolve(psi, fld, n).position_distribution()
    fast_right = float(np.sum(probs[xs > 0.45 * n]))
    _verdict(
        "two-phase walk: one-sided supports and the right-side speed cap",
        time.perf_counter() - t0,
        180.0,
        {
            "left_support_violation": (0.0 if left_ok else 1.0, 0.5),
            "right_support_violation": (0.0 if right_ok else 1.0, 0.5),
            "empirical_mass_beyond_0.45": (fast_right, 1e-2),
        },
    )


def test_degenerate_coins_are_exact():
    t0 = time.perf_counter()
    refl = CoinMatrix(0.0, 1.0, 0.0, 0.3, 1.1)
    fld0 = CoinField(left=refl, right=refl)
    psi = LatticeState.point(0, (1.0, 0.0))
    dist0 = limit_distribution(psi, fld0, Schedule(n_max=256))
    atoms_exact = dist0.atoms() == ((0.0, 1.0),) and total_mass(dist0) == 1.0
    bounded = True
    st = psi
    for _ in range(64):
        st = evolve(st, fld0, 1)
        tr = st.trimmed()
        bounded = bounded and tr.lo >= -1 and tr.hi <= 2
    diag = CoinMatrix(1.0, 0.0, 0.4, 0.0, -0.7)
    fld1 = CoinField(left=diag, right=diag)
    dist1 = limit_distribution(psi, fld1, Schedule(n_max=256))
    ballistic = True
    for n in (1, 5, 25):
        tr = evolve(psi, fld1, n).trimmed()
        vals = tr.values_on(-n, -n + 1)
        ballistic = (
            ballistic
            and (tr.lo, tr.hi) == (-n, -n + 1)
            and abs(abs(vals[0, 0]) - 1.0) < 1e-14
            and vals[0, 1] == 0.0
        )
    _verdict(
        "degenerate coins: reflecting atom is exact, diagonal walk is x=-n",
        time.perf_counter() - t0,
        10.0,
        {
            "reflecting_atom_broken": (0.0 if (atoms_exact and bounded) else 1.0, 0.5),
            "ballistic_atom_error": (abs(dist1.atom_left - 1.0), 1e-12),
            "ballistic_orbit_broken": (0.0 if ballistic else 1.0, 0.5),
            "stray_mass": (dist1.atom_origin + dist1.atom_right, 1e-12),
        },
    )
