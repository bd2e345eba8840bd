"""Workloads, the seed-to-input mapping, and the benchmarked op.

Only the initial states come from the seed: a pool of normalized random
complex spinors on the sites -1, 0 and 1, which the ops of a run take in
turn.  The coin field, the schedule and the grid size are fixed per
workload, so the work done by one op does not depend on the seed or the
state (except the fourier_at support on tails-fine; see
metrics.STATE_DEPENDENT); the accuracy figures do.  Those vary by up to 15 % between
states even in digits, so the runner reports their mean over the pool.
A pool holds as many states as a 30 s run has ops: ten, five on
tails-fine.

The sizes are scaled down from the ROADMAP scenarios (Hadamard at
n_max = 4096, one defect and two-phase at 2048, which take 13-53 s per
op) so that a run of a few tens of seconds holds several ops.  Each
workload keeps the module split that makes it useful:

* ``hadamard-1024``: homogeneous Hadamard walk.  With a coarse 129-point
  grid the per-step FFTs of ``scattering`` dominate; ``konno`` is small.
* ``defect-1024``: two-phase field with a reflecting defect at the
  origin.  Bound states carry 10-60 % of the mass, so the origin atom and
  the ``pure_point_mass`` cross-check matter.  The field is compactly
  supported (the case of a stationary route or compact telescoping).
  ``scattering`` and ``apply_K`` share the work.
* ``tails-fine``: two-phase field a = 0.8 / 0.6 with power-law tails on
  both sides and a 2049-point grid.  ``konno`` dominates: ``fourier_at``
  inside ``apply_K`` and two dense ``leggauss`` solves.  The field is not
  compactly supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qwscatter import coin, lattice, scattering, weaklimit

# Arguments of the op, fixed by the benchmark's definition.
HORIZON = 2000
RADIUS = 64
COMPARE_N = 1000
XI = (1.0, 2.0, 5.0)
GUARD = 0.02

# Acceptance-suite tolerances checked on every op, on top of the gates
# inside limit_distribution (mass_tol) and pure_point_mass (gate).
GATES = {
    "ks_distance": 0.05,
    "cf_error": 2e-2,
    "moment_error": 1e-2,
    "atom_gap": 2.5e-2,
    "total_mass_error": 1e-3,
}


@dataclass(frozen=True)
class Workload:
    name: str
    field: Callable[[], coin.CoinField]
    n_max: int
    grid_points: int
    pool: int


@dataclass(frozen=True)
class Inputs:
    state: lattice.LatticeState
    field: coin.CoinField
    schedule: scattering.Schedule
    grid_points: int


def _hadamard() -> coin.CoinField:
    h = coin.hadamard_coin()
    return coin.CoinField(left=h, right=h)


def _defect() -> coin.CoinField:
    r = 1.0 / math.sqrt(2.0)
    return coin.CoinField(
        left=coin.CoinMatrix(r, r, 0.0, -math.pi / 2, math.pi),
        right=coin.CoinMatrix(r, r, 0.0, math.pi / 2, math.pi),
        overrides={0: np.diag([1.0, -1.0]).astype(complex)},
    )


def _two_phase_coin(a: float) -> coin.CoinMatrix:
    return coin.CoinMatrix(a, math.sqrt(1.0 - a * a), 0.0, 0.0, math.pi)


def _tails() -> coin.CoinField:
    tail = coin.TailRule(0.4, 1.0)
    return coin.CoinField(
        left=_two_phase_coin(0.8),
        right=_two_phase_coin(0.6),
        tail_left=tail,
        tail_right=tail,
    )


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hadamard-1024", _hadamard, n_max=1024, grid_points=129, pool=10),
        Workload("defect-1024", _defect, n_max=1024, grid_points=257, pool=10),
        Workload("tails-fine", _tails, n_max=256, grid_points=2049, pool=5),
    )
}


def make_states(seed: int, count: int) -> list[lattice.LatticeState]:
    """The seed's normalized random complex states on sites -1, 0, 1."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        amp = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        states.append(lattice.LatticeState(-1, amp / np.linalg.norm(amp)))
    return states


def make_inputs(workload: Workload, seed: int) -> list[Inputs]:
    """Inputs of the ops: one per state of the seed's pool."""
    field = workload.field()
    schedule = scattering.Schedule(workload.n_max)
    return [Inputs(state, field, schedule, workload.grid_points) for state in make_states(seed, workload.pool)]


@dataclass
class OpResult:
    op_s: float
    limit_s: float
    dist: weaklimit.LimitDistribution
    point_mass: float
    record: dict


def run_op(inp: Inputs, clock) -> OpResult:
    """One op: the limit law, its bound-state cross-check, and the
    comparison with direct simulation.  Names are looked up on the
    modules at call time, so a traced run sees its wrappers."""
    t0 = clock()
    dist = weaklimit.limit_distribution(inp.state, inp.field, inp.schedule, grid_points=inp.grid_points)
    t1 = clock()
    point_mass = weaklimit.pure_point_mass(
        inp.state, inp.field, horizon=HORIZON, radius=RADIUS, outgoing=dist.reports["outgoing"]
    )
    record = weaklimit.compare_empirical(dist, inp.state, inp.field, ns=(COMPARE_N,), xi=XI, guard=GUARD)[0]
    t2 = clock()
    return OpResult(t2 - t0, t1 - t0, dist, point_mass, record)


def accuracy(res: OpResult) -> dict[str, float]:
    """Gate values of one op (absolute errors, all >= 0)."""
    dist, rep = res.dist, res.dist.reports
    gaps = [
        abs(rep[f"density_mass_{s}"] - rep[f"projected_norm_sq_{s}"])
        for s in ("left", "right")
        if f"density_mass_{s}" in rep
    ]
    return {
        "ks_distance": res.record["ks"],
        "cf_error": max(res.record["cf_error"].values()),
        "moment_error": max(res.record["moment_error"].values()),
        "mass_gap": max(gaps),
        "atom_gap": abs(dist.atom_origin - res.point_mass),
        "total_mass_error": abs(weaklimit.total_mass(dist) - 1.0),
    }


def arrays(dist: weaklimit.LimitDistribution) -> list[np.ndarray]:
    """Every number of the limit law, for bit-for-bit comparison."""
    out = [np.array([dist.atom_left, dist.atom_origin, dist.atom_right])]
    for side in (dist.left, dist.right):
        if side is not None:
            out += [side.grid.v, side.grid.weight, side.values]
    return out


def gate_failures(res: OpResult, acc: dict[str, float]) -> list[str]:
    bad = [f"{k}={acc[k]:.3g} > {g:g}" for k, g in GATES.items() if not acc[k] <= g]
    if not all(np.all(np.isfinite(a)) for a in arrays(res.dist)):
        bad.append("non-finite atom or density value")
    return bad


def convergence(dist: weaklimit.LimitDistribution) -> tuple[int, float]:
    """Last checkpoint reached and the largest final increment over sides."""
    reps = [dist.reports[f"convergence_{s}"] for s in ("left", "right")]
    reps = [r for r in reps if r.checkpoints]
    return max(r.final_n for r in reps), max(r.final_increment for r in reps)


def same_arrays(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))

