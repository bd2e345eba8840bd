"""Every metric the benchmark reports: name, unit, direction, meaning.

BENCHMARK.json lists the same names, units and directions (the
self-test checks that they agree) and adds the bounds.  The text says
what each metric measures and, for the per-layer metrics, which
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

# Accuracy is reported in digits, -log10(error): the errors themselves
# vary by a factor of two or more between seeds, their digits by a few
# per cent, so a bound on the digits is one the seed spread can meet.
END_TO_END = {
    "setup_s": ("s", "lower", "process start to the first op: importing qwscatter and generating the inputs; median of 7 fresh processes"),
    "op_s": ("s", "lower", "wall time of one op (limit_distribution + pure_point_mass + compare_empirical); median over the run's ops"),
    "limit_s": ("s", "lower", "wall time of limit_distribution inside the op (the ROADMAP north-star metric); median over the run's ops"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the benchmark process"),
    "ks_digits": ("digits", "higher", "-log10 of the Kolmogorov distance to direct simulation at n = 1000 (gate: distance <= 0.05)"),
    "cf_digits": ("digits", "higher", "-log10 of the max characteristic-function error over xi = 1, 2, 5 at n = 1000 (gate: <= 2e-2)"),
    "moment_digits": ("digits", "higher", "-log10 of the max error of moments p = 1, 2 at n = 1000 (gate: <= 1e-2)"),
    "mass_gap_digits": ("digits", "higher", "-log10 of max over a.c. sides of |density_mass - projected_norm_sq| (gate: mass_tol = 1e-3)"),
    "atom_gap_digits": ("digits", "higher", "-log10 of |atom_origin - pure_point_mass| (gate: <= 2.5e-2)"),
}

PER_LAYER = {
    "scattering.outgoing_self_s": ("s", "lower", "self time of outgoing_pair, FFTs included; moves limit_s and op_s most on hadamard-1024, then defect-1024, least on tails-fine"),
    "scattering.fft_s": ("s", "lower", "time in numpy FFTs called directly by outgoing_pair (part of outgoing_self_s); same prediction"),
    "scattering.fft_calls": ("count", "lower", "FFT calls of outgoing_pair per op; Cook telescoping removes them on hadamard-1024 and defect-1024"),
    "scattering.fft_points": ("count", "lower", "complex points transformed by those FFTs per op"),
    "scattering.fft_window": ("sites", "lower", "largest FFT length of outgoing_pair: the real outgoing window (8192 sites at n_max 1024)"),
    "scattering.steps": ("count", "lower", "last checkpoint reached; an early stop of the iterated limit shows here first"),
    "scattering.final_increment": ("norm", "lower", "tail-block increment at the last checkpoint, max over sides: convergence of the iterated limit"),
    "lattice.step_s": ("s", "lower", "time in Evolution.step; under 3 % of op_s everywhere, the floor once the FFTs are gone"),
    "lattice.steps": ("count", "lower", "walk steps taken per op"),
    "lattice.site_updates": ("count", "lower", "sites updated per op, counted from lo/hi before each step"),
    "lattice.fourier_at_s": ("s", "lower", "time in fourier_at (inside apply_K); moves limit_s and peak_rss_mb most on tails-fine, less on the others"),
    "lattice.fourier_at_terms": ("count", "lower", "nodes x support summed over fourier_at calls; a non-uniform FFT or a dropped projection moves limit_s through it"),
    "konno.apply_K_self_s": ("s", "lower", "self time of apply_K without fourier_at"),
    "konno.apply_K_calls": ("count", "lower", "apply_K calls per op"),
    "konno.velocity_grid_s": ("s", "lower", "time building Gauss grids (leggauss); a cached or Newton rule moves limit_s on tails-fine only"),
    "konno.velocity_grid_calls": ("count", "lower", "velocity_grid calls per op"),
    "konno.grid_points_built": ("count", "lower", "Gauss nodes built per op"),
    "momentum.projection_s": ("s", "lower", "time in velocity_projection, its FFTs included"),
    "momentum.projection_sites": ("sites", "lower", "padded output window of the projections, which sets the fourier_at support; dropping the projection moves limit_s through fourier_at_terms"),
    "coin.block_s": ("s", "lower", "time in CoinField.block; only tails-fine needs a polar decomposition per site"),
    "coin.block_sites": ("sites", "lower", "sites whose coins were built per op"),
    "weaklimit.limit_self_s": ("s", "lower", "self time of limit_distribution"),
    "weaklimit.pure_point_mass_self_s": ("s", "lower", "self time of pure_point_mass (its steps are in lattice.step_s)"),
    "weaklimit.compare_self_s": ("s", "lower", "self time of compare_empirical (its steps are in lattice.step_s)"),
    "trace.op_s": ("s", "lower", "traced op wall time; the self times above plus trace.unassigned_s add up to it"),
    "trace.unassigned_s": ("s", "lower", "time inside the op outside every layer span (the runner's glue between calls)"),
    "trace.overhead": ("ratio", "lower", "median traced op_s over median untraced op_s of the same run, minus 1"),
}

# Counts that must repeat exactly between traced ops of one seed.  All
# but STATE_DEPENDENT are also the same for every seed.  Those two are
# not on tails-fine: the outgoing state is trimmed at 1e-15, and how far
# its power-law tail stays above that depends on the state.
COUNTS = (
    "scattering.fft_calls",
    "scattering.fft_points",
    "scattering.fft_window",
    "lattice.steps",
    "lattice.site_updates",
    "lattice.fourier_at_terms",
    "konno.apply_K_calls",
    "konno.velocity_grid_calls",
    "konno.grid_points_built",
    "momentum.projection_sites",
    "coin.block_sites",
)
STATE_DEPENDENT = ("lattice.fourier_at_terms", "momentum.projection_sites")
