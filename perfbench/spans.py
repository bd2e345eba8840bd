"""Span tracing from outside the library, for the traced run only.

``Tracer.installed()`` replaces the public names that the callers
resolve at call time (PATCHES: for instance ``weaklimit.apply_K``, the
name limit_distribution calls, or ``konno.fourier_at``, the name apply_K
calls) with timing wrappers, and restores them on exit.

Spans live in memory as (name, start, end, parent index, op id, counts).
``numpy.fft.fft`` and ``numpy.fft.ifft`` calls are not spans: each is
recorded against the innermost open span, and its time stays part of
that span's self time.  A span's self time is its duration minus the
durations of its child spans, so the self times of all spans of an op,
the root included, add up to the op's duration exactly.  The root's own
self time is the runner's glue between calls and is reported as
``trace.unassigned_s``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

from qwscatter import coin, konno, lattice, weaklimit

ROOT = "op"

# span name -> per-layer self-time metric
SELF_TIME = {
    "weaklimit.limit_distribution": "weaklimit.limit_self_s",
    "weaklimit.pure_point_mass": "weaklimit.pure_point_mass_self_s",
    "weaklimit.compare_empirical": "weaklimit.compare_self_s",
    "scattering.outgoing_pair": "scattering.outgoing_self_s",
    "momentum.velocity_projection": "momentum.projection_s",
    "konno.velocity_grid": "konno.velocity_grid_s",
    "konno.apply_K": "konno.apply_K_self_s",
    "lattice.fourier_at": "lattice.fourier_at_s",
    "lattice.Evolution.step": "lattice.step_s",
    "coin.CoinField.block": "coin.block_s",
    ROOT: "trace.unassigned_s",
}


# Count hooks.  ``before`` hooks see the arguments (the lattice window
# must be read before stepping); ``after`` hooks see the result.
def _step_counts(args, kwargs):
    ev = args[0]
    count = args[1] if len(args) > 1 else kwargs.get("count", 1)
    width = ev.hi - ev.lo  # sites before the first step; each step adds 2
    return {"lattice.steps": count, "lattice.site_updates": count * width + count * (count - 1)}


def _fourier_counts(args, kwargs):
    state = args[0]
    k = np.atleast_1d(args[1] if len(args) > 1 else kwargs["k"])
    return {"lattice.fourier_at_terms": k.size * (state.hi - state.lo)}


def _apply_k_counts(_args, _kwargs):
    return {"konno.apply_K_calls": 1}


def _block_counts(args, kwargs):
    lo = args[1] if len(args) > 1 else kwargs["lo"]
    hi = args[2] if len(args) > 2 else kwargs["hi"]
    return {"coin.block_sites": hi - lo}


def _grid_counts(grid):
    return {"konno.velocity_grid_calls": 1, "konno.grid_points_built": grid.v.size}


def _projection_counts(state):
    return {"momentum.projection_sites": state.hi - state.lo}


# (owner, attribute, span name, before hook, after hook)
PATCHES = (
    (weaklimit, "limit_distribution", "weaklimit.limit_distribution", None, None),
    (weaklimit, "pure_point_mass", "weaklimit.pure_point_mass", None, None),
    (weaklimit, "compare_empirical", "weaklimit.compare_empirical", None, None),
    (weaklimit, "outgoing_pair", "scattering.outgoing_pair", None, None),
    (weaklimit, "velocity_projection", "momentum.velocity_projection", None, _projection_counts),
    (weaklimit, "velocity_grid", "konno.velocity_grid", None, _grid_counts),
    (weaklimit, "apply_K", "konno.apply_K", _apply_k_counts, None),
    (konno, "fourier_at", "lattice.fourier_at", _fourier_counts, None),
    (lattice.Evolution, "step", "lattice.Evolution.step", _step_counts, None),
    (coin.CoinField, "block", "coin.CoinField.block", _block_counts, None),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.ffts: list[tuple] = []  # (span index, start, end, points, length)
        self._stack: list[int] = []
        self.op_id = -1

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, t0, counts) -> None:
        self._stack.pop()
        self.spans[idx] = (name, t0, self.clock(), parent, self.op_id, counts)

    def wrap(self, name, fn, before, after):
        def traced(*args, **kwargs):
            counts = before(args, kwargs) if before else None
            idx, parent = self._open()
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, t0, counts)
            if after:
                self.spans[idx] = self.spans[idx][:5] + (after(result),)
            return result

        return traced

    def wrap_fft(self, fn):
        def traced(a, *args, **kwargs):
            t0 = self.clock()
            out = fn(a, *args, **kwargs)
            t1 = self.clock()
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)  # fft(a, n, axis, ...)
            owner = self._stack[-1] if self._stack else -1
            self.ffts.append((owner, t0, t1, out.size, out.shape[axis]))
            return out

        return traced

    @contextlib.contextmanager
    def op(self):
        """Root span of one op."""
        self.op_id += 1
        idx, parent = self._open()
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(idx, parent, ROOT, t0, None)

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, before, after in PATCHES:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, before, after))
            for attr in ("fft", "ifft"):
                orig = np.fft.__dict__[attr]
                saved.append((np.fft, attr, orig))
                setattr(np.fft, attr, self.wrap_fft(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def layer_metrics(self, op_id: int) -> dict[str, float]:
        """Per-layer self times and counts of one traced op."""
        idx = [i for i, s in enumerate(self.spans) if s is not None and s[4] == op_id]
        child_time = defaultdict(float)
        for i in idx:
            name, t0, t1, parent, _, _ = self.spans[i]
            child_time[parent] += t1 - t0
        fft_keys = ("scattering.fft_calls", "scattering.fft_points", "scattering.fft_window", "scattering.fft_s")
        out = defaultdict(float, dict.fromkeys((*SELF_TIME.values(), *fft_keys), 0))
        for i in idx:
            name, t0, t1, parent, _, counts = self.spans[i]
            out[SELF_TIME[name]] += (t1 - t0) - child_time[i]
            if name == ROOT:
                out["trace.op_s"] = t1 - t0
            for key, value in (counts or {}).items():
                out[key] += value
        scattering = {i for i in idx if self.spans[i][0] == "scattering.outgoing_pair"}
        for owner, t0, t1, points, length in self.ffts:
            if owner in scattering:
                out["scattering.fft_calls"] += 1
                out["scattering.fft_points"] += points
                out["scattering.fft_window"] = max(out["scattering.fft_window"], length)
                out["scattering.fft_s"] += t1 - t0
        return dict(out)

    def dump(self, path) -> None:
        """Write every span and FFT record as one JSON document."""
        doc = {
            "span_fields": ["name", "start", "end", "parent", "op", "counts"],
            "spans": self.spans,
            "fft_fields": ["span", "start", "end", "points", "length"],
            "ffts": self.ffts,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
