"""qwscatter benchmark: limit-law time, accuracy gates and per-layer cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hadamard-1024 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list         # every metric with its unit and meaning
    python3 perfbench/run.py --self-test    # seed mapping, counts, schema, failure mode

One process, one client, closed loop: each op starts when the previous
one has finished, and ops repeat until ``--seconds`` have passed.  With
``--trace 0`` the ops take the states of the seed's pool in turn, and
the last line of standard output holds the end-to-end metrics.  With
``--trace 1`` every op uses the pool's first state, untraced and traced
ops alternate, and the last line holds the per-layer metrics.  The
line before it holds every metric measured, the samples and the
metadata.  Spans of a traced run are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# One BLAS thread: steadier on a shared machine, and ops repeat bit for
# bit.  Set before numpy is imported; child processes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_PROBES = 7
MIN_PAIRS = 2  # (untraced, traced) op pairs of a --trace 1 run
CLOCK = time.perf_counter


def _load(workload: str, seed: int):
    """Import qwscatter and build the inputs: the set-up being timed."""
    sys.path.insert(0, str(SRC))
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    return workloads, workloads.make_inputs(workloads.WORKLOADS[workload], seed)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, from spawn to inputs ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


def digits(err: float) -> float:
    return -math.log10(max(err, 1e-16))


def metadata() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, TypeError, KeyError):
        blas = "unknown"
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "qwscatter").rglob("*.py"))),
    }


class Run:
    """Ops of one run: outcomes, gate checks and bit-for-bit checks.

    Op i uses ``pool[i % len(pool)]``; each op must reproduce the first
    good op on the same state bit for bit."""

    def __init__(self, wl, pool) -> None:
        self.wl, self.pool = wl, pool
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, list] = {}  # state index -> arrays
        self.accuracy: dict[int, dict] = {}  # state index -> gate values
        self.dist = None  # limit law of the first state
        self.op_s: list[float] = []
        self.limit_s: list[float] = []

    def op(self, tracer=None):
        """Run one op; return its result, or None when it failed."""
        j = self.attempted % len(self.pool)
        self.attempted += 1
        try:
            if tracer is None:
                res = self.wl.run_op(self.pool[j], CLOCK)
            else:
                with tracer.op():
                    res = self.wl.run_op(self.pool[j], CLOCK)
        except Exception:  # a failing op is counted, the run goes on
            return self._fail("raised:\n" + traceback.format_exc())
        acc = self.wl.accuracy(res)
        bad = self.wl.gate_failures(res, acc)
        if bad:
            return self._fail("gate: " + "; ".join(bad))
        arrays = self.wl.arrays(res.dist)
        if j not in self.reference:
            self.reference[j], self.accuracy[j] = arrays, acc
            if self.dist is None:
                self.dist = res.dist
        elif not self.wl.same_arrays(arrays, self.reference[j]):
            kind = "traced op" if tracer else "op"
            return self._fail(f"{kind} did not reproduce the atoms and densities of state {j} bit for bit")
        if tracer is None:
            self.op_s.append(res.op_s)
            self.limit_s.append(res.limit_s)
        return res

    def _fail(self, why: str):
        self.failed += 1
        self.problems.append(why)
        print(f"op {self.attempted} failed: {why}", file=sys.stderr)
        return None


def run_untraced(run: Run, seconds: float) -> None:
    deadline = CLOCK() + seconds
    while CLOCK() < deadline or run.attempted < len(run.pool):
        run.op()


def run_traced(run: Run, seconds: float, workload: str, seed: int) -> dict:
    import spans

    tracer = spans.Tracer(CLOCK)
    traced_s: list[float] = []
    layers: list[dict] = []
    deadline = CLOCK() + seconds
    while CLOCK() < deadline or (len(layers) < MIN_PAIRS and not run.failed):
        run.op()
        with tracer.installed():
            res = run.op(tracer)
        if res is not None:
            traced_s.append(res.op_s)
            layers.append(tracer.layer_metrics(tracer.op_id))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")
    if not layers or not run.op_s:
        return {}
    for i, lay in enumerate(layers[1:], 2):
        for name in metrics.COUNTS:
            if lay.get(name, 0) != layers[0].get(name, 0):
                run.problems.append(f"count {name} of traced op {i} is {lay.get(name, 0)}, first was {layers[0].get(name, 0)}")
    for lay in layers:
        total = sum(lay[m] for m in spans.SELF_TIME.values())
        if abs(total - lay["trace.op_s"]) > 1e-9 * lay["trace.op_s"]:
            run.problems.append(f"self times add up to {total}, traced op took {lay['trace.op_s']}")
    out = {
        name: layers[0].get(name, 0) if name in metrics.COUNTS else statistics.fmean(lay.get(name, 0) for lay in layers)
        for name in metrics.PER_LAYER
    }
    out["scattering.steps"], out["scattering.final_increment"] = run.wl.convergence(run.dist)
    out["trace.overhead"] = statistics.median(traced_s) / statistics.median(run.op_s) - 1.0
    return out


def end_to_end(run: Run, setup: list[float]) -> dict:
    def acc(key):
        return statistics.fmean(digits(a[key]) for a in run.accuracy.values())

    return {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(run.op_s),
        "limit_s": statistics.median(run.limit_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ks_digits": acc("ks_distance"),
        "cf_digits": acc("cf_error"),
        "moment_digits": acc("moment_error"),
        "mass_gap_digits": acc("mass_gap"),
        "atom_gap_digits": acc("atom_gap"),
    }


def _with_units(values: dict, table: dict) -> dict:
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def _summary(xs: list[float]) -> dict:
    return {"n": len(xs), "median": statistics.median(xs), "values": xs}


def bench(args) -> int:
    wl, pool = _load(args.workload, args.seed)
    setup = measure_setup(args.workload, args.seed)
    run = Run(wl, pool[:1] if args.trace else pool)
    per_layer = {}
    if args.trace:
        per_layer = run_traced(run, args.seconds, args.workload, args.seed)
    else:
        run_untraced(run, args.seconds)
    if not run.op_s or (args.trace and not per_layer):
        print("no op succeeded; no result", file=sys.stderr)
        return 1
    e2e = end_to_end(run, setup)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "meta": metadata(),
        "samples": {"setup_s": _summary(setup), "op_s": _summary(run.op_s), "limit_s": _summary(run.limit_s)},
        "accuracy": [run.accuracy[j] for j in sorted(run.accuracy)],
        "problems": run.problems,
        "end_to_end": _with_units(e2e, metrics.END_TO_END),
    }
    if per_layer:
        report["per_layer"] = _with_units(per_layer, metrics.PER_LAYER)
    print(json.dumps(report))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report["per_layer"] if args.trace else report["end_to_end"],
    }
    print(json.dumps(result))
    return 0


def list_metrics() -> int:
    for title, table in (("end to end (--trace 0)", metrics.END_TO_END), ("per layer (--trace 1)", metrics.PER_LAYER)):
        print(f"# {title}")
        for name, (unit, better, text) in table.items():
            print(f"{name:34s} {unit:7s} {better:6s} {text}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="hadamard-1024")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="print every metric with its unit and meaning")
    p.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.list:
        return list_metrics()
    if not (SRC / "qwscatter" / "__init__.py").is_file():
        print(f"no qwscatter sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _load(args.workload, args.seed)
        print(time.monotonic())
        return 0
    if args.self_test:
        sys.path.insert(0, str(SRC))
        import selftest

        return selftest.main()
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
