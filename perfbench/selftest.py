"""Self-test of the benchmark (``python3 perfbench/run.py --self-test``).

Checks, in order:

1. the seed-to-input mapping: deterministic, seed-sensitive, always
   normalized states on sites -1, 0, 1, and nothing else depends on it;
2. BENCHMARK.json names the metrics and workloads this runner reports;
3. an op that raises or breaks a gate is counted as failed, not timed;
4. on every workload: a traced op reproduces the untraced op bit for
   bit, counts repeat exactly between two traced ops of one seed, a
   second seed changes the accuracy but not the seed-free counts, and
   the self times add up to the traced op;
5. the result line of both modes has exactly the contract's keys;
6. without the library sources the runner fails without a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import metrics
import run as runner
import spans
import workloads as wl

SEED_A, SEED_B = 1, 2
_failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        _failures.append(what)


def seed_mapping() -> None:
    def key(states):
        return [(s.lo, s.amp.tobytes()) for s in states]

    check(key(wl.make_states(SEED_A, 10)) == key(wl.make_states(SEED_A, 10)), "same seed, same states")
    states = [s for seed in range(20) for s in wl.make_states(seed, 10)]
    check(len({s.amp.tobytes() for s in states}) == len(states), "different seeds and pool slots, different states")
    check(
        all((s.lo, s.hi) == (-1, 2) and abs(s.norm() - 1.0) < 1e-12 and np.all(s.amp != 0) for s in states),
        "every state is normalized with full support on sites -1, 0, 1",
    )
    check(key(wl.make_states(SEED_A, 5)) == key(wl.make_states(SEED_A, 10))[:5], "a smaller pool is a prefix of a larger one")
    for name, w in wl.WORKLOADS.items():
        fixed = set()
        for inp in wl.make_inputs(w, SEED_A) + wl.make_inputs(w, SEED_B):
            fixed.add((inp.field.block(-300, 301).tobytes(), inp.schedule, inp.grid_points))
        check(len(fixed) == 1, f"{name}: field, schedule and grid do not depend on the seed")


def benchmark_json() -> None:
    doc = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    check(e2e == {k: v[:2] for k, v in metrics.END_TO_END.items()}, "BENCHMARK.json end_to_end matches the runner")
    check(layer == {k: v[:2] for k, v in metrics.PER_LAYER.items()}, "BENCHMARK.json per_layer matches the runner")
    check([w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS), "BENCHMARK.json workloads match the runner")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    check(bounds["setup_s"] == max(bounds.values()), "setup_s has the largest bound")


def failures_are_counted() -> None:
    w = wl.WORKLOADS["hadamard-1024"]
    inputs = wl.make_inputs(w, SEED_A)[:1]
    r = runner.Run(wl, [dataclasses.replace(inputs[0], state=inputs[0].state * 2.0)])
    check(r.op() is None and (r.attempted, r.failed) == (1, 1), "an op that raises is counted as failed")
    saved = dict(wl.GATES)
    wl.GATES["ks_distance"] = 1e-9
    try:
        r = runner.Run(wl, inputs)
        check(r.op() is None and (r.attempted, r.failed) == (1, 1) and not r.op_s, "an op over a gate is failed and not timed")
    finally:
        wl.GATES.clear()
        wl.GATES.update(saved)


def traced_ops() -> None:
    for name, w in wl.WORKLOADS.items():
        tracer = spans.Tracer(runner.CLOCK)
        ra = runner.Run(wl, wl.make_inputs(w, SEED_A)[:1])
        rb = runner.Run(wl, wl.make_inputs(w, SEED_B)[:1])
        plain = ra.op()
        with tracer.installed():
            traced = [ra.op(tracer), ra.op(tracer)]
            lay_a = [tracer.layer_metrics(0), tracer.layer_metrics(1)]
            other = rb.op(tracer)
            lay_b = tracer.layer_metrics(2)
        ok = plain is not None and None not in traced and other is not None
        check(ok, f"{name}: untraced and traced ops pass every gate")
        if not ok:
            continue
        check(ra.failed == 0, f"{name}: traced ops reproduce the untraced op bit for bit")
        check(all(lay_a[0][c] == lay_a[1][c] for c in metrics.COUNTS), f"{name}: counts repeat between traced ops of one seed")
        seed_free = [c for c in metrics.COUNTS if c not in metrics.STATE_DEPENDENT]
        check(all(lay_a[0][c] == lay_b[c] for c in seed_free), f"{name}: a second seed keeps the seed-free counts")
        for c in metrics.STATE_DEPENDENT:
            print(f"       {c}: seed {SEED_A} {lay_a[0][c]:.0f}, seed {SEED_B} {lay_b[c]:.0f}")
        acc_a, acc_b = wl.accuracy(traced[0]), wl.accuracy(other)
        check(
            all(acc_a[k] != acc_b[k] for k in ("ks_distance", "cf_error", "moment_error", "atom_gap")),
            f"{name}: a second seed changes the accuracy figures",
        )
        total = sum(lay_a[0][m] for m in spans.SELF_TIME.values())
        check(abs(total - lay_a[0]["trace.op_s"]) <= 1e-9 * total, f"{name}: self times add up to the traced op")


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def result_lines() -> None:
    for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        cmd = [sys.executable, "perfbench/run.py", "--workload", "hadamard-1024", "--seed", "5", "--seconds", "1", "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=runner.ROOT, capture_output=True, text=True, timeout=170)
        res = _last_json(out.stdout)
        ok = (
            out.returncode == 0
            and isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"}
            and res["correct"] is True
            and res["attempted"] >= 1
            and res["failed"] == 0
            and list(res["metrics"]) == list(table)
            and all(set(v) == {"value", "unit"} and v["unit"] == table[k][0] for k, v in res["metrics"].items())
        )
        check(ok, f"--trace {trace} prints the contract's result line")


def fails_without_sources() -> None:
    bare = runner.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(runner.ROOT / "BENCHMARK.json", bare)
        for src in Path(runner.__file__).parent.glob("*.py"):
            shutil.copy(src, bare / "perfbench")
        cmd = [sys.executable, "perfbench/run.py", "--workload", "hadamard-1024", "--seed", "1", "--seconds", "1", "--trace", "0"]
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
        check(out.returncode != 0 and _last_json(out.stdout) is None, "without src/ the runner exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for step in (seed_mapping, benchmark_json, failures_are_counted, traced_ops, result_lines, fails_without_sources):
        step()
    print(f"self-test: {'FAILED ' + str(len(_failures)) if _failures else 'all passed'}")
    return 1 if _failures else 0
