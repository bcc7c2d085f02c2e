"""One measured process: set up a workload, run its passes, check them.

Run by run.py in a fresh interpreter, never directly.  Prints one JSON
line.  Untraced, it times a cold pass and then an identical warm pass;
traced, it runs the cold pass alone under cProfile.  After the passes,
outside the timed and traced regions, cold results are checked against
their known answers and warm results against the cold ones.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import umbrakit

import layers
import speed
import workloads

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "umbrakit"


def run_pass(ops: list, calibrated: bool) -> tuple[list, dict, list]:
    """Every op once, in order: (results, pass state, calibration times).
    A result is (value, error text or None, seconds).  When calibrated, the
    machine's speed is timed before the first op and after each op."""
    state: dict = {}
    results = []
    cal = [speed.calibrate()] if calibrated else []
    for op in ops:
        t0 = time.perf_counter()
        try:
            value, error = op.run(state), None
        except Exception as exc:  # a failed op is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        results.append((value, error, time.perf_counter() - t0))
        if calibrated:
            cal.append(speed.calibrate())
    return results, state, cal


def verdicts(ops: list, results: list, state: dict,
             reference: list | None = None) -> list[str | None]:
    """Per op, None when its result is right, else a one-line reason.
    With a reference (values of an earlier pass that met their known
    answers, None where one did not), an op is right when it equals its
    reference value."""
    out = []
    for i, (op, (value, error, _)) in enumerate(zip(ops, results)):
        if error is None:
            try:
                if reference is not None and reference[i] is not None:
                    error = None if value == reference[i] else "differs from the cold pass"
                else:
                    error = op.check(value, state)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        out.append(error)
    return out


def report(label: str, ops: list, reasons: list) -> list[str]:
    return [f"{label} {op.name}: {why}" for op, why in zip(ops, reasons) if why]


def measure(ops: list, ready: float) -> dict:
    cold, cold_state, cold_cal = run_pass(ops, True)
    warm, _, warm_cal = run_pass(ops, True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cold_reasons = verdicts(ops, cold, cold_state)
    reference = [None if why else value for (value, _, _), why in zip(cold, cold_reasons)]
    failures = report("cold", ops, cold_reasons) + \
        report("warm", ops, verdicts(ops, warm, {}, reference))
    return {"ready": ready, "op_s": [r[2] for r in cold], "cal_s": cold_cal,
            "warm_op_s": [r[2] for r in warm], "warm_cal_s": warm_cal,
            "peak_rss_mb": peak_kb / 1024, "attempted": 2 * len(ops),
            "failures": failures}


def measure_traced(ops: list, ready: float) -> dict:
    from umbrakit.umbrae import UmbraTuple
    profiler = cProfile.Profile()
    with layers.RepeatCounter(UmbraTuple) as repeats:
        start = time.perf_counter()
        profiler.enable()
        results, state, _ = run_pass(ops, False)
        profiler.disable()
        wall = time.perf_counter() - start
    profiler.create_stats()
    metrics = layers.aggregate(profiler.stats, PACKAGE_DIR)
    metrics["umbrae.dot_t.repeat_frac"] = repeats.fraction
    metrics["polynomials.max_coeff_bits"] = max(
        layers.max_coeff_bits(value) for value, _, _ in results)
    return {"ready": ready, "wall_s": wall, "metrics": metrics,
            "attempted": len(ops),
            "failures": report("traced", ops, verdicts(ops, results, state))}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if Path(umbrakit.__file__).resolve().parent != PACKAGE_DIR:
        sys.exit(f"error: umbrakit was imported from {umbrakit.__file__}, not {PACKAGE_DIR}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    result = (measure_traced if args.trace else measure)(ops, ready)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
