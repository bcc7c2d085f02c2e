"""umbrakit benchmark: one workload, fresh processes, checked results.

    python3 perfbench/run.py --workload tsh_verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/umbrakit``.  With
``--trace 0`` it starts one child process at a time (perfbench/child.py)
until ``--seconds`` have passed, each child setting up the workload and
timing a cold and a warm pass, and reports medians over those fresh
processes of times scaled to a reference machine speed (speed.py).  With ``--trace 1`` it runs one untraced
child and then one child whose cold pass runs under cProfile, and
reports the per-layer metrics.  Every op of every pass is checked against a known answer.

Earlier lines of standard output give the provenance, a table of every
metric with its unit, and each failed op.  The last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only when every op was right.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "umbrakit"
PYCACHE = ROOT / ".bench_build" / "pycache"
# the keys of workloads.WORKLOADS; run.py itself does not import umbrakit
WORKLOADS = ("tsh_verify", "series_gf", "fresh_arrays", "mc_paths")
MIN_CHILDREN = 3
DEADLINE_S = 170.0            # the whole run ends well inside 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(PYCACHE),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
    })
    return env


def precompile() -> None:
    """Byte-compile the package and the benchmark into the bench cache
    first, so no child pays for compiling and every setup does the same
    work."""
    sys.pycache_prefix = str(PYCACHE)
    for directory in (PACKAGE, HERE):
        if not compileall.compile_dir(str(directory), quiet=1, maxlevels=0):
            sys.exit(f"error: cannot byte-compile {directory}")


def spawn(workload: str, seed: int, trace: bool, run_start: float) -> dict:
    """One child, waited for; its JSON result with setup time added."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed)] + (["--trace"] if trace else [])
    timeout = DEADLINE_S - (time.monotonic() - run_start)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"error: child for {workload} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: child for {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["child_s"] = time.monotonic() - spawned
    return result


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (p in 1..99), by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def per_op_median(children: list[dict], ops: str, cal: str) -> list[float]:
    """Each op's time at the reference speed, its median over the children."""
    runs = [speed.scaled(c[ops], c[cal]) for c in children]
    return [statistics.median(times) for times in zip(*runs)]


def end_to_end(children: list[dict]) -> dict:
    """Medians over the run's fresh processes of times at the reference
    speed (speed.py).  A pass's time is the sum of its ops' medians, and
    the op percentiles are taken over those medians, so a slow spell in
    one child moves one sample per op, not the tail."""
    cold_ms = [s * 1e3 for s in per_op_median(children, "op_s", "cal_s")]
    setup = [c["setup_s"] * speed.CAL_REFERENCE_S / c["cal_s"][0] for c in children]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(cold_ms) / 1e3, "s"),
        "warm_wall_s": (sum(per_op_median(children, "warm_op_s", "warm_cal_s")), "s"),
        "op_ms.p50": (statistics.median(cold_ms), "ms"),
        "op_ms.p90": (percentile(cold_ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
    }


def as_measured(children: list[dict]) -> str:
    """The unscaled figures behind the metrics, for the record."""
    med = lambda values: statistics.median(list(values))
    slow = med(med(c["cal_s"]) / speed.CAL_REFERENCE_S for c in children)
    return (f"as measured: setup {med(c['setup_s'] for c in children):.3f} s, "
            f"cold pass {med(sum(c['op_s']) for c in children):.3f} s, "
            f"warm pass {med(sum(c['warm_op_s']) for c in children):.3f} s, "
            f"machine {slow:.2f}x slower than the reference speed")


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced["metrics"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead"] = traced["wall_s"] / sum(untraced["op_s"])
    return {name: (metrics[name], layers.unit_of(name)) for name in layers.metric_names()}


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, children: int, ops_per_pass: int) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "children": children, "ops_per_pass": ops_per_pass,
            "commit": commit(), "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": metadata.version("numpy")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: no umbrakit sources at {PACKAGE}; run from a checkout")
    precompile()

    start = time.monotonic()
    children = [spawn(args.workload, args.seed, False, start)]
    if args.trace:
        traced = spawn(args.workload, args.seed, True, start)
        metrics = per_layer(children[0], traced)
        runs = children + [traced]
    else:
        while True:
            elapsed = time.monotonic() - start
            last = children[-1]["child_s"]
            if len(children) >= MIN_CHILDREN and elapsed + last > args.seconds:
                break
            children.append(spawn(args.workload, args.seed, False, start))
        metrics = end_to_end(children)
        runs = children

    attempted = sum(r["attempted"] for r in runs)
    failures = [f"child {i}: {line}" for i, r in enumerate(runs) for line in r["failures"]]
    print(json.dumps({"provenance": provenance(args, len(runs), len(children[0]["op_s"]))}))
    if not args.trace:
        print(as_measured(children))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(f"{'failed_frac':40s} {len(failures) / attempted:16.6f} ratio")
    for line in failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
