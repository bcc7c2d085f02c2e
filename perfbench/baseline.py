"""Ten runs per workload and one traced run, summarised into a JSON file.

    python3 perfbench/baseline.py --out perfbench/baseline_seed.json
    python3 perfbench/baseline.py --out /tmp/b.json --workloads tsh_verify --seeds 1,2,3,4,5

For each workload it runs ``run.py --trace 0`` once per seed, one at a
time, and reports for every end-to-end metric the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``), and the
spread, the interquartile distance as a share of the median, next to
the metric's bound in BENCHMARK.json.  One ``--trace 1`` run at the first
seed adds the per-layer numbers.  Any failed op stops it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                 + proc.stdout + proc.stderr)
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def summary(values: list[float], unit: str, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "bound": bound,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in seeds:
            prov, result = run(workload, seed, seconds, 0)
            out.setdefault("provenance", prov)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        _, traced = run(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": {name: summary(v, unit, bounds[name])
                           for name, (unit, v) in values.items()},
            "per_layer": traced["metrics"],
        }
        for name, s in out["workloads"][workload]["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {s['median']:12.4f} {s['unit']:3s} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)
    out["provenance"] = {k: v for k, v in out["provenance"].items()
                         if k in ("commit", "nproc", "cpu", "python", "numpy")}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
