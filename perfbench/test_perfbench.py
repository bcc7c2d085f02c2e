"""The benchmark's own checks.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the benchmark end to end (a few minutes): the known-answer gate
must catch a wrong answer, the benchmark must refuse to run without the
package sources, and every per-layer metric must see work on the
workload it is meant to move on, with identical counts in two traced
runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns("__pycache__")

# per-layer metrics that must be nonzero on each workload
SHOULD_MOVE = {
    "tsh_verify": [
        "umbrae.self_s", "umbrae.calls", "umbrae.dot_t.calls", "umbrae.dot_t.cum_s",
        "umbrae.dot_t.repeat_frac", "multiindex.self_s", "multiindex.partitions.calls",
        "polynomials.self_s", "polynomials.calls", "polynomials.Poly.__init__.calls",
        "polynomials.Poly.__mul__.calls", "polynomials.Poly.__add__.calls",
        "polynomials.Poly.subs.calls", "polynomials.max_coeff_bits",
        "fractions.self_s", "fractions.Fraction.calls", "processes.self_s",
        "processes.build.cum_s", "harmonic.self_s", "harmonic.tsh_polynomial.calls",
        "harmonic.tsh_polynomial.cum_s", "harmonic.verify_harmonicity.cum_s",
        "harmonic.expected_value_zero.cum_s", "harmonic.decompose.cum_s",
        "families.self_s",
    ],
    "series_gf": [
        "series.self_s", "series.calls", "series.TruncatedSeries.__mul__.calls",
        "series.series_subst.calls", "series.series_exp.cum_s", "series.series_log.cum_s",
        "series.series_reversion.cum_s", "series.vector_reversion.cum_s",
        "processes.self_s", "polynomials.self_s", "polynomials.Poly.__mul__.calls",
        "fractions.self_s", "fractions.Fraction.calls",
    ],
    "fresh_arrays": [
        "umbrae.self_s", "umbrae.dot_t.calls", "umbrae.dot_t.cum_s",
        "umbrae.dot_n.cum_s", "umbrae.dot_t_beta.cum_s", "multiindex.self_s",
        "multiindex.partitions.calls",
    ],
    "mc_paths": [
        "montecarlo.self_s", "montecarlo.sample_marginals.cum_s",
        "montecarlo.simulate_and_test.cum_s", "numpy.self_s", "cli.self_s",
        "cli.main.cum_s",
    ],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_tree(dest: Path, with_package: bool = True) -> None:
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=SKIP)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_package:
        shutil.copytree(ROOT / "src" / "umbrakit", dest / "src" / "umbrakit", ignore=SKIP)


def test_gate_catches_a_wrong_answer(tmp_path):
    copy_tree(tmp_path)
    series = tmp_path / "src" / "umbrakit" / "series.py"
    text = series.read_text()
    newton_steps = "steps = max(1, f.order.bit_length() + 1)"
    assert newton_steps in text
    series.write_text(text.replace(newton_steps, "steps = 1"))
    proc = bench("--workload", "series_gf", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    result = result_of(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "FAILED" in proc.stdout and "compositional_inverse" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    copy_tree(tmp_path, with_package=False)
    proc = bench("--workload", "tsh_verify", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(SHOULD_MOVE))
def test_layers_see_work_and_counts_repeat(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append({k: v["value"] for k, v in result_of(proc)["metrics"].items()})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(runs[0]) == sorted(m["name"] for m in spec["per_layer"])
    silent = [m for m in SHOULD_MOVE[workload] if not runs[0][m] > 0]
    assert not silent, f"no work seen on {workload}: {silent}"
    counts = [m for m in runs[0]
              if m.endswith((".calls", ".repeat_frac", ".max_coeff_bits"))]
    assert {m: runs[0][m] for m in counts} == {m: runs[1][m] for m in counts}
