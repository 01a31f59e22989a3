"""Smoke test of the benchmark itself: every workload at toy size, untraced
and traced, reports exactly its metrics; BENCHMARK.json agrees with spec.py;
a checkout without the package sources is refused; times are scaled by the
speed samples around them.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(n, u, b) for n, u, b, _source, _moves in spec.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = ({n: u for n, u, _b, _s, _m in spec.PER_LAYER} if trace
                else {n: u for n, u, _b, _bound in spec.END_TO_END})
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "reciprocity", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_scaled_time_skips_samples_and_follows_the_speed_around_each_stretch():
    import calib
    n = calib.NOMINAL_S
    clock = calib.Clock([(0.0, n), (2.0, 2 * n), (5.0, 2 * n)])
    # [n, 2] between samples of n and 2n; [2 + 2n, 5] between two of 2n
    expected = (2 - n) * 2 / 3 + (3 - 2 * n) / 2
    assert abs(clock.scaled(n, 5.0) - expected) < 1e-12
    assert clock.scaled(2.0, 2.0 + 2 * n) == 0.0
