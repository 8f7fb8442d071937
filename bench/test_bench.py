"""Tests of the benchmark harness: its output checks, its span arithmetic,
BENCHMARK.json against the harness, and a smoke run of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent


def _bench(tmp_root, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=tmp_root,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS


def test_strict_json_rejects_non_finite_and_unwritten(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"d": [[1.0, NaN]]}')
    with pytest.raises(run.CheckFailed, match="non-finite"):
        run.load_strict(path)
    path.write_text("")
    with pytest.raises(run.CheckFailed, match="not written"):
        run.load_strict(path)
    with pytest.raises(run.CheckFailed, match="missing"):
        run.load_strict(tmp_path / "absent.json")


def test_distortionless_and_max_di_checks():
    # d_n (2n+1) / 4pi summed over n = 0..2 is 1 for d = 4pi/9 * [1, 1, 1]
    d = [[4 * 3.141592653589793 / 9, 0.0]] * 3
    run.check_modal({"d": d}, "max-wng")
    with pytest.raises(run.CheckFailed, match="B\\(look\\)"):
        run.check_modal({"d": [[1.01 * re, im] for re, im in d]}, "dolph-chebyshev")
    run.check_metrics({"q": 9.0}, "max-di")
    with pytest.raises(run.CheckFailed, match="q ="):
        run.check_metrics({"q": 8.99}, "max-di")


def test_span_self_time_excludes_children():
    spans = [["cli", 0.0, 1.0, -1, None],
             ["synthesis.unit_weights", 0.1, 0.5, 0, None],
             ["sphmath.sh_matrix", 0.2, 0.3, 1, {"evals": 9, "shape": [2, 1]}],
             ["sphmath.sh_matrix", 0.6, 0.7, 0, {"evals": 9, "shape": [2, 1]}]]
    totals = run.span_totals([{"spans": spans, "counts": {"synthesis.pinv": 2}}])
    assert totals["cli"]["self_s"] == pytest.approx(0.5)
    assert totals["synthesis.unit_weights"]["self_s"] == pytest.approx(0.3)
    assert totals["sphmath.sh_matrix"]["calls"] == 2
    assert totals["sphmath.sh_matrix"]["evals"] == 18
    assert totals["synthesis.pinv"]["calls"] == 2
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(1.0)
    assert run.sh_shapes([{"spans": spans}]) == {(2, 1): 2}


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "design-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    """One untraced and one traced pass at tiny sizes, with every check."""
    result = _last_json(_bench(BENCH.parent, "--workload", workload, "--smoke", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.LAYER_METRICS)
    assert result["metrics"]["sphmath.sh_matrix.calls"]["value"] > 0


def test_smoke_end_to_end_all_workloads():
    """One command prints every end-to-end metric of every workload."""
    result = _last_json(_bench(BENCH.parent, "--workload", "all", "--smoke", "--seed", "5",
                               "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w}.{m}" for w in run.WORKLOADS for m in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
