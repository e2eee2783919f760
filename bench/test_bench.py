"""Smoke tests of the benchmark itself, at tiny workload lengths.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import outputs
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_DURATION_S = {"table1": None, "steady": 0.5, "cloud": 0.5}


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_run_emits_every_declared_metric(name, trace):
    result, record = run.run_benchmark(
        name, seed=7, seconds=0, trace=trace, duration_s=TINY_DURATION_S[name]
    )
    assert result["correct"], record["passes"]
    assert result["failed"] == 0 and result["attempted"] == len(record["passes"])
    section = "per_layer" if trace else "end_to_end"
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared(section)
    kinds = {p["kind"] for p in record["passes"]}
    # Traced passes passed the same fingerprint check as the CLI passes,
    # so their outputs are byte-identical to the untraced CLI's.
    assert kinds >= ({"cli", "traced"} if trace else {"cli"})
    assert record["checked_against_reference"] == (name == "table1")


def test_table1_layer_counts_are_exact():
    result, _ = run.run_benchmark("table1", seed=7, seconds=0, trace=True)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["oracle.find_misses"] == 45
    assert metrics["pvmodel.scalar_calls"] == 2706
    assert metrics["pvmodel.vector_calls"] == 45
    assert metrics["harness.steps"] == 1500
    assert metrics["profiles.segments"] == 16


def test_wrong_outputs_fail_every_pass(monkeypatch):
    monkeypatch.setattr(run, "_reference_for", lambda workload: {"sha256": {}})
    with pytest.raises(run.BenchError, match="fingerprint differs"):
        run.run_benchmark("steady", seed=7, seconds=0, trace=False, duration_s=0.2)


@pytest.mark.parametrize("name", ["steady", "cloud"])
def test_inputs_follow_the_seed(name, tmp_path):
    a = workloads.generate(name, 3, tmp_path / "a", duration_s=1.0)
    b = workloads.generate(name, 3, tmp_path / "b", duration_s=1.0)
    c = workloads.generate(name, 4, tmp_path / "c", duration_s=1.0)
    assert a.inputs_sha256 == b.inputs_sha256 != c.inputs_sha256
    assert a.steps == 100


@pytest.mark.parametrize("seed", range(20))
def test_cloud_walk_visits_every_level_in_steps(seed):
    n = round(workloads.CLOUD_DURATION_S / workloads.CLOUD_SEGMENT_S)
    levels = workloads._cloud_levels(seed, n)
    step = workloads.CLOUD_STEP_W_M2
    assert set(levels) == set(range(workloads.CLOUD_MIN_W_M2, workloads.CLOUD_MAX_W_M2 + 1, step))
    assert {b - a for a, b in zip(levels, levels[1:])} == {-step, step}


def test_invariants_flag_power_above_the_oracle(tmp_path):
    header = "t_s,p_mpp_w,p_deviation_w\n"
    for name in outputs.TRACE_FILES.values():
        (tmp_path / name).write_text(header + "0.0,100.0,0.0\n")
    assert outputs.invariant_violations(tmp_path, "steady") == []
    (tmp_path / "trace_conventional.csv").write_text(header + "0.01,100.0,-0.001\n")
    assert len(outputs.invariant_violations(tmp_path, "steady")) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copyfile(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
