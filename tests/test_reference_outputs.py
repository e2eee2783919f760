"""`compare` reproduces the benchmark's recorded outputs byte for byte.

The inputs come from the benchmark's own generator and the fingerprint
(energy deficits plus the sha256 of every output file) from its own
checker, so this test and `bench/run.py` agree on what "identical" means.
The two shipped configs the benchmark does not run are pinned the same
way, with fingerprints recorded here; `small_array` takes the series and
parallel scaling of a 288 x 2 cell array through the solver.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mpptbench.cli import main

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")
outputs = _bench_module("outputs")


@pytest.mark.parametrize("name", ["table1", "steady", "cloud"])
def test_compare_matches_the_recorded_fingerprint(name, tmp_path):
    workload = workloads.generate(name, 0, tmp_path / "inputs")
    assert workload.inputs_sha256 == REFERENCE[name]["inputs_sha256"]
    out = tmp_path / "out"
    assert main(["compare", "--config", str(workload.config), "--out", str(out), "--quiet"]) == 0
    assert outputs.fingerprint(out) == REFERENCE[name]["fingerprint"]


SHIPPED_FINGERPRINTS = {
    "small_array": {
        "energy_deficit_j": {
            "conventional": "15.0618", "revised-fixed": "7.3072", "revised-adaptive": "8.72275",
        },
        "sha256": {
            "comparison.txt": "7231a16c8dbc4c5aefd8140f027ad6186a1f97b440d9a8ee4a010c33f573fc7f",
            "trace_conventional.csv":
                "b1b0e12b83d3cb6cc0f0aea45ba2aa894edc1e6ff79e47f74783434c80bf24ec",
            "trace_revised_fixed.csv":
                "62cd60f14e8d6cee0be66356a06fabed8eba53a54d3afeca5287d42fd3f70019",
            "trace_revised_adaptive.csv":
                "aed07fe9d80aa39eb00acbff362552cf74dedef66ee3a4b1c2433d8a66d9b3c1",
        },
    },
    "constant_stc_conventional": {
        "energy_deficit_j": {
            "conventional": "0.794317", "revised-fixed": "0.433087", "revised-adaptive": "0.433087",
        },
        "sha256": {
            "comparison.txt": "161f1b49f9069a6d3e798968c83236e0fd71a9e8f2b83f1a043cb3d65985857d",
            "trace_conventional.csv":
                "90cffbd6eae7ff1bf8ae7e2ce03cd717fd4981994c802e256afea04d1f89ade1",
            "trace_revised_fixed.csv":
                "0f5ec195f54cfe7d231eec10aae9e000a0988363ae7ad39d5c247f5397e08e9f",
            "trace_revised_adaptive.csv":
                "0f5ec195f54cfe7d231eec10aae9e000a0988363ae7ad39d5c247f5397e08e9f",
        },
    },
}


@pytest.mark.parametrize("name", sorted(SHIPPED_FINGERPRINTS))
def test_compare_matches_the_shipped_config_fingerprint(name, tmp_path):
    config = ROOT / "configs" / f"{name}.yaml"
    assert main(["compare", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert outputs.fingerprint(tmp_path) == SHIPPED_FINGERPRINTS[name]


def test_traced_pass_reproduces_table1_through_the_pinned_api(tmp_path, monkeypatch):
    """The benchmark's traced pass subclasses PVArray, MppOracle, EnvProfile,
    BuckBoost and MpptController and rebuilds them from their attributes,
    so a changed signature fails here, not only in the benchmark."""
    monkeypatch.syspath_prepend(str(BENCH))  # for its `from outputs import ...`
    traced_pass = _bench_module("traced_pass")
    workload = workloads.generate("table1", 0, tmp_path / "inputs")
    tracer = traced_pass.Tracer()
    out = tmp_path / "out"
    traced_pass.traced_compare(workload.config, out, tracer)
    assert outputs.fingerprint(out) == REFERENCE["table1"]["fingerprint"]
    metrics = {name: value for name, (value, _) in traced_pass.layer_metrics(tracer, out).items()}
    assert metrics["pvmodel.scalar_calls"] == 2706
    assert metrics["pvmodel.vector_calls"] == 45
    assert metrics["oracle.find_misses"] == 45
    assert metrics["harness.steps"] == 1500
