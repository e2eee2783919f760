"""`compare` reproduces the benchmark's recorded outputs byte for byte.

The inputs come from the benchmark's own generator and the fingerprint
(energy deficits plus the sha256 of every output file) from its own
checker, so this test and `bench/run.py` agree on what "identical" means.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mpptbench.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
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
