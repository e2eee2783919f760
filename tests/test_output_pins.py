"""`run`, `oracle` and a dark-sky `compare` reproduce their recorded outputs byte for byte.

A change to the cell solve, the oracle or an output format that moves
any byte of these files fails here.  The dark-row profile runs the
oracle and the loop at g = 0, at the start and in the middle of a run.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from mpptbench.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE1 = ROOT / "configs" / "table1_adaptive.yaml"
# the benchmark's table1 input is this config, so its revised-adaptive trace is run's trace.csv
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())

DARK_ROWS_CSV = """\
time_s,irradiance_w_m2,temperature_c
0.0,0,25
0.1,800,25
0.3,0,25
0.4,600,30
"""
DARK_ROWS_SCENARIO = """\
panel: bp_sx150
profile: dark.csv
sim:
  duration_s: 0.6
"""


def sha256s(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}


def test_run_on_table1(tmp_path):
    assert main(["run", "--config", str(TABLE1), "--out", str(tmp_path), "--quiet"]) == 0
    assert sha256s(tmp_path) == {
        "trace.csv": REFERENCE["table1"]["fingerprint"]["sha256"]["trace_revised_adaptive.csv"],
        "metrics.txt": "9d81722b388e18f35300cc194fa74ddc9b10320036eb788634ee53eb02d8b157",
    }


def test_oracle_at_stc_on_table1(tmp_path, capsys):
    argv = ["oracle", "--config", str(TABLE1), "--out", str(tmp_path), "--g", "1000",
            "--temp", "25", "--quiet"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "v_mpp_v: 34.4635\ni_mpp_a: 4.41697\np_mpp_w: 152.224\n"
    assert sha256s(tmp_path) == {
        "pv_curve.csv": "6ba67545b6d3b2dedf723bf9765bbecabba9908382713097cfd9104be9a10b7d",
    }


def test_compare_on_a_profile_with_dark_rows(tmp_path):
    (tmp_path / "dark.csv").write_text(DARK_ROWS_CSV)
    config = tmp_path / "scenario.yaml"
    config.write_text(DARK_ROWS_SCENARIO)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert sha256s(out) == {
        "comparison.txt": "99f2fa6e2197abd952c25dfc07276a70d445782db656e79eaec4a5d971d845ee",
        "trace_conventional.csv":
            "4c1c6b44d092416b7d1d9f903abc97749a63f40c5c5e6f79974776b1773ea50e",
        "trace_revised_fixed.csv":
            "66dd05e279dd019b047122f0fe156de23dc9182ed94d69a7f58b7be19763b717",
        "trace_revised_adaptive.csv":
            "31966386f96a12736d200f6ba0bfbd9ea13a13222b84ccb0b9750c990e58a408",
    }
