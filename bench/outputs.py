"""Correctness checks on the files one `compare` pass wrote.

The fingerprint of a pass is each controller's energy deficit plus the
sha256 of comparison.txt and of every trace CSV; two passes ran the same
program on the same input only if their fingerprints are equal.  The
invariants hold for any correct pass, whatever the input.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

# File names `mpptbench compare` writes, per controller kind.
TRACE_FILES = {
    "conventional": "trace_conventional.csv",
    "revised-fixed-bound": "trace_revised_fixed.csv",
    "revised-adaptive-bound": "trace_revised_adaptive.csv",
}
COMPARISON = "comparison.txt"

_DEFICIT_PREFIX = "energy_deficit_j: "
# Ordering lines of comparison.txt that must read True on table1.
TABLE1_ORDERINGS = (
    "energy_deficit(conventional) > energy_deficit(revised-adaptive): ",
    "max_voltage_overshoot(revised-adaptive) <= max_voltage_overshoot(revised-fixed): ",
)
# The oracle is an upper bound on the power at any operating point.
P_DEVIATION_RTOL = 1e-9


def fingerprint(out_dir: Path) -> dict:
    """Energy deficit per controller and sha256 per output file.

    Raises OSError when an output file is missing.
    """
    text = (out_dir / COMPARISON).read_text()
    # The last such line is the orderings summary; earlier ones are per controller.
    deficits = next(line for line in reversed(text.splitlines()) if line.startswith(_DEFICIT_PREFIX))
    names = [COMPARISON, *TRACE_FILES.values()]
    return {
        "energy_deficit_j": dict(
            item.split("=") for item in deficits[len(_DEFICIT_PREFIX):].split()
        ),
        "sha256": {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names},
    }


def invariant_violations(out_dir: Path, workload: str) -> list[str]:
    """Broken physical invariants of a pass's outputs, one line each."""
    found = []
    for name in TRACE_FILES.values():
        with (out_dir / name).open(newline="") as fh:
            for row in csv.DictReader(fh):
                p_mpp = float(row["p_mpp_w"])
                if float(row["p_deviation_w"]) < -P_DEVIATION_RTOL * p_mpp:
                    found.append(f"{name} t={row['t_s']}: power above the oracle MPP")
    if workload == "table1":
        lines = (out_dir / COMPARISON).read_text().splitlines()
        for prefix in TABLE1_ORDERINGS:
            if prefix + "True" not in lines:
                found.append(f"{COMPARISON}: ordering does not hold: {prefix.rstrip(': ')}")
    return found
