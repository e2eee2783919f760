"""The compare parent's peak memory does not grow with the profile's segment count.

Each child writes its own trace and report, and the parent copies the
reports into comparison.txt a chunk at a time, so neither crosses the
pipe or sits whole in the parent, and a CSV profile shares one
EnvCondition per distinct condition.  So a 1,500-segment profile may
raise the parent's peak RSS by less than 0.75 MiB over a one-segment
profile of the same length; a report held whole adds about 1 MiB.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# Runs main() and prints its exit code and the process's own peak RSS in KiB on
# stderr.  That is VmHWM, the high-water mark of the process's own memory map:
# ru_maxrss would keep the spawning test process's larger peak across exec.
MEASURE = """\
import re, sys
from mpptbench.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, re.search(r"VmHWM:\\s+(\\d+) kB", fh.read())[1], file=sys.stderr)
"""

HEADER = "time_s,irradiance_w_m2,temperature_c\n"


def peak_rss_kib(tmp_path: Path, name: str, rows: str) -> int:
    (tmp_path / f"{name}.csv").write_text(HEADER + rows)
    config = tmp_path / f"{name}.yaml"
    config.write_text(
        f"panel: bp_sx150\nprofile: {name}.csv\nsim:\n  duration_s: 30.0\n"
        f"output_dir: {tmp_path / name}\n"
    )
    # -B: both runs see the same bytecode cache, so neither pays for compiling alone
    flags = ["-B", *(["-X", "dev"] if sys.flags.dev_mode else [])]
    done = subprocess.run(
        [sys.executable, *flags, "-c", MEASURE, "compare", "--config", str(config)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, rss = done.stderr.split()[-2:]
    assert code == "0", done.stderr
    assert done.stdout == (tmp_path / name / "comparison.txt").read_text()
    return int(rss)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_the_parents_peak_rss_does_not_grow_with_the_segment_count(tmp_path):
    rng = random.Random(20140520)
    # a new level every 20 ms, at most 41 distinct conditions: a fast cloud transient
    many = "".join(f"{0.02 * k:.2f},{rng.randrange(0, 1001, 25)},25\n" for k in range(1500))
    one_kib = peak_rss_kib(tmp_path, "one", "0.0,800,25\n")
    many_kib = peak_rss_kib(tmp_path, "many", many)
    assert abs(many_kib - one_kib) < 0.75 * 1024, (one_kib, many_kib)
