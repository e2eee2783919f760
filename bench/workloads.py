"""Seeded inputs for the benchmark workloads.

Each workload is a scenario YAML (plus a profile CSV where it needs one)
written into a fresh directory.  The program under test only ever sees
these files; the same seed always yields byte-identical files.

* ``table1``: the shipped ``configs/table1_adaptive.yaml``, copied as is.
  The seed does not change it.
* ``steady``: one 1000 W/m^2, 25 degC segment with seeded measurement
  noise, so the time goes to the control loop and not to the oracle.
* ``cloud``: a new irradiance level every 20 ms from a seeded random
  walk, so profile lookup over thousands of segments carries real work.

Both generated scenarios set ``sim.duration_s`` explicitly: a CSV
profile without it ends at its last row's start time, which would
silently shorten the run.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
TABLE1_CONFIG = ROOT / "configs" / "table1_adaptive.yaml"

WORKLOADS = ("table1", "steady", "cloud")

STEADY_DURATION_S = 20.0
STEADY_NOISE_V = 0.05
STEADY_NOISE_I = 0.005

CLOUD_DURATION_S = 30.0
CLOUD_SEGMENT_S = 0.02
CLOUD_STEP_W_M2 = 25
CLOUD_MIN_W_M2 = 50
CLOUD_MAX_W_M2 = 1000
CLOUD_DRIFT = 0.6

_SCENARIO = """\
panel: bp_sx150
converter:
  v_bus: auto
controller:
  kind: revised-adaptive-bound
profile: {profile}
sim:
  control_interval_s: 0.01
  duration_s: {duration_s!r}
  initial_duty: auto
{noise}output_dir: out
"""


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload at one seed."""

    name: str
    seed: int
    config: Path
    inputs_sha256: dict[str, str]  # file name -> sha256 of its bytes
    steps: int  # control steps per controller


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cloud_levels(seed: int, n: int) -> list[int]:
    """Irradiance random walk in fixed steps that sweeps the whole range.

    Each step goes toward the current target end of the range with
    probability CLOUD_DRIFT, else away from it; reaching an end turns the
    target round.  A full-length walk visits every level for any seed,
    so the seed changes the order of conditions but not how many
    distinct ones the oracle must solve.
    """
    rng = random.Random(seed)
    g = rng.randrange(CLOUD_MIN_W_M2, CLOUD_MAX_W_M2 + 1, CLOUD_STEP_W_M2)
    target = rng.choice((CLOUD_MIN_W_M2, CLOUD_MAX_W_M2))
    levels = []
    for _ in range(n):
        levels.append(g)
        if g == target:
            target = CLOUD_MIN_W_M2 + CLOUD_MAX_W_M2 - target
        toward = CLOUD_STEP_W_M2 if target > g else -CLOUD_STEP_W_M2
        step = toward if rng.random() < CLOUD_DRIFT else -toward
        if not CLOUD_MIN_W_M2 <= g + step <= CLOUD_MAX_W_M2:
            step = -step
        g += step
    return levels


def _write_profile(path: Path, rows: list[tuple[float, int]]) -> None:
    lines = ["time_s,irradiance_w_m2,temperature_c"]
    lines += [f"{t:.2f},{g},25" for t, g in rows]
    path.write_text("\n".join(lines) + "\n")


def generate(name: str, seed: int, directory: Path, duration_s: float | None = None) -> Workload:
    """Write the inputs of workload `name` into `directory`.

    duration_s overrides the simulated length of ``steady`` and ``cloud``
    (for quick smoke runs); ``table1`` always runs as shipped.
    """
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / f"{name}.yaml"
    if name == "table1":
        if duration_s is not None:
            raise ValueError("table1 runs as shipped; its duration cannot be overridden")
        shutil.copyfile(TABLE1_CONFIG, config)
        files = [config]
    elif name == "steady":
        duration_s = STEADY_DURATION_S if duration_s is None else duration_s
        profile = directory / "steady.csv"
        _write_profile(profile, [(0.0, 1000)])
        noise = (
            f"  noise_v: {STEADY_NOISE_V!r}\n"
            f"  noise_i: {STEADY_NOISE_I!r}\n"
            f"  noise_seed: {seed}\n"
        )
        config.write_text(_SCENARIO.format(profile=profile.name, duration_s=duration_s, noise=noise))
        files = [config, profile]
    elif name == "cloud":
        duration_s = CLOUD_DURATION_S if duration_s is None else duration_s
        profile = directory / "cloud.csv"
        n = round(duration_s / CLOUD_SEGMENT_S)
        levels = _cloud_levels(seed, n)
        _write_profile(profile, [(k * CLOUD_SEGMENT_S, g) for k, g in enumerate(levels)])
        config.write_text(_SCENARIO.format(profile=profile.name, duration_s=duration_s, noise=""))
        files = [config, profile]
    else:
        raise ValueError(f"unknown workload {name!r}, expected one of {', '.join(WORKLOADS)}")

    sim = yaml.safe_load(config.read_text())["sim"]
    return Workload(
        name=name,
        seed=seed,
        config=config,
        inputs_sha256={f.name: _sha256(f) for f in files},
        steps=round(sim["duration_s"] / sim["control_interval_s"]),
    )
