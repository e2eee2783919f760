"""Piecewise-constant environment profiles (irradiance transients)."""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from pathlib import Path
from typing import NamedTuple

from .pvmodel import STC, EnvCondition

__all__ = [
    "EnvSegment",
    "EnvProfile",
    "builtin_table1_profile",
    "load_profile_csv",
    "celsius_to_kelvin",
    "PROFILE_CSV_HEADER",
]

PROFILE_CSV_HEADER = ["time_s", "irradiance_w_m2", "temperature_c"]


def celsius_to_kelvin(t_c: float) -> float:
    return t_c + 273.15


class EnvSegment(NamedTuple):
    t_start: float
    env: EnvCondition


class EnvProfile:
    """Ordered step changes of (irradiance, temperature), plus a duration.

    duration None means the profile has no end of its own, so a run
    must set one.  Treat an instance as read-only.
    """

    def __init__(self, segments: tuple[EnvSegment, ...], duration: float | None):
        if not segments:
            raise ValueError("profile needs at least one segment")
        if segments[0].t_start != 0.0:
            raise ValueError("first segment must start at t = 0.0")
        starts = tuple(s.t_start for s in segments)
        if not all(b > a for a, b in zip(starts, starts[1:])):  # written so that NaN fails
            raise ValueError("segment start times must be strictly increasing")
        if duration is not None and not duration > 0:
            raise ValueError("duration must be > 0")
        self.segments = segments
        self.duration = duration
        self._starts = starts

    def env_at(self, t: float) -> EnvCondition:
        """Environment active at time t (step changes, no interpolation).

        That is the last segment starting at or before t, or the first
        segment when t precedes it.  A binary search over the segment
        starts finds it, so a lookup costs O(log n) for any order of t.
        """
        # Searching from index 1 lets the first segment cover any t before it.
        return self.segments[bisect_right(self._starts, t, 1) - 1].env


# Benchmark cloud transient: 16 irradiance steps over 5 s at the STC temperature.
_TABLE1_STEPS = (
    (0.0, 1000.0), (0.2, 20.0), (0.7, 200.0), (0.9, 300.0),
    (1.2, 400.0), (1.5, 500.0), (1.9, 650.0), (2.5, 850.0),
    (3.0, 990.0), (4.0, 150.0), (4.2, 120.0), (4.3, 20.0),
    (4.4, 210.0), (4.5, 330.0), (4.8, 340.0), (4.9, 350.0),
)


def builtin_table1_profile() -> EnvProfile:
    """The bundled cloud-transient benchmark profile (5 s, 16 steps, STC temperature)."""
    segments = tuple(
        EnvSegment(t_start=t, env=EnvCondition(g=g, t=STC.t)) for t, g in _TABLE1_STEPS
    )
    return EnvProfile(segments=segments, duration=5.0)


def load_profile_csv(path: str | Path) -> EnvProfile:
    """Load a profile from CSV with header time_s,irradiance_w_m2,temperature_c.

    Temperatures are given in celsius and converted at this boundary.
    A value that is not a finite number, or that EnvCondition rejects,
    and a start time that is not 0.0 on the first row or not above the
    previous row's, is reported as path:row.
    Rows whose irradiance and temperature cells read alike share one
    EnvCondition, checked at the first of them.
    A row gives only a start time, so the profile has no end of its own
    (duration None): a run on it must set sim.duration_s.
    """
    path = Path(path)
    segments: list[EnvSegment] = []
    conditions: dict[tuple[str, str], EnvCondition] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != PROFILE_CSV_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(PROFILE_CSV_HEADER)}, got {header}"
            )
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{row_num}: expected 3 columns, got {len(row)}")
            try:
                t, g, temp_c = (float(cell) for cell in row)
                if not all(map(math.isfinite, (t, g, temp_c))):
                    raise ValueError("expected finite numbers")
                if not segments and t != 0.0:
                    raise ValueError("first segment must start at t = 0.0")
                if segments and t <= segments[-1].t_start:
                    raise ValueError("segment start times must be strictly increasing")
                key = (row[1], row[2])  # the text: as floats, -0.0 == 0.0 would lose a sign
                env = conditions.get(key)
                if env is None:
                    env = conditions[key] = EnvCondition(g=g, t=celsius_to_kelvin(temp_c))
                segments.append(EnvSegment(t, env))
            except ValueError as exc:
                raise ValueError(f"{path}:{row_num}: {exc}") from None
    if not segments:
        raise ValueError(f"{path}: profile has no data rows")
    return EnvProfile(segments=tuple(segments), duration=None)
