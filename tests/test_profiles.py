"""Profile tests: the built-in transient, lookups, CSV round trips."""

from __future__ import annotations

import math
import random
import re

import pytest

from mpptbench import profiles
from mpptbench.profiles import (
    EnvProfile,
    EnvSegment,
    builtin_table1_profile,
    celsius_to_kelvin,
    load_profile_csv,
)
from mpptbench.pvmodel import EnvCondition


def test_builtin_profile_shape():
    profile = builtin_table1_profile()
    assert len(profile.segments) == 16
    assert profile.segments[0].env.g == 1000.0
    assert profile.duration == 5.0
    assert all(seg.env.t == 298.0 for seg in profile.segments)


def test_builtin_profile_takes_its_temperature_from_stc(monkeypatch):
    monkeypatch.setattr(profiles, "STC", EnvCondition(g=1000.0, t=300.0))
    assert {seg.env.t for seg in builtin_table1_profile().segments} == {300.0}


def test_builtin_profile_lookup_is_piecewise_constant():
    profile = builtin_table1_profile()
    assert profile.env_at(1.0).g == 300.0   # segment starting at 0.9 s
    assert profile.env_at(4.85).g == 340.0  # segment starting at 4.8 s
    assert profile.env_at(0.0).g == 1000.0
    assert profile.env_at(0.19999).g == 1000.0
    assert profile.env_at(0.2).g == 20.0
    assert profile.env_at(99.0).g == 350.0  # sticks at the final segment


def linear_scan_env_at(profile: EnvProfile, t: float) -> EnvCondition:
    """The original definition of env_at: a scan that stops at the first later start."""
    current = profile.segments[0].env
    for seg in profile.segments:
        if seg.t_start <= t:
            current = seg.env
        else:
            break
    return current


def test_env_at_matches_the_linear_scan_definition():
    rng = random.Random(20140520)
    t, segments = 0.0, []
    for _ in range(1200):
        segments.append(EnvSegment(t, EnvCondition(g=float(rng.randrange(0, 1001)), t=298.0)))
        t += rng.choice((0.01, 0.02, 0.1, rng.uniform(1e-6, 0.5)))
    profile = EnvProfile(segments=tuple(segments), duration=t)
    starts = [seg.t_start for seg in segments]
    between = [0.5 * (a + b) for a, b in zip(starts, starts[1:])]
    after = [starts[-1] + 1e-9, starts[-1] + 1.0, t + 100.0]
    times = [0.0, -1.0, *starts, *between, *after]
    rng.shuffle(times)  # any order of lookups gives the same answers
    for when in times:
        assert profile.env_at(when) is linear_scan_env_at(profile, when), when


def test_validation():
    seg = EnvSegment(0.0, EnvCondition(g=100.0, t=298.0))
    with pytest.raises(ValueError):
        EnvProfile(segments=(), duration=1.0)
    with pytest.raises(ValueError):
        EnvProfile(segments=(EnvSegment(0.5, seg.env),), duration=1.0)
    with pytest.raises(ValueError):
        EnvProfile(
            segments=(seg, EnvSegment(0.0, seg.env)), duration=1.0
        )
    with pytest.raises(ValueError):
        EnvProfile(segments=(seg,), duration=0.0)
    assert EnvProfile(segments=(seg,), duration=None).duration is None


def test_csv_round_trip(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text(
        "time_s,irradiance_w_m2,temperature_c\n"
        "0.0,1000,25\n"
        "0.5,400,25\n"
        "1.5,800,30\n"
    )
    profile = load_profile_csv(path)
    assert len(profile.segments) == 3
    assert profile.env_at(0.7).g == 400.0
    assert profile.env_at(0.0).t == celsius_to_kelvin(25.0) == 298.15
    assert profile.env_at(2.0).t == pytest.approx(303.15)
    assert profile.duration is None  # a row gives only a start time


def test_csv_rows_with_identical_cells_share_one_condition(tmp_path):
    path = tmp_path / "repeats.csv"
    path.write_text(
        "time_s,irradiance_w_m2,temperature_c\n"
        "0.0,800,25\n0.1,1000,25\n0.2,800,25\n0.3,1000,25\n0.4,800,30\n"
    )
    env = [seg.env for seg in load_profile_csv(path).segments]
    assert env[2] is env[0] and env[3] is env[1]
    assert len({id(e) for e in env}) == 3
    assert env[4] == EnvCondition(g=800.0, t=celsius_to_kelvin(30.0))


def test_csv_negative_zero_irradiance_keeps_its_sign(tmp_path):
    """0.0 == -0.0, so rows are matched on their text, not on the float."""
    path = tmp_path / "dark.csv"
    path.write_text("time_s,irradiance_w_m2,temperature_c\n0.0,0,25\n0.1,-0,25\n0.2,0,25\n")
    signs = [math.copysign(1.0, seg.env.g) for seg in load_profile_csv(path).segments]
    assert signs == [1.0, -1.0, 1.0]


def test_csv_blank_rows_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n\n , ,\n0.5,400,25\n")
    assert [seg.env.g for seg in load_profile_csv(path).segments] == [1000.0, 400.0]


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,irradiance\n0,1000\n")
    with pytest.raises(ValueError, match="header"):
        load_profile_csv(path)


def test_csv_bad_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,irradiance_w_m2,temperature_c\n0.0,bright,25\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        load_profile_csv(path)


def test_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("time_s,irradiance_w_m2,temperature_c\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_profile_csv(path)


@pytest.mark.parametrize(
    "rows, where",
    [
        ("0.0,1000,25\n0.5,400,25\n0.5,800,25\n",
         "dup.csv:4: segment start times must be strictly increasing"),
        ("0.0,1000,25\n0.5,400,25\n0.2,800,25\n",
         "dup.csv:4: segment start times must be strictly increasing"),
        ("0.1,1000,25\n0.5,400,25\n", "dup.csv:2: first segment must start at t = 0.0"),
    ],
    ids=["repeated", "decreasing", "late_first_row"],
)
def test_csv_start_time_errors_name_their_row(tmp_path, rows, where):
    path = tmp_path / "dup.csv"
    path.write_text("time_s,irradiance_w_m2,temperature_c\n" + rows)
    with pytest.raises(ValueError, match=re.escape(where)):
        load_profile_csv(path)
