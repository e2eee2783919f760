"""MPP oracle tests: optimality against a coarse grid, determinism, caching."""

from __future__ import annotations

import dataclasses

import pytest

from mpptbench.oracle import MppOracle, find_mpp, pv_curve
from mpptbench.pvmodel import EnvCondition

# (g, t) at full sun, a hot dim sky and a cold near-dark one
PEAK_CONDITIONS = ((1000.0, 298.0), (150.0, 320.0), (20.0, 275.0))


def test_zero_irradiance_degenerate(bp_panel):
    result = find_mpp(bp_panel, EnvCondition(g=0.0, t=298.0))
    assert result.p_mpp == 0.0
    assert result.v_mpp == 0.0
    assert result.i_mpp == 0.0


def test_stc_power_near_rating(bp_panel, stc):
    result = find_mpp(bp_panel, stc)
    rated = 150.0  # the BP SX 150 datasheet's rating at STC
    assert rated * 0.95 <= result.p_mpp <= rated * 1.05
    # regression pin for the shipped preset
    assert result.p_mpp == pytest.approx(152.341, abs=0.01)
    assert result.v_mpp == pytest.approx(34.49, abs=0.01)


def test_power_consistency(bp_panel, stc):
    result = find_mpp(bp_panel, stc)
    assert result.p_mpp == result.v_mpp * result.i_mpp


def test_monotone_in_irradiance(bp_panel):
    p = [find_mpp(bp_panel, EnvCondition(g=g, t=298.0)).p_mpp for g in (200.0, 500.0, 1000.0)]
    assert p[0] < p[1] < p[2]


@pytest.mark.parametrize("g, t", PEAK_CONDITIONS)
def test_beats_every_grid_sample(bp_panel, g, t):
    env = EnvCondition(g=g, t=t)
    result = find_mpp(bp_panel, env)
    voltage, current = pv_curve(bp_panel, env)
    assert voltage[0] == 0.0 and voltage[-1] == bp_panel.open_circuit_voltage(env)
    assert result.p_mpp >= (voltage * current).max()


def test_optimality_near_the_peak(bp_panel):
    for g, t in PEAK_CONDITIONS:
        env = EnvCondition(g=g, t=t)
        result = find_mpp(bp_panel, env)
        v_oc = bp_panel.open_circuit_voltage(env)
        eps = 1e-3 * v_oc
        for v_side in (result.v_mpp - eps, result.v_mpp + eps):
            p_side = v_side * float(bp_panel.current_at(v_side, env))
            assert p_side <= result.p_mpp
        # finite-difference slope at the optimum is flat
        h = 1e-4
        p_plus = (result.v_mpp + h) * float(bp_panel.current_at(result.v_mpp + h, env))
        p_minus = (result.v_mpp - h) * float(bp_panel.current_at(result.v_mpp - h, env))
        slope = abs(p_plus - p_minus) / (2 * h)
        assert slope < 1e-3 * result.p_mpp / result.v_mpp


def test_deterministic(bp_panel, stc):
    a = find_mpp(bp_panel, stc)
    b = find_mpp(bp_panel, stc)
    assert dataclasses.astuple(a) == dataclasses.astuple(b)


def test_cache_returns_identical_result(bp_panel, stc):
    oracle = MppOracle(bp_panel)
    first = oracle.find(stc)
    second = oracle.find(stc)
    assert first is second
    assert oracle.find(EnvCondition(g=500.0, t=298.0)) is not first
