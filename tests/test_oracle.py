"""MPP oracle tests: optimality against a coarse grid, determinism, caching."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpptbench.oracle import GRID_POINTS, MppOracle, MppResult, _golden_max, find_mpp, pv_curve
from mpptbench.pvmodel import ArrayConfig, EnvCondition, PVArray

# (g, t) at full sun, a hot dim sky and a cold near-dark one
PEAK_CONDITIONS = ((1000.0, 298.0), (150.0, 320.0), (20.0, 275.0))
LAYOUTS = (ArrayConfig(1, 1), ArrayConfig(72, 1), ArrayConfig(36, 4))
WIDE_LAYOUTS = (*LAYOUTS, ArrayConfig(288, 2))


def bits(result):
    return [x.hex() for x in dataclasses.astuple(result)]


def sweep_mpp(array, env, voltage, current):
    """The MPP refined from a whole sweep: golden-section search between the
    neighbours of the first best sample of consecutive pv_curve samples."""
    best = max(range(len(voltage)), key=lambda k: voltage[k] * current[k])
    lo = voltage[max(0, best - 1)]
    hi = voltage[min(len(voltage) - 1, best + 1)]
    v_mpp, _ = _golden_max(lambda v: v * array.current_at(v, env), lo, hi)
    i_mpp = array.current_at(v_mpp, env)
    return MppResult(v_mpp=v_mpp, i_mpp=i_mpp, p_mpp=v_mpp * i_mpp)


def numpy_find_mpp(array, env):
    """find_mpp as numpy chose its samples: np.linspace's grid, argmin for the sample
    nearest the explicit MPP voltage, argmax for the best of its five-sample window."""
    voltage = np.linspace(0.0, array.open_circuit_voltage(env), GRID_POINTS)
    nearest = int(np.abs(voltage - array.mpp_voltage(env)).argmin())
    window = voltage[max(0, nearest - 2) : nearest + 3]
    best = int(np.argmax(window * np.asarray(array.current_at(window.tolist(), env))))
    # the best sample and its neighbours, whose first largest power is the best sample,
    # give sweep_mpp the bracket the whole window gives
    bracket = window[max(0, best - 1) : best + 2].tolist()
    return sweep_mpp(array, env, bracket, array.current_at(bracket, env))


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
    assert result.p_mpp >= (np.asarray(voltage) * np.asarray(current)).max()


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


@given(
    layout=st.sampled_from(LAYOUTS),
    g=st.floats(-4.0, 7.0).map(lambda e: 10.0**e),  # log-uniform in [1e-4, 1e7] W/m^2
    t=st.floats(150.0, 750.0),
)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_five_samples_refine_as_the_whole_sweep_does(bp_cell, layout, g, t):
    array = PVArray(bp_cell, layout)
    env = EnvCondition(g=g, t=t)
    voltage, current = pv_curve(array, env)
    assert bits(find_mpp(array, env)) == bits(sweep_mpp(array, env, voltage, current))
    # the sweep's best sample is the one nearest the explicit MPP voltage, or its neighbour
    nearest = int(np.abs(np.asarray(voltage) - array.mpp_voltage(env)).argmin())
    assert abs(int(np.argmax(np.asarray(voltage) * np.asarray(current))) - nearest) <= 1


@pytest.mark.parametrize("g", [0.0, -0.0])
@pytest.mark.parametrize("layout", LAYOUTS, ids=str)
def test_zero_irradiance_matches_the_whole_sweep(bp_cell, layout, g):
    array = PVArray(bp_cell, layout)
    env = EnvCondition(g=g, t=298.0)
    assert array.mpp_voltage(env) == 0.0
    assert bits(find_mpp(array, env)) == bits(sweep_mpp(array, env, *pv_curve(array, env)))


def test_in_deep_dark_the_bracket_is_clamped_at_the_last_sample(bp_panel):
    """At 1e-8 W/m^2 every current solves to I_ph within SOLVER_TOL_A, so the
    sampled power rises to the last sample: the whole sweep refines between
    its last two samples, find_mpp between its window's, and the two differ."""
    env = EnvCondition(g=1e-8, t=298.0)
    voltage, current = pv_curve(bp_panel, env)
    assert int(np.argmax(np.asarray(voltage) * np.asarray(current))) == len(voltage) - 1
    swept = sweep_mpp(bp_panel, env, voltage, current)
    assert voltage[-2] <= swept.v_mpp <= voltage[-1]
    found = find_mpp(bp_panel, env)
    v_star = bp_panel.mpp_voltage(env)
    assert abs(found.v_mpp - v_star) < 3 * voltage[1] < voltage[-1] - v_star


@given(
    layout=st.sampled_from(WIDE_LAYOUTS),
    g=st.sampled_from([0.0, -0.0]) | st.floats(-9.0, 8.0).map(lambda e: 10.0**e),
    t=st.floats(120.0, 1000.0),
)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_the_float_grid_is_numpys_linspace(bp_cell, layout, g, t):
    array = PVArray(bp_cell, layout)
    array.current_at = lambda voltage, env: None  # the grid alone: no solve to fail at 1e8 W/m^2
    env = EnvCondition(g=g, t=t)
    voltage, _ = pv_curve(array, env)
    reference = np.linspace(0.0, array.open_circuit_voltage(env), GRID_POINTS)
    assert [v.hex() for v in voltage] == [v.hex() for v in reference.tolist()]


@given(
    layout=st.sampled_from(WIDE_LAYOUTS),
    g=st.floats(-9.0, 8.0).map(lambda e: 10.0**e),  # log-uniform in [1e-9, 1e8] W/m^2
    t=st.floats(120.0, 1000.0),
)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_find_mpp_picks_numpys_samples(bp_cell, layout, g, t):
    """Also where the five samples leave the whole sweep: deep dark and hot cells."""
    array = PVArray(bp_cell, layout)
    env = EnvCondition(g=g, t=t)
    assert bits(find_mpp(array, env)) == bits(numpy_find_mpp(array, env))


@pytest.mark.parametrize(
    "g, t, case",
    [
        (1000.0, 814.0, "v_mpp < 0 < V_oc"),
        (2000.0, 813.0, "0 < V_oc < v_mpp"),
        (1e-9, 700.0, "V_oc = 0 < v_mpp"),
        (1000.0, 850.0, "V_oc = 0 < v_mpp"),
        (0.0, 298.0, "V_oc = v_mpp = 0"),
        (-0.0, 298.0, "V_oc = v_mpp = 0"),
    ],
)
def test_find_mpp_clamps_as_numpy_does(bp_panel, g, t, case):
    env = EnvCondition(g=g, t=t)
    v_oc, v_mpp = bp_panel.open_circuit_voltage(env), bp_panel.mpp_voltage(env)
    assert {
        "v_mpp < 0 < V_oc": v_mpp < 0 < v_oc,
        "0 < V_oc < v_mpp": 0 < v_oc < v_mpp,
        "V_oc = 0 < v_mpp": v_oc == 0 < v_mpp,
        "V_oc = v_mpp = 0": v_oc == v_mpp == 0,
    }[case]
    assert bits(find_mpp(bp_panel, env)) == bits(numpy_find_mpp(bp_panel, env))


@given(k=st.integers(0, GRID_POINTS - 2), share=st.sampled_from([0.5]) | st.floats(0.0, 1.0))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_find_mpp_takes_the_first_of_two_equally_near_samples(bp_cell, stc, k, share):
    """With the MPP voltage pinned between samples k and k + 1; their midpoint is
    often exactly equally near both, where argmin takes k and round() may not."""
    array = PVArray(bp_cell, ArrayConfig(72, 1))
    grid = np.linspace(0.0, array.open_circuit_voltage(stc), GRID_POINTS)
    v_mpp = float(grid[k] + share * (grid[k + 1] - grid[k]))
    array.mpp_voltage = lambda env: v_mpp
    assert bits(find_mpp(array, stc)) == bits(numpy_find_mpp(array, stc))
