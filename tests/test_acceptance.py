"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
The simulations share one plant: a BP SX 150 panel behind a buck-boost
stage whose bus is sized so the STC MPP sits at duty 0.5, stepped every
10 ms with delta_d(0)=0.001, delta_d_max(0)=0.01, epsilon=5e-4, acc=1.2,
deacc=0.8.
"""

from __future__ import annotations

import random
import sys
import time

import numpy as np
import pytest

from mpptbench.cli import main
from mpptbench.controllers import (
    DELTA_D_FLOOR,
    ControllerParams,
    MpptController,
    StepAction,
    revised_step,
)
from mpptbench.converter import BuckBoost
from mpptbench.harness import (
    SETTLE_HOLD_S,
    SETTLE_TOLERANCE,
    SimConfig,
    compute_metrics,
    resolve_initial_duty,
    run_simulation,
)
from mpptbench.oracle import find_mpp
from mpptbench.profiles import EnvProfile, EnvSegment, builtin_table1_profile
from mpptbench.pvmodel import (
    K,
    Q,
    STC,
    EnvCondition,
    photon_current,
    saturation_current,
)

CONTROL_INTERVAL = 0.01


def report(number: int, ok: bool, text: str) -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {text}\n"
    sys.__stdout__.write(line)  # visible even under pytest's capture
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def plant(bp_panel, bp_oracle):
    converter = BuckBoost(v_bus=bp_oracle.find(STC).v_mpp)
    return bp_panel, converter, bp_oracle


def run_table1(plant, kind: str, params: ControllerParams):
    array, converter, oracle = plant
    profile = builtin_table1_profile()
    cfg = SimConfig(control_interval_s=CONTROL_INTERVAL, initial_duty="auto")
    d0 = resolve_initial_duty(cfg, converter, oracle, profile.env_at(0.0))
    controller = MpptController(kind, params, d0)
    t0 = time.perf_counter()
    trace = run_simulation(array, converter, controller, profile, cfg, oracle)
    elapsed = time.perf_counter() - t0
    return trace, compute_metrics(trace), elapsed


@pytest.fixture(scope="module")
def table1_runs(plant):
    params = ControllerParams()
    return {
        kind: run_table1(plant, kind, params)
        for kind in ("conventional", "revised-fixed-bound", "revised-adaptive-bound")
    }


def test_criterion_1_model_soundness(bp_panel):
    t0 = time.perf_counter()
    worst = 0.0
    cell = bp_panel.cell
    for g in np.linspace(20.0, 1000.0, 20):
        for t in np.linspace(273.0, 348.0, 20):
            env = EnvCondition(g=float(g), t=float(t))
            v_oc = bp_panel.open_circuit_voltage(env)
            volts = np.linspace(0.0, v_oc, 50)
            current = np.asarray(bp_panel.current_at(volts, env), dtype=float)
            i_cell = current / bp_panel.layout.n_parallel
            v_cell = volts / bp_panel.layout.n_series
            i_ph = photon_current(cell, env)
            i_0 = saturation_current(cell, env)
            vt = cell.n * K * t / Q
            residual = np.abs(
                i_ph - i_0 * np.expm1((v_cell + i_cell * bp_panel.r_s) / vt) - i_cell
            )
            worst = max(worst, float(residual.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(1, ok, f"worst residual {worst:.2e} A over 20x20x50 grid in {elapsed:.2f} s")


def test_criterion_2_photon_linearity(bp_cell):
    ratios = [
        photon_current(bp_cell, EnvCondition(g=g, t=STC.t)) / (g / STC.g)
        for g in (20.0, 200.0, 500.0, 1000.0)
    ]
    spread = (max(ratios) - min(ratios)) / ratios[0]
    ok = spread < 1e-12
    report(2, ok, f"photon-current ratio spread {spread:.2e} across irradiances")


def test_criterion_3_oracle_optimality(bp_panel):
    rng = random.Random(20260810)
    t0 = time.perf_counter()
    worst_excess = -float("inf")
    worst_slope = 0.0
    for _ in range(200):
        env = EnvCondition(g=rng.uniform(20.0, 1000.0), t=rng.uniform(273.0, 348.0))
        mpp = find_mpp(bp_panel, env)
        v_oc = bp_panel.open_circuit_voltage(env)
        eps = 1e-3 * v_oc
        for v_side in (mpp.v_mpp - eps, mpp.v_mpp + eps):
            p_side = v_side * float(bp_panel.current_at(v_side, env))
            worst_excess = max(worst_excess, p_side - mpp.p_mpp)
        h = 1e-4
        p_hi = (mpp.v_mpp + h) * float(bp_panel.current_at(mpp.v_mpp + h, env))
        p_lo = (mpp.v_mpp - h) * float(bp_panel.current_at(mpp.v_mpp - h, env))
        slope = abs(p_hi - p_lo) / (2 * h)
        worst_slope = max(worst_slope, slope / (mpp.p_mpp / mpp.v_mpp))
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and worst_slope < 1e-3 and elapsed < 10.0
    report(
        3,
        ok,
        f"200 random draws: max side excess {worst_excess:.2e} W, "
        f"max normalized slope {worst_slope:.2e}, {elapsed:.2f} s",
    )


def test_criterion_4_stc_plausibility(bp_panel):
    p_mpp = find_mpp(bp_panel, STC).p_mpp
    ok = 142.5 <= p_mpp <= 157.5
    report(4, ok, f"STC p_mpp = {p_mpp:.2f} W (datasheet rating 150 W +-5%)")


def test_criterion_5_conventional_oscillation(plant):
    array, converter, oracle = plant
    profile = EnvProfile(
        segments=(EnvSegment(0.0, EnvCondition(g=1000.0, t=298.0)),), duration=2.0
    )
    controller = MpptController("conventional", ControllerParams(), 0.5)
    t0 = time.perf_counter()
    trace = run_simulation(
        array, converter, controller, profile,
        SimConfig(control_interval_s=CONTROL_INTERVAL), oracle,
    )
    elapsed = time.perf_counter() - t0
    hold_steps = round(SETTLE_HOLD_S / CONTROL_INTERVAL)
    rel = [abs(r.p_deviation) / r.p_mpp for r in trace]
    settle = next(
        (
            j
            for j in range(len(trace) - hold_steps + 1)
            if all(x < SETTLE_TOLERANCE for x in rel[j : j + hold_steps])
        ),
        None,
    )
    assert settle is not None, "conventional controller never settled at constant STC"
    remaining = trace[settle:]
    changes = sum(
        1 for a, b in zip(remaining, remaining[1:]) if b.d != a.d
    )
    change_fraction = changes / (len(remaining) - 1)
    mean_rel_dev = sum(rel[settle:]) / len(remaining)
    ok = change_fraction >= 0.90 and mean_rel_dev > 0.0 and elapsed < 1.0
    report(
        5,
        ok,
        f"post-settle duty-change fraction {change_fraction:.3f}, "
        f"mean relative deviation {mean_rel_dev:.2e}, {elapsed:.2f} s",
    )


def _criterion_6_check(trace, metrics):
    min_steps = round(0.4 / CONTROL_INTERVAL)
    failures = []
    for seg in metrics.segments:
        if seg.n_steps < min_steps:
            continue
        if seg.time_to_hold is None:
            failures.append(f"segment at {seg.t_start:.1f}s (G={seg.g:.0f}) never froze")
        elif seg.end_relative_deviation >= 0.01:
            failures.append(
                f"segment at {seg.t_start:.1f}s ends at "
                f"{seg.end_relative_deviation:.2%} deviation"
            )
    return failures


def test_criterion_6_revised_convergence(table1_runs):
    trace, metrics, elapsed = table1_runs["revised-adaptive-bound"]
    failures = _criterion_6_check(trace, metrics)
    ok = not failures and elapsed < 1.0
    detail = "; ".join(failures) if failures else (
        "every >=0.4 s segment froze with end deviation < 1%"
    )
    report(6, ok, f"{detail} ({elapsed:.2f} s)")


def test_criterion_7_overshoot_ordering(table1_runs):
    _, fixed, _ = table1_runs["revised-fixed-bound"]
    _, adaptive, _ = table1_runs["revised-adaptive-bound"]
    run_level_ok = adaptive.max_voltage_overshoot <= fixed.max_voltage_overshoot
    strict_segments = []
    for k in range(1, len(adaptive.segments)):
        dg = abs(adaptive.segments[k].g - adaptive.segments[k - 1].g)
        a = adaptive.segments[k].max_voltage_overshoot
        f = fixed.segments[k].max_voltage_overshoot
        if dg >= 300.0 and a < f:
            strict_segments.append(f"t={adaptive.segments[k].t_start:.1f}s ({a:.3f}<{f:.3f} V)")
    ok = run_level_ok and bool(strict_segments)
    report(
        7,
        ok,
        f"max overshoot adaptive {adaptive.max_voltage_overshoot:.3f} V <= fixed "
        f"{fixed.max_voltage_overshoot:.3f} V; strictly smaller on {strict_segments}",
    )


def test_criterion_8_energy_ordering(table1_runs):
    _, conv, _ = table1_runs["conventional"]
    _, adaptive, _ = table1_runs["revised-adaptive-bound"]
    ok = conv.energy_deficit > adaptive.energy_deficit
    report(
        8,
        ok,
        f"energy deficit conventional {conv.energy_deficit:.3f} J > "
        f"revised-adaptive {adaptive.energy_deficit:.3f} J",
    )


def test_criterion_9_controller_unit_conformance(default_params):
    from test_controllers import meas_with_slope, state_with_history

    # (1) MPP test: hold and reset
    st = state_with_history(d=0.52, delta_d=3e-5, delta_d_max=0.004,
                            prev_slope_sign=-1, s=2e-4)
    meas, _, _ = meas_with_slope(2e-4)
    out = revised_step(st, meas, default_params)
    trace_1 = (
        out.new_state.d == st.d
        and out.new_state.delta_d == 0.001
        and out.new_state.delta_d_max == 0.01
    )
    # (2) sign flip: deacc and bound shrink, no clamp
    st = state_with_history(d=0.5, delta_d=0.004, delta_d_max=0.01,
                            prev_slope_sign=+1, s=-1.5)
    meas, _, _ = meas_with_slope(-1.5)
    out = revised_step(st, meas, default_params)
    trace_2 = (
        out.new_state.delta_d == pytest.approx(0.0048, rel=1e-12)
        and out.new_state.delta_d_max == pytest.approx(0.008, rel=1e-12)
    )
    # (3) same sign: acc with clamp at the bound
    st = state_with_history(d=0.5, delta_d=0.008, delta_d_max=0.01,
                            prev_slope_sign=+1, s=+2.0)
    meas, _, _ = meas_with_slope(+2.0)
    out = revised_step(st, meas, default_params)
    trace_3 = out.new_state.delta_d == 0.01 and out.new_state.delta_d_max == 0.01

    # freeze-at-MPP over 1000 randomized states
    rng = random.Random(99)
    freezes = 0
    for _ in range(1000):
        v = rng.uniform(5.0, 40.0)
        i = rng.uniform(0.5, 5.0)
        dv = rng.uniform(0.05, 1.0)
        s = rng.uniform(-0.99, 0.99) * default_params.epsilon
        st = state_with_history(
            d=rng.uniform(0.1, 0.9),
            delta_d=rng.uniform(DELTA_D_FLOOR, 0.01),
            delta_d_max=rng.uniform(default_params.delta_d_max_floor, 0.01),
            prev_slope_sign=rng.choice((-1, 1, None)),
            v=v, i=i, dv=dv, s=s,
        )
        meas, _, _ = meas_with_slope(s, v=v, i=i, dv=dv)
        out = revised_step(st, meas, default_params)
        if out.new_state.d == st.d and out.action is StepAction.HELD_AT_MPP:
            freezes += 1
    ok = trace_1 and trace_2 and trace_3 and freezes == 1000
    report(
        9,
        ok,
        f"hand traces [{trace_1}, {trace_2}, {trace_3}], "
        f"freeze held in {freezes}/1000 randomized states",
    )


def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(
        "panel: bp_sx150\n"
        "controller:\n  kind: revised-adaptive-bound\n"
        "profile: builtin-table1\n"
        "sim:\n  duration_s: 5.0\n"
    )
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["compare", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        outputs.append(
            {
                name: (out / name).read_bytes()
                for name in (
                    "trace_conventional.csv",
                    "trace_revised_fixed.csv",
                    "trace_revised_adaptive.csv",
                    "comparison.txt",
                )
            }
        )
    ok = outputs[0] == outputs[1]
    report(10, ok, "two compare runs produced byte-identical traces and report")


VARIANTS = {
    "delta_d(0) x0.5": ControllerParams(delta_d_nominal=0.0005),
    "delta_d(0) x2": ControllerParams(delta_d_nominal=0.002),
    "acc=1.1 deacc=0.7": ControllerParams(acc=1.1, deacc=0.7),
    "acc=1.3 deacc=0.9": ControllerParams(acc=1.3, deacc=0.9),
}


def test_criterion_11_parameter_robustness(plant):
    failures = []
    for label, params in VARIANTS.items():
        trace, metrics, _ = run_table1(plant, "revised-adaptive-bound", params)
        for failure in _criterion_6_check(trace, metrics):
            failures.append(f"{label}: {failure}")
    ok = not failures
    detail = "; ".join(failures) if failures else (
        "revised convergence criterion holds for all four parameter variants"
    )
    report(11, ok, detail)
