"""Cell model tests: closed-form checks, an independent bisection oracle,
and the exact scaling laws."""

from __future__ import annotations

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpptbench import pvmodel
from mpptbench.cli import main
from mpptbench.config import load_scenario
from mpptbench.oracle import MppOracle
from mpptbench.pvmodel import (
    DEFAULT_CONSTANTS,
    ArrayConfig,
    CellParams,
    ConvergenceError,
    DatasheetError,
    EnvCondition,
    NumericRangeError,
    PVArray,
    band_gap,
    derive_series_resistance,
    open_circuit_voltage,
    photon_current,
    reference_saturation_current,
    saturation_current,
)

Q = DEFAULT_CONSTANTS.q
K = DEFAULT_CONSTANTS.k
TABLE1_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "table1_adaptive.yaml"


def one_cell(params, r_s):
    """A one-cell PVArray with the given series resistance."""
    return PVArray(params, r_s=r_s)


def bisect_current(params, r_s, env, v, lo, hi, tol=1e-10):
    """Independent slow oracle: bisection on the single-diode residual."""
    i_ph = photon_current(params, env)
    i_0 = saturation_current(params, env)
    vt = params.n * K * env.t / Q

    def residual(i):
        vd = v + i * r_s
        shunt = 0.0 if params.r_p is None else vd / params.r_p
        return i_ph - i_0 * math.expm1(vd / vt) - shunt - i

    flo = residual(lo)
    assert flo * residual(hi) <= 0, "oracle bracket does not straddle the root"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = residual(mid)
        if abs(fm) < tol:
            return mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


class TestBandGap:
    def test_at_298(self):
        # direct evaluation of the same expression
        expected = 1.16 - 0.000702 * 298.0**2 / (298.0 - 1108.0)
        assert band_gap(298.0) == expected
        assert band_gap(298.0) == pytest.approx(1.2370, abs=1e-4)

    def test_low_temperature_limit(self):
        assert band_gap(1e-6) == pytest.approx(1.16, abs=1e-9)

    def test_at_350(self):
        # frozen value from an independent evaluation of the expression
        assert band_gap(350.0) == pytest.approx(1.2734498680738786, rel=1e-15)

    def test_singular_temperature(self):
        with pytest.raises(NumericRangeError):
            band_gap(1108.0)

    def test_varshni_switch(self):
        # frozen value; the standard form gives a gap that shrinks with T
        assert band_gap(298.0, denominator_sign=+1) == pytest.approx(
            1.1156611607396868, rel=1e-15
        )
        assert band_gap(350.0, denominator_sign=+1) < band_gap(298.0, denominator_sign=+1)

    def test_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            band_gap(0.0)


class TestPhotonCurrent:
    def test_reference_conditions(self, bp_cell):
        env = EnvCondition(g=bp_cell.g_ref, t=bp_cell.t_ref)
        assert photon_current(bp_cell, env) == bp_cell.i_sc_ref

    def test_zero_irradiance(self, bp_cell):
        assert photon_current(bp_cell, EnvCondition(g=0.0, t=bp_cell.t_ref)) == 0.0

    def test_half_irradiance(self, bp_cell):
        env = EnvCondition(g=500.0, t=bp_cell.t_ref)
        assert photon_current(bp_cell, env) == pytest.approx(4.75 / 2, rel=1e-15)

    @given(g=st.floats(min_value=0.0, max_value=2000.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_linearity_is_exact(self, g):
        cell = CellParams(
            i_sc_ref=4.75, v_oc_ref=43.5 / 72, alpha=0.00065, n=1.3, dv_di_oc=-1.10 / 72
        )
        t = 310.0
        lhs = photon_current(cell, EnvCondition(g=g, t=t))
        rhs = (g / cell.g_ref) * photon_current(cell, EnvCondition(g=cell.g_ref, t=t))
        assert lhs == rhs  # bit-for-bit


class TestSaturationCurrent:
    def test_reference_value_frozen(self, bp_cell):
        # independent evaluation of i_sc / (exp(q*v_oc/(n*k*T)) - 1)
        vt = bp_cell.n * K * bp_cell.t_ref / Q
        expected = bp_cell.i_sc_ref / (math.exp(bp_cell.v_oc_ref / vt) - 1.0)
        assert reference_saturation_current(bp_cell) == expected
        assert reference_saturation_current(bp_cell) == pytest.approx(
            6.518042287718298e-08, rel=1e-12
        )

    def test_unity_scaling_at_reference_temperature(self, bp_cell):
        env = EnvCondition(g=1000.0, t=bp_cell.t_ref)
        assert saturation_current(bp_cell, env) == reference_saturation_current(bp_cell)

    def test_grows_with_temperature(self, bp_cell):
        i_310 = saturation_current(bp_cell, EnvCondition(g=1000.0, t=310.0))
        i_298 = saturation_current(bp_cell, EnvCondition(g=1000.0, t=298.0))
        assert i_310 > i_298

    def test_overflow_guard(self):
        cell = CellParams(
            i_sc_ref=4.75, v_oc_ref=50.0, alpha=0.00065, n=1.0, dv_di_oc=-0.01
        )
        with pytest.raises(NumericRangeError):
            reference_saturation_current(cell)


class TestSeriesResistance:
    def test_frozen_bp_value(self, bp_cell):
        # frozen from an independent evaluation before the build
        assert derive_series_resistance(bp_cell) == pytest.approx(
            0.008252191436179113, rel=1e-12
        )

    def test_zero_at_boundary(self, bp_cell):
        i0 = reference_saturation_current(bp_cell)
        vt = bp_cell.n * K * bp_cell.t_ref / Q
        diode_term = vt / (i0 * math.exp(bp_cell.v_oc_ref / vt))
        cell = CellParams(
            i_sc_ref=bp_cell.i_sc_ref,
            v_oc_ref=bp_cell.v_oc_ref,
            alpha=bp_cell.alpha,
            n=bp_cell.n,
            dv_di_oc=-diode_term,
        )
        assert derive_series_resistance(cell) == pytest.approx(0.0, abs=1e-18)

    def test_linearity_in_slope(self, bp_cell):
        doubled = CellParams(
            i_sc_ref=bp_cell.i_sc_ref,
            v_oc_ref=bp_cell.v_oc_ref,
            alpha=bp_cell.alpha,
            n=bp_cell.n,
            dv_di_oc=2 * bp_cell.dv_di_oc,
        )
        delta = derive_series_resistance(doubled) - derive_series_resistance(bp_cell)
        assert delta == pytest.approx(-bp_cell.dv_di_oc, rel=1e-12)

    def test_inconsistent_datasheet(self, bp_cell):
        cell = CellParams(
            i_sc_ref=bp_cell.i_sc_ref,
            v_oc_ref=bp_cell.v_oc_ref,
            alpha=bp_cell.alpha,
            n=bp_cell.n,
            dv_di_oc=-1e-6,  # slope smaller than the diode term
        )
        with pytest.raises(DatasheetError):
            derive_series_resistance(cell)


class TestCellCurrent:
    def test_short_circuit_no_series_resistance(self, bp_cell, stc):
        i = one_cell(bp_cell, 0.0).current_at(0.0, stc)
        assert i == photon_current(bp_cell, stc)

    def test_zero_current_at_open_circuit(self, bp_cell, stc):
        r_s = derive_series_resistance(bp_cell)
        v_oc = open_circuit_voltage(bp_cell, stc)
        assert abs(one_cell(bp_cell, r_s).current_at(v_oc, stc)) < 1e-8

    def test_against_bisection_oracle(self, bp_cell, stc):
        r_s = derive_series_resistance(bp_cell)
        i_ph = photon_current(bp_cell, stc)
        for v in (0.1, 0.3, 0.45, 0.55):
            i_fast = one_cell(bp_cell, r_s).current_at(v, stc)
            i_slow = bisect_current(bp_cell, r_s, stc, v, -0.1 * i_ph, 1.2 * i_ph)
            assert i_fast == pytest.approx(i_slow, abs=1e-8)

    def test_residual_contract(self, bp_cell, stc):
        i_ph = photon_current(bp_cell, stc)
        i_0 = saturation_current(bp_cell, stc)
        vt = bp_cell.n * K * stc.t / Q
        v_oc = open_circuit_voltage(bp_cell, stc)
        v = np.linspace(0.0, v_oc, 200)
        for r_s in (derive_series_resistance(bp_cell), 0.0):  # Newton, then the closed form
            i = one_cell(bp_cell, r_s).current_at(v, stc)
            residual = np.abs(i_ph - i_0 * np.expm1((v + i * r_s) / vt) - i)
            assert residual.max() < 1e-9

    def test_strictly_decreasing_in_voltage(self, bp_cell, stc):
        r_s = derive_series_resistance(bp_cell)
        v_oc = open_circuit_voltage(bp_cell, stc)
        i = one_cell(bp_cell, r_s).current_at(np.linspace(0.0, v_oc, 300), stc)
        assert np.all(np.diff(i) < 0)

    def test_power_unimodal(self, bp_cell, stc):
        r_s = derive_series_resistance(bp_cell)
        v_oc = open_circuit_voltage(bp_cell, stc)
        v = np.linspace(0.0, v_oc, 2000)
        p = v * one_cell(bp_cell, r_s).current_at(v, stc)
        signs = np.sign(np.diff(p))
        # exactly one rise-to-fall transition and no other sign changes
        changes = np.flatnonzero(np.diff(signs) != 0)
        assert len(changes) == 1

    def test_dark_current_negative_past_voc(self, bp_cell):
        r_s = derive_series_resistance(bp_cell)
        env = EnvCondition(g=0.0, t=298.0)
        assert one_cell(bp_cell, r_s).current_at(0.3, env) < 0.0

    def test_negative_voltage_rejected(self, bp_cell, bp_panel, stc):
        for v in (-0.1, np.array([1.0, -0.1])):
            with pytest.raises(ValueError, match=">= 0"):
                one_cell(bp_cell, 0.0).current_at(v, stc)
            with pytest.raises(ValueError, match=">= 0"):
                bp_panel.current_at(72 * v, stc)

    def test_finite_shunt_reduces_current(self, bp_cell, stc):
        shunted = CellParams(
            i_sc_ref=bp_cell.i_sc_ref,
            v_oc_ref=bp_cell.v_oc_ref,
            alpha=bp_cell.alpha,
            n=bp_cell.n,
            dv_di_oc=bp_cell.dv_di_oc,
            r_p=5.0,
        )
        r_s = derive_series_resistance(bp_cell)
        i_inf = one_cell(bp_cell, r_s).current_at(0.4, stc)
        i_fin = one_cell(shunted, r_s).current_at(0.4, stc)
        assert i_fin < i_inf


class TestOpenCircuitVoltage:
    def test_matches_root_of_cell_current(self, bp_cell, stc):
        v_oc = open_circuit_voltage(bp_cell, stc)
        assert abs(one_cell(bp_cell, 0.0).current_at(v_oc, stc)) < 1e-9

    def test_reproduces_datasheet_at_stc(self, bp_cell, stc):
        # v_oc_ref is derived from the same diode equation, so STC round-trips
        assert open_circuit_voltage(bp_cell, stc) == pytest.approx(43.5 / 72, rel=1e-9)

    def test_zero_irradiance(self, bp_cell):
        assert open_circuit_voltage(bp_cell, EnvCondition(g=0.0, t=298.0)) == 0.0

    def test_finite_shunt(self, bp_cell, stc):
        shunted = CellParams(
            i_sc_ref=bp_cell.i_sc_ref,
            v_oc_ref=bp_cell.v_oc_ref,
            alpha=bp_cell.alpha,
            n=bp_cell.n,
            dv_di_oc=bp_cell.dv_di_oc,
            r_p=5.0,
        )
        v_oc = open_circuit_voltage(shunted, stc)
        assert v_oc < open_circuit_voltage(bp_cell, stc)
        assert abs(one_cell(shunted, 0.0).current_at(v_oc, stc)) < 1e-8


class TestArrayScaling:
    def test_identity_configuration(self, bp_cell, stc):
        arr = PVArray(cell=bp_cell, layout=ArrayConfig(1, 1))
        assert arr.current_at(0.45, stc) == one_cell(bp_cell, arr.r_s).current_at(0.45, stc)

    def test_parallel_doubling_is_exact(self, bp_cell, stc):
        base = PVArray(cell=bp_cell, layout=ArrayConfig(4, 1)).current_at(1.8, stc)
        doubled = PVArray(cell=bp_cell, layout=ArrayConfig(4, 2)).current_at(1.8, stc)
        assert doubled == 2 * base
        assert 1.8 * doubled == 2 * (1.8 * base)

    def test_series_doubling_is_exact(self, bp_cell, stc):
        base = PVArray(cell=bp_cell, layout=ArrayConfig(4, 1)).current_at(1.8, stc)
        stretched = PVArray(cell=bp_cell, layout=ArrayConfig(8, 1)).current_at(3.6, stc)
        assert stretched == base

    def test_pvarray_wraps_the_same_math(self, bp_cell, stc):
        arr = PVArray(cell=bp_cell, layout=ArrayConfig(72, 1))
        assert arr.current_at(32.0, stc) == pytest.approx(
            one_cell(bp_cell, arr.r_s).current_at(32.0 / 72, stc), rel=1e-12
        )
        assert arr.open_circuit_voltage(stc) == pytest.approx(43.5, rel=1e-9)


class TestScalarPath:
    """A scalar voltage is solved in floats; it must give the array path's float."""

    @staticmethod
    def voltages(array, env):
        v_oc = array.open_circuit_voltage(env)
        span = v_oc or array.open_circuit_voltage(EnvCondition(g=1000.0, t=env.t))
        interior = [f * span for f in (0.1, 0.5, 0.8, 0.95)]
        return [0.0, *interior, v_oc, 1.05 * v_oc]

    @pytest.mark.parametrize("layout", [ArrayConfig(1, 1), ArrayConfig(4, 2)], ids=str)
    @pytest.mark.parametrize("r_p", [None, 5.0])
    @pytest.mark.parametrize("t", [273.15, 298.0, 330.0])
    @pytest.mark.parametrize("g", [0.0, 20.0, 150.0, 1000.0])
    def test_bit_identical_to_one_element_array(self, bp_cell, layout, r_p, t, g):
        cell = dataclasses.replace(bp_cell, r_p=r_p)
        array = PVArray(cell=cell, layout=layout)
        env = EnvCondition(g=g, t=t)
        for v in self.voltages(array, env):
            scalar = array.current_at(v, env)
            assert type(scalar) is float
            assert scalar.hex() == float(array.current_at(np.array([v]), env)[0]).hex()
            v_cell = v / layout.n_series
            one = one_cell(cell, array.r_s).current_at(v_cell, env)
            lane = one_cell(cell, array.r_s).current_at(np.array([v_cell]), env)[0]
            assert type(one) is float
            assert one.hex() == float(lane).hex()

    def test_diode_exponent_overflow(self, bp_cell, stc):
        array = PVArray(cell=bp_cell, r_s=0.0)  # only the closed form has a guard
        for v in (25.0, np.array([0.5, 25.0])):
            with pytest.raises(NumericRangeError, match="overflow guard"):
                array.current_at(v, stc)

    def test_exhausted_newton_raises_one_error_on_both_paths(self, bp_cell, stc):
        array = PVArray(cell=bp_cell, layout=ArrayConfig(72, 1), solver_max_iter=1)
        v = 0.8 * array.open_circuit_voltage(stc)
        errors = []
        for v_in in (v, np.array([v])):
            with pytest.raises(ConvergenceError, match="Newton did not converge") as err:
                array.current_at(v_in, stc)
            errors.append((str(err.value), err.value.iterations, err.value.residual))
        assert errors[0] == errors[1]
        assert errors[0][1] == 1 and errors[0][2] >= array.solver_tol

    def test_shared_array_across_threads(self, bp_cell):
        envs = [EnvCondition(g=float(g), t=298.0) for g in range(50, 1001, 50)]
        volts = [0.5 * k for k in range(1, 80)]

        def sweep(array):
            return [[array.current_at(v, env) for v in volts] for env in envs]

        expected = sweep(PVArray(cell=bp_cell, layout=ArrayConfig(72, 1)))
        shared = PVArray(cell=bp_cell, layout=ArrayConfig(72, 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(sweep, shared) for _ in range(4)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == expected for r in results)

    def test_compare_outputs_match_the_array_path(self, tmp_path, monkeypatch):
        def compare(out):
            argv = ["compare", "--config", str(TABLE1_CONFIG), "--out", str(out), "--quiet"]
            assert main(argv) == 0
            return {f.name: f.read_bytes() for f in out.iterdir()}

        as_floats = compare(tmp_path / "float")
        current_at = PVArray.current_at

        def via_array(self, v_array, env):
            if np.ndim(v_array) == 0:
                return float(current_at(self, np.array([v_array], dtype=float), env)[0])
            return current_at(self, v_array, env)

        monkeypatch.setattr(PVArray, "current_at", via_array)
        as_lanes = compare(tmp_path / "array")
        assert len(as_floats) == 4
        assert as_floats == as_lanes


def newton_path(cell, r_s, env, v, tol, max_steps):
    """(I, f) after each plain Newton step from the solver's start, as the solver takes them.

    The start is min(I_ph, I_cap) with I_cap = (vt*log1p((I_ph + V/R_s)/I_0) - V)/R_s,
    or I_ph at R_s = 0 (where the solver uses the closed form).  Stops at
    |f| < tol, or where the step falls to 8 ulps of I: there the rounding
    of f can flip its sign, and a current of thousands of amperes cannot
    meet an absolute tolerance of 1e-9 A anyway.
    """
    i_ph, i_0 = photon_current(cell, env), saturation_current(cell, env)
    vt = cell.n * K * env.t / Q
    g_p = 0.0 if cell.r_p is None else 1.0 / cell.r_p

    def residual(i):
        vd = v + i * r_s
        return i_ph - i_0 * float(np.expm1(vd / vt)) - vd * g_p - i

    i = i_ph
    if r_s > 0:
        i = min(i_ph, (vt * float(np.log1p((i_ph + v / r_s) / i_0)) - v) / r_s)
    path = [(i, residual(i))]
    while abs(path[-1][1]) >= tol and len(path) <= max_steps:
        i, f = path[-1]
        df = -i_0 * float(np.exp((v + i * r_s) / vt)) * r_s / vt - r_s * g_p - 1.0
        if abs(f / df) <= 8 * math.ulp(i):
            break
        i = i - f / df
        path.append((i, residual(i)))
    return path


valid_cells = st.builds(
    CellParams,
    i_sc_ref=st.floats(0.5, 15.0),
    v_oc_ref=st.floats(0.4, 0.75),
    alpha=st.floats(-0.001, 0.002),
    n=st.floats(1.0, 2.0),
    dv_di_oc=st.floats(-0.1, -1e-4),
    r_p=st.none() | st.floats(0.5, 1000.0),
)
environments = st.builds(
    EnvCondition, g=st.just(0.0) | st.floats(0.0, 1200.0), t=st.floats(230.0, 360.0)
)


@pytest.fixture(scope="module")
def table1_clamp():
    """table1's array and the panel voltage at its converter's d_min."""
    scenario = load_scenario(TABLE1_CONFIG)
    array = scenario.build_array()
    converter = scenario.build_converter(array, MppOracle(array))
    return array, converter.terminal_voltage(converter.d_min)


class TestNewtonConvergence:
    """Newton from the capped start converges monotonically for R_s > 0, with no damping."""

    @given(
        cell=valid_cells,
        r_s=st.just(0.0) | st.floats(1e-4, 0.05),  # 0.1 to 50 mOhm per cell
        env=environments,
        fraction=st.floats(0.0, 0.999),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_steps_never_raise_the_current_or_the_residual(self, cell, r_s, env, fraction):
        array = PVArray(cell, r_s=r_s)
        i_ph = photon_current(cell, env)
        v_guard = pvmodel.MAX_EXP_ARGUMENT * cell.n * K * env.t / Q - i_ph * r_s
        v = fraction * v_guard  # up to the old overflow guard
        path = newton_path(cell, r_s, env, v, array.solver_tol, max_steps=2000)
        assert len(path) <= 9  # at most 8 steps
        for (i_old, f_old), (i_new, f_new) in zip(path, path[1:]):
            assert i_new <= i_old
            assert abs(f_new) <= abs(f_old)

        scalar = array.current_at(v, env)
        assert scalar.hex() == float(array.current_at(np.array([v]), env)[0]).hex()
        if r_s > 0:
            assert scalar.hex() == path[-1][0].hex()

    @given(env=environments)
    @settings(derandomize=True, max_examples=50, deadline=None)
    def test_duty_clamp_voltage_meets_the_tolerance_in_eight_steps(self, table1_clamp, env):
        array, v_clamp = table1_clamp
        capped = PVArray(array.cell, array.layout, r_s=array.r_s, solver_max_iter=8)
        i_array = capped.current_at(v_clamp, env)
        assert i_array == array.current_at(v_clamp, env)
        v = v_clamp / array.layout.n_series
        i = newton_path(array.cell, array.r_s, env, v, array.solver_tol, max_steps=8)[-1][0]
        assert i_array == array.layout.n_parallel * i  # Newton's own root, not a fallback's
        vd = v + i * array.r_s
        vt = array.cell.n * K * env.t / Q
        i_ph, i_0 = photon_current(array.cell, env), saturation_current(array.cell, env)
        assert abs(i_ph - i_0 * math.expm1(vd / vt) - i) < array.solver_tol

    def test_small_series_resistance_far_above_open_circuit(self, bp_cell, stc):
        """Roots of hundreds to thousands of amperes solve to the float root on both paths."""
        i_ph = photon_current(bp_cell, stc)
        cases = [(0.001, 19.0)] + [(0.0002, round(9.4 + 0.1 * k, 1)) for k in range(137)]
        for r_s, v in cases:
            i = one_cell(bp_cell, r_s).current_at(v, stc)
            assert i.hex() == float(one_cell(bp_cell, r_s).current_at(np.array([v]), stc)[0]).hex()
            i_slow = bisect_current(bp_cell, r_s, stc, v, -v / r_s, i_ph)
            assert i == pytest.approx(i_slow, rel=1e-12)


class TestValidation:
    def test_cell_invariants(self):
        with pytest.raises(ValueError):
            CellParams(i_sc_ref=-1, v_oc_ref=0.6, alpha=0.0, n=1.3, dv_di_oc=-0.01)
        with pytest.raises(ValueError):
            CellParams(i_sc_ref=4.75, v_oc_ref=0.6, alpha=0.0, n=0.9, dv_di_oc=-0.01)
        with pytest.raises(ValueError):
            CellParams(i_sc_ref=4.75, v_oc_ref=0.6, alpha=0.0, n=1.3, dv_di_oc=0.01)
        with pytest.raises(ValueError):
            CellParams(i_sc_ref=4.75, v_oc_ref=0.6, alpha=0.0, n=1.3, dv_di_oc=-0.01, r_p=-5)

    def test_env_invariants(self):
        with pytest.raises(ValueError):
            EnvCondition(g=-1.0, t=298.0)
        with pytest.raises(ValueError):
            EnvCondition(g=100.0, t=0.0)

    def test_array_config_invariants(self):
        with pytest.raises(ValueError):
            ArrayConfig(0, 1)

    def test_negative_series_resistance_rejected(self, bp_cell):
        with pytest.raises(ValueError, match="r_s must be >= 0"):
            PVArray(bp_cell, ArrayConfig(72, 1), r_s=-0.05)
        assert PVArray(bp_cell, r_s=0.0).r_s == 0.0

    def test_power_recomputed_from_current_at(self, bp_panel, stc):
        v = np.array([3.0, 30.0])
        p_lanes = v * bp_panel.current_at(v, stc)
        p_floats = [x * bp_panel.current_at(x, stc) for x in (3.0, 30.0)]
        assert p_lanes.tolist() == p_floats
