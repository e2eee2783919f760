"""Cell model tests: closed-form checks, an independent bisection oracle,
and the exact scaling laws."""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpptbench import pvmodel
from mpptbench.config import load_scenario
from mpptbench.oracle import MppOracle
from mpptbench.pvmodel import (
    K,
    Q,
    SOLVER_TOL_A,
    ArrayConfig,
    CellParams,
    EnvCondition,
    STC,
    PVArray,
    band_gap,
    derive_series_resistance,
    photon_current,
    reference_saturation_current,
    saturation_current,
)

TABLE1_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "table1_adaptive.yaml"


def cell_with_series_resistance(params, r_s):
    """params with the open-circuit slope from which PVArray derives R_s = r_s (to a few ulps).

    derive_series_resistance subtracts this diode term from -dv_di_oc.
    """
    vt = params.n * K * STC.t / Q
    diode_term = vt / (reference_saturation_current(params) * math.exp(params.v_oc_ref / vt))
    return dataclasses.replace(params, dv_di_oc=-(r_s + diode_term))


def bisect_current(params, r_s, env, v, lo, hi, tol=1e-10):
    """Independent slow oracle: bisection on the single-diode residual."""
    i_ph = photon_current(params, env)
    i_0 = saturation_current(params, env)
    vt = params.n * K * env.t / Q

    def residual(i):
        return i_ph - i_0 * math.expm1((v + i * r_s) / vt) - i

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
        with pytest.raises(ValueError, match=r"t = 1108\.0 K is outside \(0, 1108\) K"):
            band_gap(1108.0)

    def test_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            band_gap(0.0)

    @pytest.mark.parametrize("t", [1108.5, 1173.15, 5000.0])
    def test_nonpositive_gap_raises(self, t):
        # (T - 1108) > 0 turns the gap negative: -13.67 eV at 900 degC
        with pytest.raises(ValueError, match=r"t = .* K is outside \(0, 1108\) K"):
            band_gap(t)
        with pytest.raises(ValueError, match=r"outside \(0, 1108\) K"):
            EnvCondition(g=1000.0, t=t)

    @pytest.mark.parametrize(
        "t, accepted",
        [
            (math.nextafter(1108.0, 0.0), True),
            (5e-324, True),
            (1108.0, False),
            (math.nextafter(1108.0, math.inf), False),
            (0.0, False),
            (-0.0, False),
            (math.nan, False),
            (math.inf, False),
            (-math.inf, False),
        ],
        ids=["below_1108", "least_positive", "1108", "above_1108", "zero", "negative_zero",
             "nan", "inf", "negative_inf"],
    )
    def test_the_domain_edges_match_the_three_branch_rule(self, t, accepted):
        assert three_branch_rule_accepts(t) is accepted
        assert env_condition_accepts(t) is accepted

    @given(
        t=st.one_of(
            st.floats(),
            st.floats(min_value=1107.0, max_value=1109.0),
            st.floats(min_value=-1.0, max_value=1.0),
        )
    )
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_the_accepted_temperatures_match_the_three_branch_rule(self, t):
        assert env_condition_accepts(t) is three_branch_rule_accepts(t)


def three_branch_rule_accepts(t: float) -> bool:
    """The band gap's domain as three checks, T > 0, T != 1108 K and E_g > 0."""
    if not t > 0:
        return False
    denom = t - 1108.0
    if denom == 0.0:
        return False
    return 1.16 - 0.000702 * t * t / denom > 0


def env_condition_accepts(t: float) -> bool:
    try:
        EnvCondition(g=1000.0, t=t)
    except ValueError:
        return False
    return True


class TestPhotonCurrent:
    def test_reference_conditions(self, bp_cell):
        env = EnvCondition(g=STC.g, t=STC.t)
        assert photon_current(bp_cell, env) == bp_cell.i_sc_ref

    def test_zero_irradiance(self, bp_cell):
        assert photon_current(bp_cell, EnvCondition(g=0.0, t=STC.t)) == 0.0

    def test_half_irradiance(self, bp_cell):
        env = EnvCondition(g=500.0, t=STC.t)
        assert photon_current(bp_cell, env) == pytest.approx(4.75 / 2, rel=1e-15)

    @given(g=st.floats(min_value=0.0, max_value=2000.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_linearity_is_exact(self, g):
        cell = CellParams(
            i_sc_ref=4.75, v_oc_ref=43.5 / 72, alpha=0.00065, n=1.3, dv_di_oc=-1.10 / 72
        )
        t = 310.0
        lhs = photon_current(cell, EnvCondition(g=g, t=t))
        rhs = (g / STC.g) * photon_current(cell, EnvCondition(g=STC.g, t=t))
        assert lhs == rhs  # bit-for-bit


class TestSaturationCurrent:
    def test_reference_value_frozen(self, bp_cell):
        # independent evaluation of i_sc / (exp(q*v_oc/(n*k*T)) - 1)
        vt = bp_cell.n * K * STC.t / Q
        expected = bp_cell.i_sc_ref / (math.exp(bp_cell.v_oc_ref / vt) - 1.0)
        assert reference_saturation_current(bp_cell) == expected
        assert reference_saturation_current(bp_cell) == pytest.approx(
            6.518042287718298e-08, rel=1e-12
        )

    def test_unity_scaling_at_reference_temperature(self, bp_cell):
        env = EnvCondition(g=1000.0, t=STC.t)
        assert saturation_current(bp_cell, env) == reference_saturation_current(bp_cell)

    def test_grows_with_temperature(self, bp_cell):
        i_310 = saturation_current(bp_cell, EnvCondition(g=1000.0, t=310.0))
        i_298 = saturation_current(bp_cell, EnvCondition(g=1000.0, t=298.0))
        assert i_310 > i_298

    def test_band_gap_exponent_guard(self, bp_cell):
        with pytest.raises(ValueError, match="saturation-current exponent -.* exceeds 700"):
            saturation_current(bp_cell, EnvCondition(g=1000.0, t=3.0))

    @pytest.mark.parametrize("one_cell", [False, True], ids=["subnormal", "zero"])
    def test_an_i0_below_the_normal_floats_raises(self, bp_cell, one_cell):
        """Past the exponent guard, I_0 can still underflow; V_oc would be inf or 1/0."""
        if one_cell:
            cell = CellParams(i_sc_ref=4.75, v_oc_ref=17.0, alpha=0.0005, n=1.0, dv_di_oc=-0.1)
            env, i_0 = EnvCondition(g=800.0, t=18.15), "0"
        else:
            cell, env, i_0 = bp_cell, EnvCondition(g=800.0, t=14.2), "1.27e-313"
        message = f"saturation current {i_0} A at T = {env.t} K is not a normal float"
        with pytest.raises(ValueError, match=re.escape(message)):
            saturation_current(cell, env)
        with pytest.raises(ValueError, match=re.escape(message)):
            PVArray(cell).open_circuit_voltage(env)

    def test_overflow_guard(self):
        cell = CellParams(
            i_sc_ref=4.75, v_oc_ref=50.0, alpha=0.00065, n=1.0, dv_di_oc=-0.01
        )
        with pytest.raises(ValueError, match="saturation-current exponent .* exceeds 700"):
            reference_saturation_current(cell)


class TestSeriesResistance:
    def test_frozen_bp_value(self, bp_cell):
        # frozen from an independent evaluation before the build
        assert derive_series_resistance(bp_cell) == pytest.approx(
            0.008252191436179113, rel=1e-12
        )

    def test_zero_at_boundary(self, bp_cell):
        i0 = reference_saturation_current(bp_cell)
        vt = bp_cell.n * K * STC.t / Q
        diode_term = vt / (i0 * math.exp(bp_cell.v_oc_ref / vt))
        cell = CellParams(
            i_sc_ref=bp_cell.i_sc_ref,
            v_oc_ref=bp_cell.v_oc_ref,
            alpha=bp_cell.alpha,
            n=bp_cell.n,
            dv_di_oc=-diode_term,
        )
        with pytest.raises(ValueError, match="derived series resistance is 0.000e[+]00 ohm"):
            derive_series_resistance(cell)

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
        with pytest.raises(ValueError, match="derived series resistance is -"):
            derive_series_resistance(cell)


class TestCellCurrent:
    def test_zero_current_at_open_circuit(self, bp_cell, stc):
        array = PVArray(bp_cell)
        v_oc = array.open_circuit_voltage(stc)
        assert abs(array.current_at(v_oc, stc)) < 1e-8

    def test_against_bisection_oracle(self, bp_cell, stc):
        array = PVArray(bp_cell)
        i_ph = photon_current(bp_cell, stc)
        for v in (0.1, 0.3, 0.45, 0.55):
            i_fast = array.current_at(v, stc)
            i_slow = bisect_current(bp_cell, array.r_s, stc, v, -0.1 * i_ph, 1.2 * i_ph)
            assert i_fast == pytest.approx(i_slow, abs=1e-8)

    def test_residual_contract(self, bp_cell, stc):
        i_ph = photon_current(bp_cell, stc)
        i_0 = saturation_current(bp_cell, stc)
        vt = bp_cell.n * K * stc.t / Q
        array = PVArray(bp_cell)
        v = np.linspace(0.0, array.open_circuit_voltage(stc), 200)
        i = np.array(array.current_at(v, stc))
        residual = np.abs(i_ph - i_0 * np.expm1((v + i * array.r_s) / vt) - i)
        assert residual.max() < 1e-9

    def test_strictly_decreasing_in_voltage(self, bp_cell, stc):
        array = PVArray(bp_cell)
        v_oc = array.open_circuit_voltage(stc)
        i = array.current_at(np.linspace(0.0, v_oc, 300), stc)
        assert np.all(np.diff(i) < 0)

    def test_power_unimodal(self, bp_cell, stc):
        array = PVArray(bp_cell)
        v_oc = array.open_circuit_voltage(stc)
        v = np.linspace(0.0, v_oc, 2000)
        p = v * array.current_at(v, stc)
        signs = np.sign(np.diff(p))
        # exactly one rise-to-fall transition and no other sign changes
        changes = np.flatnonzero(np.diff(signs) != 0)
        assert len(changes) == 1

    def test_dark_current_negative_past_voc(self, bp_cell):
        env = EnvCondition(g=0.0, t=298.0)
        assert PVArray(bp_cell).current_at(0.3, env) < 0.0

    def test_negative_voltage_rejected(self, bp_cell, bp_panel, stc):
        for v in (-0.1, np.array([1.0, -0.1])):
            with pytest.raises(ValueError, match=">= 0"):
                PVArray(bp_cell).current_at(v, stc)
            with pytest.raises(ValueError, match=">= 0"):
                bp_panel.current_at(72 * v, stc)


class TestOpenCircuitVoltage:
    def test_matches_root_of_cell_current(self, bp_cell, stc):
        v_oc = PVArray(bp_cell).open_circuit_voltage(stc)
        assert abs(PVArray(bp_cell).current_at(v_oc, stc)) < 1e-9

    def test_reproduces_datasheet_at_stc(self, bp_cell, stc):
        # v_oc_ref is derived from the same diode equation, so STC round-trips
        v_oc = PVArray(bp_cell).open_circuit_voltage(stc)
        assert v_oc == pytest.approx(43.5 / 72, rel=1e-9)

    def test_zero_irradiance(self, bp_cell):
        # the closed form alone: I_ph = +-0.0 gives log(1.0) = 0.0, and the sign is +
        array = PVArray(bp_cell, ArrayConfig(72, 1))
        for g in (0.0, -0.0):
            v_oc = array.open_circuit_voltage(EnvCondition(g=g, t=298.0))
            assert v_oc == 0.0 and math.copysign(1.0, v_oc) == 1.0, g

    def test_a_photon_current_that_overflows_the_ratio_to_i_0_raises(self, bp_cell):
        """I_ph / I_0 past the float range has no finite V_oc: about 2.5e303 W/m^2 at 298 K."""
        array = PVArray(bp_cell, ArrayConfig(72, 1))
        assert math.isfinite(array.open_circuit_voltage(EnvCondition(g=2.4e303, t=298.0)))
        for g in (2.5e303, 1e308, math.inf):
            with pytest.raises(ValueError, match=r"I_ph / I_0 overflows at g = "):
                array.open_circuit_voltage(EnvCondition(g=g, t=298.0))

    @pytest.mark.parametrize(
        "env", [STC, EnvCondition(g=20.0, t=298.0), EnvCondition(g=650.0, t=310.0)], ids=str
    )
    def test_is_the_closed_form_of_the_cell_constants(self, bp_cell, env):
        array = PVArray(bp_cell, ArrayConfig(4, 2))
        vt = bp_cell.n * K * env.t / Q
        i_ph = photon_current(bp_cell, env)
        i_0 = saturation_current(bp_cell, env)
        expected = vt * math.log(i_ph / i_0 + 1.0) * 4
        assert array.open_circuit_voltage(env) == expected  # bit-for-bit


class TestArrayScaling:
    def test_identity_configuration(self, bp_cell, stc):
        arr = PVArray(cell=bp_cell, layout=ArrayConfig(1, 1))
        assert arr.current_at(0.45, stc) == PVArray(bp_cell).current_at(0.45, stc)

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
            PVArray(bp_cell).current_at(32.0 / 72, stc), rel=1e-12
        )
        assert arr.open_circuit_voltage(stc) == pytest.approx(43.5, rel=1e-9)


class TestScalarPath:
    """A scalar and each element of a sequence go through one solve and give one float."""

    @given(
        layout=st.sampled_from([ArrayConfig(1, 1), ArrayConfig(72, 1), ArrayConfig(36, 4)]),
        g=st.floats(-4.0, 7.0).map(lambda e: 10.0**e),  # log-uniform in [1e-4, 1e7] W/m^2
        t=st.floats(220.0, 420.0),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_solves_to_the_explicit_curve(self, bp_cell, layout, g, t, fraction):
        """current_at(V(x)) is I(x) = I_ph - I_0*expm1(x/vt), V(x) = x - R_s*I(x).

        The solve stops at |f| < SOLVER_TOL_A, and |df/dI| >= 1 there, or at a
        step of 8 ulps of I; |dI/dV| < 1/R_s carries the rounding of V(x).
        """
        env = EnvCondition(g=g, t=t)
        array = PVArray(bp_cell, layout)
        i_ph, i_0 = photon_current(bp_cell, env), saturation_current(bp_cell, env)
        vt, r_s = bp_cell.n * K * t / Q, array.r_s
        x = fraction * vt * math.log1p(i_ph / i_0)  # up to x_oc
        i = i_ph - i_0 * math.expm1(x / vt)
        v = x - r_s * i
        assume(v >= 0)
        # V(x), its product R_s*I and its trip through n_series; I(x) and the step stop
        rounding_v = 4 * math.ulp(x) + 4 * math.ulp(r_s * i_ph)
        rounding_i = 4 * math.ulp(i_ph) + 8 * math.ulp(i_ph)
        n_p = layout.n_parallel
        bound = n_p * (SOLVER_TOL_A + rounding_v / r_s + rounding_i) + math.ulp(n_p * i_ph)
        solved = array.current_at(v * layout.n_series, env)
        assert abs(solved - n_p * i) <= bound

    @staticmethod
    def voltages(array, env):
        v_oc = array.open_circuit_voltage(env)
        span = v_oc or array.open_circuit_voltage(EnvCondition(g=1000.0, t=env.t))
        interior = [f * span for f in (0.1, 0.5, 0.8, 0.95)]
        return [0.0, *interior, v_oc, 1.05 * v_oc]

    @pytest.mark.parametrize("layout", [ArrayConfig(1, 1), ArrayConfig(4, 2)], ids=str)
    # 1 mOhm is the small-R_s regime, whose roots above V_oc reach thousands of amperes
    @pytest.mark.parametrize("r_s", [None, 1e-3], ids=["r_s_derived", "r_s_1mohm"])
    @pytest.mark.parametrize("t", [273.15, 298.0, 330.0])
    @pytest.mark.parametrize("g", [0.0, 20.0, 150.0, 1000.0])
    def test_bit_identical_to_one_element_array(self, bp_cell, layout, r_s, t, g):
        cell = bp_cell if r_s is None else cell_with_series_resistance(bp_cell, r_s)
        array = PVArray(cell=cell, layout=layout)
        env = EnvCondition(g=g, t=t)
        for v in self.voltages(array, env):
            scalar = array.current_at(v, env)
            assert type(scalar) is float
            assert scalar.hex() == float(array.current_at(np.array([v]), env)[0]).hex()
            v_cell = v / layout.n_series
            one = PVArray(cell).current_at(v_cell, env)
            lane = PVArray(cell).current_at(np.array([v_cell]), env)[0]
            assert type(one) is float
            assert one.hex() == float(lane).hex()

    @pytest.mark.parametrize("layout", [ArrayConfig(1, 1), ArrayConfig(4, 2)], ids=str)
    @pytest.mark.parametrize("g", [0.0, 20.0, 1000.0])
    def test_an_array_is_solved_element_by_element(self, bp_cell, layout, g):
        array = PVArray(cell=bp_cell, layout=layout)
        env = EnvCondition(g=g, t=298.0)
        volts = self.voltages(array, env)  # 0 V up to 5% above V_oc
        lanes = array.current_at(np.array(volts), env)
        assert type(lanes) is list and all(type(i) is float for i in lanes)
        assert [i.hex() for i in lanes] == [array.current_at(v, env).hex() for v in volts]
        for bad in (-1e-9, math.nan):
            messages = []
            for v_in in (bad, np.array([*volts, bad])):
                with pytest.raises(ValueError) as err:
                    array.current_at(v_in, env)
                messages.append(str(err.value))
            assert messages == ["cell voltage must be >= 0"] * 2

    def test_exhausted_newton_raises_one_error_on_both_paths(self, bp_cell, stc, monkeypatch):
        array = PVArray(cell=bp_cell, layout=ArrayConfig(72, 1))
        monkeypatch.setattr(pvmodel, "SOLVER_MAX_ITER", 1)
        v = 0.8 * array.open_circuit_voltage(stc)
        messages = []
        for v_in in (v, np.array([v])):
            with pytest.raises(ValueError, match=r"Newton did not converge \(iterations=1, ") as err:
                array.current_at(v_in, stc)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        residual = re.fullmatch(r".*residual=(\S+) A\)", messages[0]).group(1)
        assert float(residual) >= SOLVER_TOL_A

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


def newton_path(cell, r_s, env, v, tol, max_steps):
    """(I, f) after each plain Newton step from the solver's start, as the solver takes them.

    The start is min(I_ph, I_cap) with I_cap = (vt*log1p((I_ph + V/R_s)/I_0) - V)/R_s.
    Stops at |f| < tol, or where the step falls to 8 ulps of I: there the
    rounding of f can flip its sign, and a current of thousands of amperes
    cannot meet an absolute tolerance of 1e-9 A anyway.
    """
    i_ph, i_0 = photon_current(cell, env), saturation_current(cell, env)
    vt = cell.n * K * env.t / Q

    def residual(i):
        return i_ph - i_0 * float(np.expm1((v + i * r_s) / vt)) - i

    i = min(i_ph, (vt * float(np.log1p((i_ph + v / r_s) / i_0)) - v) / r_s)
    path = [(i, residual(i))]
    while abs(path[-1][1]) >= tol and len(path) <= max_steps:
        i, f = path[-1]
        df = -i_0 * float(np.exp((v + i * r_s) / vt)) * r_s / vt - 1.0
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
        r_s=st.floats(1e-4, 0.05),  # 0.1 to 50 mOhm per cell
        env=environments,
        fraction=st.floats(0.0, 0.999),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_steps_never_raise_the_current_or_the_residual(self, cell, r_s, env, fraction):
        array = PVArray(cell_with_series_resistance(cell, r_s))
        r_s = array.r_s  # the derived R_s, a few ulps from the draw
        i_ph = photon_current(cell, env)
        v_guard = pvmodel.MAX_EXP_ARGUMENT * cell.n * K * env.t / Q - i_ph * r_s
        v = fraction * v_guard  # up to a diode exponent of MAX_EXP_ARGUMENT at I = I_ph
        path = newton_path(cell, r_s, env, v, SOLVER_TOL_A, max_steps=2000)
        assert len(path) <= 9  # at most 8 steps
        for (i_old, f_old), (i_new, f_new) in zip(path, path[1:]):
            assert i_new <= i_old
            assert abs(f_new) <= abs(f_old)

        scalar = array.current_at(v, env)
        assert scalar.hex() == float(array.current_at(np.array([v]), env)[0]).hex()
        assert scalar.hex() == path[-1][0].hex()

    @given(env=environments)
    @settings(derandomize=True, max_examples=50, deadline=None)
    def test_duty_clamp_voltage_meets_the_tolerance_in_eight_steps(self, table1_clamp, env):
        array, v_clamp = table1_clamp
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pvmodel, "SOLVER_MAX_ITER", 8)
            i_array = array.current_at(v_clamp, env)
        assert i_array == array.current_at(v_clamp, env)
        v = v_clamp / array.layout.n_series
        i = newton_path(array.cell, array.r_s, env, v, SOLVER_TOL_A, max_steps=8)[-1][0]
        assert i_array == array.layout.n_parallel * i  # Newton's own root, not a fallback's
        vd = v + i * array.r_s
        vt = array.cell.n * K * env.t / Q
        i_ph, i_0 = photon_current(array.cell, env), saturation_current(array.cell, env)
        assert abs(i_ph - i_0 * math.expm1(vd / vt) - i) < SOLVER_TOL_A

    def test_small_series_resistance_far_above_open_circuit(self, bp_cell, stc):
        """Roots of hundreds to thousands of amperes solve to the float root on both paths."""
        i_ph = photon_current(bp_cell, stc)
        cases = [(0.001, 19.0)] + [(0.0002, round(9.4 + 0.1 * k, 1)) for k in range(137)]
        for r_s, v in cases:
            array = PVArray(cell_with_series_resistance(bp_cell, r_s))
            i = array.current_at(v, stc)
            assert i.hex() == float(array.current_at(np.array([v]), stc)[0]).hex()
            i_slow = bisect_current(array.cell, array.r_s, stc, v, -v / array.r_s, i_ph)
            assert i == pytest.approx(i_slow, rel=1e-12)

    def test_the_measured_irradiance_domain(self, bp_panel):
        """At 298 K every voltage of the P-V grid solves at 1e8 W/m^2; 69 raise at 1.5e8.

        The diode voltage moves in whole ulps there, so the residual cannot
        fall below SOLVER_TOL_A and the iterate alternates between two currents.
        A colder cell meets that limit at a lower irradiance: some voltages raise
        at 1e8 W/m^2 from 273.15 K down, and at 3e7 at 223.15 and 120 K, while
        every voltage solves at 1e7 from 120 to 273.15 K.
        """
        unsolved = "Newton did not converge (iterations=100, residual="
        for g, t, failures in (
            (1e8, 298.0, 0), (1.5e8, 298.0, 69),
            (1e8, 273.15, 54), (1e8, 223.15, 90), (1e8, 173.15, 64), (1e8, 120.0, 83),
            (3e7, 273.15, 0), (3e7, 223.15, 1), (3e7, 173.15, 0), (3e7, 120.0, 22),
            (1e7, 273.15, 0), (1e7, 223.15, 0), (1e7, 173.15, 0), (1e7, 120.0, 0),
        ):
            env = EnvCondition(g=g, t=t)
            grid = np.linspace(0.0, bp_panel.open_circuit_voltage(env), 2000)
            failed = 0
            for v in grid.tolist():
                try:
                    bp_panel.current_at(v, env)
                except ValueError as exc:
                    assert str(exc).startswith(unsolved)
                    failed += 1
            assert failed == failures
            if failures:  # so the grid as one array raises
                with pytest.raises(ValueError, match=re.escape(unsolved)):
                    bp_panel.current_at(grid, env)
            else:
                bp_panel.current_at(grid, env)


class TestValidation:
    def test_cell_invariants(self):
        with pytest.raises(ValueError):
            CellParams(i_sc_ref=-1, v_oc_ref=0.6, alpha=0.0, n=1.3, dv_di_oc=-0.01)
        with pytest.raises(ValueError):
            CellParams(i_sc_ref=4.75, v_oc_ref=0.6, alpha=0.0, n=0.9, dv_di_oc=-0.01)
        with pytest.raises(ValueError):
            CellParams(i_sc_ref=4.75, v_oc_ref=0.6, alpha=0.0, n=1.3, dv_di_oc=0.01)

    def test_env_invariants(self):
        with pytest.raises(ValueError):
            EnvCondition(g=-1.0, t=298.0)
        with pytest.raises(ValueError):
            EnvCondition(g=100.0, t=0.0)
        with pytest.raises(ValueError):
            EnvCondition(g=math.nan, t=298.0)
        with pytest.raises(ValueError):
            EnvCondition(g=100.0, t=math.nan)

    def test_array_config_invariants(self):
        with pytest.raises(ValueError):
            ArrayConfig(0, 1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("constants", (1.6e-19, K)),
            ("solver_tol", 1e-6),
            ("band_gap_denominator_sign", 1),
            # R_s comes only from the open-circuit slope: a positive one is as
            # foreign as the non-positive ones the Newton solve cannot take
            *[("r_s", r_s) for r_s in (1e-3, -0.05, 0.0, -0.0, math.nan)],
            ("solver_max_iter", 1),
            ("solver_max_iter", 8),
        ],
    )
    def test_any_other_fixed_argument_is_rejected(self, bp_cell, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            PVArray(bp_cell, ArrayConfig(72, 1), **{name: value})

    def test_negative_photon_current_names_alpha_and_t(self, bp_cell):
        # 1 + alpha*(T - T_ref) = 1 - 0.01*102.15 < 0
        array = PVArray(dataclasses.replace(bp_cell, alpha=-0.01), ArrayConfig(72, 1))
        env = EnvCondition(g=1000.0, t=400.15)
        for v in (1.0, np.array([1.0])):
            with pytest.raises(ValueError, match=r"^alpha = -0\.01 gives I_ph < 0 at T = 400\.15 K$"):
                array.current_at(v, env)

    def test_power_recomputed_from_current_at(self, bp_panel, stc):
        v = np.array([3.0, 30.0])
        p_lanes = v * bp_panel.current_at(v, stc)
        p_floats = [x * bp_panel.current_at(x, stc) for x in (3.0, 30.0)]
        assert p_lanes.tolist() == p_floats
