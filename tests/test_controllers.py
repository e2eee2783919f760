"""Controller tests: slope evaluation, hand-traced step updates, freeze
behaviour, bound discipline, and direction correctness."""

from __future__ import annotations

import math
import random

import pytest

from mpptbench.controllers import (
    DELTA_D_FLOOR,
    FALLBACK_SLOPE_MAGNITUDE,
    ControllerParams,
    ControllerState,
    DegenerateSampleError,
    Measurement,
    MpptController,
    StepAction,
    conventional_step,
    initial_state,
    revised_step,
    slope_term,
)


def meas_with_slope(s: float, v: float = 30.0, i: float = 4.0, dv: float = 0.5):
    """Build (meas, prev_v, prev_i) whose normalized slope term is ~s."""
    di = dv * (i / v) * (s - 1.0)
    return Measurement(v=v, i=i), v - dv, i - di


def state_with_history(
    d: float = 0.5,
    delta_d: float = 0.001,
    delta_d_max: float = 0.01,
    prev_slope_sign: int | None = None,
    v: float = 30.0,
    i: float = 4.0,
    dv: float = 0.5,
    s: float = 1.0,
) -> ControllerState:
    """State positioned so that meas_with_slope(s, v, i, dv) follows it."""
    _, prev_v, prev_i = meas_with_slope(s, v, i, dv)
    return ControllerState(
        d=d,
        delta_d=delta_d,
        delta_d_max=delta_d_max,
        prev_v=prev_v,
        prev_i=prev_i,
        prev_slope_sign=prev_slope_sign,
    )


class TestSlopeTerm:
    def test_hand_example_normalized(self):
        # (dI/dV + I/V) * V/I = (-0.2/1 + 4/30) * 30/4
        s, from_di_alone = slope_term(Measurement(30.0, 4.0), 29.0, 4.2, None)
        assert s == pytest.approx(-0.5, rel=1e-12)
        assert not from_di_alone

    def test_zero_at_mpp_of_linear_iv(self):
        # I = 8*(1 - V/64): at V = 32 the secant equals -I/V exactly
        def current(v):
            return 8.0 * (1.0 - v / 64.0)

        s, _ = slope_term(Measurement(32.0, current(32.0)), 31.0, current(31.0), None)
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_sign_matches_side_of_mpp(self):
        def current(v):
            return 8.0 * (1.0 - v / 64.0)

        left, _ = slope_term(Measurement(20.0, current(20.0)), 19.0, current(19.0), None)
        right, _ = slope_term(Measurement(45.0, current(45.0)), 44.0, current(44.0), None)
        assert left > 0 > right

    def test_dv_fallback_positive(self):
        result = slope_term(Measurement(30.0, 4.2), 30.0, 4.0, None)
        assert result == (FALLBACK_SLOPE_MAGNITUDE, True)

    def test_dv_fallback_negative(self):
        result = slope_term(Measurement(30.0, 3.5), 30.0, 4.0, None)
        assert result == (-FALLBACK_SLOPE_MAGNITUDE, True)

    def test_both_degenerate_reuses_history(self):
        assert slope_term(Measurement(30.0, 4.0), 30.0, 4.0, 1) == (0.0, False)

    def test_both_degenerate_without_history_raises(self):
        with pytest.raises(DegenerateSampleError):
            slope_term(Measurement(30.0, 4.0), 30.0, 4.0, None)

    def test_zero_current_plateau_points_left(self):
        result = slope_term(Measurement(36.0, 0.0), 35.0, 0.0, None)
        assert result == (-FALLBACK_SLOPE_MAGNITUDE, False)

    def test_zero_voltage_points_right(self):
        # measurement noise can clamp the sampled voltage to 0
        result = slope_term(Measurement(0.0, 4.7), 0.6, 4.6, None)
        assert result == (FALLBACK_SLOPE_MAGNITUDE, False)

    def test_zero_voltage_sample_raises_the_voltage(self, default_params):
        st = state_with_history(d=0.5, prev_slope_sign=+1, v=0.6, i=4.6, dv=0.1)
        for step in (conventional_step, revised_step):
            out = step(st, Measurement(0.0, 4.7), default_params)
            assert out.action is StepAction.MOVED_RIGHT
            assert out.slope_term == FALLBACK_SLOPE_MAGNITUDE

    def test_constructed_slope_helper(self):
        meas, pv, pi = meas_with_slope(-1.5)
        s, _ = slope_term(meas, pv, pi, None)
        assert s == pytest.approx(-1.5, rel=1e-12)


class TestConventionalStep:
    def test_positive_slope_lowers_duty(self, default_params):
        st = state_with_history(d=0.5, s=+0.5)
        meas, _, _ = meas_with_slope(+0.5)
        out = conventional_step(st, meas, default_params)
        assert out.new_state.d == pytest.approx(0.5 - 0.001, rel=1e-15)
        assert out.action is StepAction.MOVED_RIGHT

    def test_negative_slope_raises_duty(self, default_params):
        st = state_with_history(d=0.5, s=-0.5)
        meas, _, _ = meas_with_slope(-0.5)
        out = conventional_step(st, meas, default_params)
        assert out.new_state.d == pytest.approx(0.5 + 0.001, rel=1e-15)
        assert out.action is StepAction.MOVED_LEFT

    def test_zero_slope_holds(self, default_params):
        def current(v):
            return 8.0 * (1.0 - v / 64.0)

        st = ControllerState(
            d=0.5, delta_d=0.001, delta_d_max=0.01, prev_v=31.0, prev_i=current(31.0)
        )
        out = conventional_step(st, Measurement(32.0, current(32.0)), default_params)
        assert out.new_state.d == st.d
        assert out.action is StepAction.HELD_AT_MPP

    def test_seed_step_perturbs_toward_higher_voltage(self, default_params):
        st = initial_state(0.5, default_params)
        out = conventional_step(st, Measurement(30.0, 4.0), default_params)
        assert out.new_state.d == pytest.approx(0.5 - 0.001, rel=1e-15)
        assert math.isnan(out.slope_term)

    def test_fixed_step_never_scales(self, default_params):
        st = state_with_history(d=0.5, s=+5.0)  # steep slope, still one nominal step
        meas, _, _ = meas_with_slope(+5.0)
        out = conventional_step(st, meas, default_params)
        assert abs(out.new_state.d - st.d) == pytest.approx(
            default_params.delta_d_nominal, rel=1e-12
        )


class TestRevisedStepHandTraces:
    def test_mpp_test_resets_and_holds(self, default_params):
        st = state_with_history(
            d=0.52, delta_d=3e-5, delta_d_max=0.004, prev_slope_sign=-1, s=2e-4
        )
        meas, _, _ = meas_with_slope(2e-4)
        out = revised_step(st, meas, default_params)
        assert out.action is StepAction.HELD_AT_MPP
        assert out.new_state.d == st.d
        assert out.new_state.delta_d == default_params.delta_d_nominal == 0.001
        assert out.new_state.delta_d_max == default_params.delta_d_max_initial == 0.01

    def test_sign_change_applies_deacc_and_shrinks_bound(self, default_params):
        st = state_with_history(
            d=0.5, delta_d=0.004, delta_d_max=0.01, prev_slope_sign=+1, s=-1.5
        )
        meas, _, _ = meas_with_slope(-1.5)
        out = revised_step(st, meas, default_params)
        # 0.004 * 0.8 * 1.5 = 0.0048, below the shrunk bound 0.008
        assert out.new_state.delta_d == pytest.approx(0.0048, rel=1e-12)
        assert out.new_state.delta_d_max == pytest.approx(0.008, rel=1e-12)
        assert out.new_state.d == pytest.approx(0.5 + 0.0048, rel=1e-9)
        assert out.action is StepAction.MOVED_LEFT

    def test_same_sign_applies_acc_and_clamps_to_bound(self, default_params):
        st = state_with_history(
            d=0.5, delta_d=0.008, delta_d_max=0.01, prev_slope_sign=+1, s=+2.0
        )
        meas, _, _ = meas_with_slope(+2.0)
        out = revised_step(st, meas, default_params)
        # raw 0.008 * 1.2 * 2.0 = 0.0192, clamped to the (unchanged) bound
        assert out.new_state.delta_d == 0.01
        assert out.new_state.delta_d_max == 0.01
        assert out.new_state.d == pytest.approx(0.5 - 0.01, rel=1e-12)

    def test_fixed_bound_variant_does_not_shrink(self):
        params = ControllerParams(delta_d_max_floor=0.01)
        st = state_with_history(
            d=0.5, delta_d=0.004, delta_d_max=0.01, prev_slope_sign=+1, s=-1.5
        )
        meas, _, _ = meas_with_slope(-1.5)
        out = revised_step(st, meas, params)
        assert out.new_state.delta_d_max == 0.01

    def test_unset_history_uses_unit_factor(self, default_params):
        st = state_with_history(
            d=0.5, delta_d=0.002, delta_d_max=0.01, prev_slope_sign=None, s=+2.0
        )
        meas, _, _ = meas_with_slope(+2.0)
        out = revised_step(st, meas, default_params)
        assert out.new_state.delta_d == pytest.approx(0.004, rel=1e-9)


class TestRevisedStepBehaviour:
    def test_freeze_preserves_duty_for_random_states(self, default_params):
        rng = random.Random(20260810)
        for _ in range(200):
            v = rng.uniform(5.0, 40.0)
            i = rng.uniform(0.5, 5.0)
            dv = rng.uniform(0.05, 1.0)
            s = rng.uniform(-0.99, 0.99) * default_params.epsilon
            st = state_with_history(
                d=rng.uniform(0.1, 0.9),
                delta_d=rng.uniform(DELTA_D_FLOOR, 0.01),
                delta_d_max=rng.uniform(0.002, 0.01),
                prev_slope_sign=rng.choice((-1, 1, None)),
                v=v, i=i, dv=dv, s=s,
            )
            meas, _, _ = meas_with_slope(s, v=v, i=i, dv=dv)
            out = revised_step(st, meas, default_params)
            assert out.new_state.d == st.d
            assert out.action is StepAction.HELD_AT_MPP
            assert out.new_state.delta_d == default_params.delta_d_nominal
            assert out.new_state.delta_d_max == default_params.delta_d_max_initial

    def test_hold_retains_slope_sign_history(self, default_params):
        st = state_with_history(d=0.5, prev_slope_sign=+1, s=1e-5)
        meas, _, _ = meas_with_slope(1e-5)
        out = revised_step(st, meas, default_params)
        assert out.new_state.prev_slope_sign == +1

    def test_fallback_restarts_step_from_nominal(self, default_params):
        # duty static with a collapsed step; the environment changes
        st = ControllerState(
            d=0.55, delta_d=1e-12, delta_d_max=0.008, prev_v=30.0, prev_i=0.5,
            prev_slope_sign=+1,
        )
        out = revised_step(st, Measurement(30.0, 2.5), default_params)
        # sign(dI) = +1 equals history: factor acc; nominal*acc*10 clamps to bound
        assert out.new_state.delta_d == pytest.approx(0.008, rel=1e-12)
        assert out.new_state.d == pytest.approx(0.55 - 0.008, rel=1e-9)

    def test_fallback_sign_change_shrinks_adaptive_bound(self, default_params):
        st = ControllerState(
            d=0.55, delta_d=0.001, delta_d_max=0.01, prev_v=30.0, prev_i=2.5,
            prev_slope_sign=+1,
        )
        out = revised_step(st, Measurement(30.0, 0.5), default_params)  # current fell
        assert out.new_state.delta_d_max == pytest.approx(0.008, rel=1e-12)
        assert out.new_state.prev_slope_sign == -1

    def test_duty_clamp_does_not_touch_adaptation(self):
        params = ControllerParams(d_min=0.4, d_max=0.6)
        st = state_with_history(
            d=0.41, delta_d=0.008, delta_d_max=0.01, prev_slope_sign=+1, s=+2.0
        )
        meas, _, _ = meas_with_slope(+2.0)
        out = revised_step(st, meas, params)
        assert out.new_state.d == params.d_min
        assert out.new_state.delta_d == 0.01  # update ran, clamp only capped the duty
        assert out.new_state.prev_slope_sign == +1

    def test_pinned_at_clamp_reports_held_action(self):
        params = ControllerParams(d_min=0.4, d_max=0.6)
        st = state_with_history(
            d=0.4, delta_d=0.005, delta_d_max=0.01, prev_slope_sign=+1, s=+2.0
        )
        meas, _, _ = meas_with_slope(+2.0)
        out = revised_step(st, meas, params)
        assert out.new_state.d == st.d
        assert out.action is StepAction.HELD_AT_MPP
        assert out.new_state.delta_d == 0.01  # not the reset a slope-test hold applies

    def test_seed_step_kicks_at_bound(self, default_params):
        st = initial_state(0.55, default_params)
        out = revised_step(st, Measurement(31.0, 4.6), default_params)
        assert out.new_state.delta_d == default_params.delta_d_max_initial
        assert out.new_state.d == pytest.approx(0.55 - 0.01, rel=1e-12)
        assert math.isnan(out.slope_term)

    def test_degenerate_without_history_raises(self, default_params):
        controller = MpptController("revised-adaptive-bound", default_params, 0.5)
        controller.step(Measurement(30.0, 4.0))
        with pytest.raises(DegenerateSampleError):
            controller.step(Measurement(30.0, 4.0))

    def test_hold_on_the_first_secant_stays_held(self, default_params):
        meas, prev_v, prev_i = meas_with_slope(-1e-4)
        controller = MpptController("revised-adaptive-bound", default_params, 0.5)
        controller.step(Measurement(prev_v, prev_i))  # the seed step
        first = controller.step(meas)
        assert first.action is StepAction.HELD_AT_MPP
        assert first.new_state.prev_slope_sign == -1  # the held slope's sign
        again = controller.step(meas)  # duty and conditions unchanged
        assert again.action is StepAction.HELD_AT_MPP and again.slope_term == 0.0

    def test_determinism(self, default_params):
        st = state_with_history(d=0.5, delta_d=0.004, prev_slope_sign=+1, s=-1.5)
        meas, _, _ = meas_with_slope(-1.5)
        assert revised_step(st, meas, default_params) == revised_step(
            st, meas, default_params
        )


class TestBoundDiscipline:
    def _drive(self, params: ControllerParams, steps: int = 400):
        """Random-walk plant: enough to exercise acc/deacc/hold paths."""
        rng = random.Random(7)
        controller = MpptController("revised-adaptive-bound", params, 0.5)
        v, i = 30.0, 4.0
        bound_increased_outside_hold = False
        prev_bound = controller.state.delta_d_max
        for _ in range(steps):
            out = controller.step(Measurement(v, i))
            st = controller.state
            assert DELTA_D_FLOOR <= st.delta_d <= st.delta_d_max
            assert params.delta_d_max_floor <= st.delta_d_max <= params.delta_d_max_initial
            if st.delta_d_max > prev_bound and out.action is not StepAction.HELD_AT_MPP:
                bound_increased_outside_hold = True
            prev_bound = st.delta_d_max
            v = max(1.0, v + rng.uniform(-1.0, 1.0))
            i = max(0.0, i + rng.uniform(-0.3, 0.3))
        return bound_increased_outside_hold

    def test_invariants_hold_along_random_walk(self, default_params):
        assert self._drive(default_params) is False

    def test_invariants_hold_with_other_factors(self):
        assert self._drive(ControllerParams(acc=1.3, deacc=0.9)) is False

    def test_fixed_bound_kind_keeps_its_initial_bound(self, default_params):
        rng = random.Random(7)
        controller = MpptController("revised-fixed-bound", default_params, 0.5)
        v, i = 30.0, 4.0
        signs = set()
        for _ in range(400):
            out = controller.step(Measurement(v, i))
            assert controller.state.delta_d_max == default_params.delta_d_max_initial
            if out.action is not StepAction.HELD_AT_MPP:
                signs.add(controller.state.prev_slope_sign)
            v = max(1.0, v + rng.uniform(-1.0, 1.0))
            i = max(0.0, i + rng.uniform(-0.3, 0.3))
        assert {-1, 1} <= signs  # the walk flipped the slope sign


class TestDirectionCorrectness:
    def test_small_steps_increase_power_on_unimodal_curve(self):
        # linear I-V: P is a parabola peaking at v_oc/2
        v_bus, v_oc, i_sc = 32.0, 64.0, 8.0

        def plant(d):
            v = v_bus * (1.0 - d) / d
            return v, max(0.0, i_sc * (1.0 - v / v_oc))

        params = ControllerParams(delta_d_nominal=1e-4, delta_d_max_initial=1e-3)
        for d_start in (0.38, 0.45, 0.55, 0.62):
            controller = MpptController("revised-adaptive-bound", params, d_start)
            v, i = plant(controller.state.d)
            controller.step(Measurement(v, i))  # seed
            for _ in range(3):
                v, i = plant(controller.state.d)
                p_before = v * i
                out = controller.step(Measurement(v, i))
                v2, i2 = plant(controller.state.d)
                if out.action is not StepAction.HELD_AT_MPP:
                    assert v2 * i2 > p_before


class TestControllerWrapper:
    def test_rejects_unknown_kind(self, default_params):
        with pytest.raises(ValueError):
            MpptController("p-and-o", default_params, 0.5)

    def test_kind_sets_bound_floor(self, default_params):
        fixed = MpptController("revised-fixed-bound", default_params, 0.5)
        adaptive = MpptController("revised-adaptive-bound", default_params, 0.5)
        assert fixed.params.delta_d_max_floor == fixed.params.delta_d_max_initial
        assert adaptive.params == default_params

    def test_initial_duty_validated(self, default_params):
        with pytest.raises(ValueError):
            MpptController("conventional", default_params, 1.5)


class TestParamsValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ControllerParams(delta_d_nominal=0.02, delta_d_max_initial=0.01)
        with pytest.raises(ValueError):
            ControllerParams(acc=0.9)
        with pytest.raises(ValueError):
            ControllerParams(deacc=1.1)
        with pytest.raises(ValueError):
            ControllerParams(epsilon=0.0)
        with pytest.raises(ValueError):
            ControllerParams(delta_d_max_floor=0.05)
        with pytest.raises(ValueError, match="d_min < d_max"):
            ControllerParams(d_min=0.9, d_max=0.1)


class TestMeasurementContract:
    def test_negative_values_rejected(self, default_params):
        st = initial_state(0.5, default_params)
        with pytest.raises(ValueError):
            conventional_step(st, Measurement(-1.0, 4.0), default_params)
        with pytest.raises(ValueError):
            revised_step(st, Measurement(30.0, -0.1), default_params)

    def test_seed_flips_direction_when_pinned_at_clamp(self):
        params = ControllerParams(d_min=0.05, d_max=0.95)
        st = initial_state(0.05, params)  # +V move would clamp in place
        out = revised_step(st, Measurement(30.0, 4.0), params)
        assert out.new_state.d > st.d
