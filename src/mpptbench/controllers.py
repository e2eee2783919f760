"""Incremental-conductance MPPT controllers.

Two decision rules over the same slope test:

* ``conventional_step`` moves the duty ratio by a fixed increment toward
  the MPP every step, so it keeps perturbing after arrival.
* ``revised_step`` scales the increment by the magnitude of the P-V
  slope, accelerates it when the slope sign repeats (step too small),
  decelerates it when the sign flips (step too large), shrinks the step
  upper bound on sign flips down to its floor, and freezes the duty once
  the slope test passes, resetting the step to its nominal value.

The slope term is dI/dV + I/V, whose sign matches dP/dV: positive left
of the MPP (raise the voltage), negative right of it.  It is normalized
by V/I, so thresholds are dimensionless and independent of plant size.

Both step functions are pure: they take a state and return a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .converter import BuckBoost

__all__ = [
    "Measurement",
    "ControllerParams",
    "ControllerState",
    "StepAction",
    "StepOutcome",
    "DegenerateSampleError",
    "FALLBACK_SLOPE_MAGNITUDE",
    "DV_DEGENERATE_V",
    "DI_DEGENERATE_A",
    "DELTA_D_FLOOR",
    "slope_term",
    "initial_state",
    "conventional_step",
    "revised_step",
    "MpptController",
    "CONTROLLER_KINDS",
]

# Below these deltas a secant slope is meaningless.
DV_DEGENERATE_V = 1e-9
DI_DEGENERATE_A = 1e-9
# Currents below this are treated as a zero-power plateau (above V_oc).
ZERO_CURRENT_A = 1e-9
# Stand-in slope magnitude when only the direction is known (degenerate
# dV, or zero-current plateau): large enough that the duty step clamps
# to its upper bound, which is exactly the sized response to a sudden
# operating-condition change.
FALLBACK_SLOPE_MAGNITUDE = 10.0
# Floor for the V/I normalization when the current is at/near zero.
_NORM_CURRENT_FLOOR = 1e-12
# Numerical floor that keeps the revised step from underflowing to 0.
DELTA_D_FLOOR = 1e-12
# The controllers drive a buck-boost stage: raising d lowers the panel voltage.
_DV_DD_SIGN = BuckBoost.sign_of_dv_dd


class DegenerateSampleError(Exception):
    """The seed step did not move the sample: delta_d_nominal is too small."""


class Measurement(NamedTuple):
    """Sampled terminal voltage (V) and current (A), source convention (both >= 0)."""

    v: float
    i: float

    def validate(self) -> "Measurement":
        if self.v < 0 or self.i < 0:
            raise ValueError(f"measurement must be non-negative, got {self}")
        return self


class StepAction:
    """What a step did to the duty; the values are the trace's action column."""

    MOVED_LEFT = "moved_left"    # duty change lowered the terminal voltage
    MOVED_RIGHT = "moved_right"  # duty change raised the terminal voltage
    HELD_AT_MPP = "held_at_mpp"  # duty unchanged


@dataclass(frozen=True)
class ControllerParams:
    """Tuning constants shared by both controllers.

    delta_d_nominal: initial/reset duty step
    delta_d_max_initial: initial step upper bound
    delta_d_max_floor: smallest value the upper bound may shrink to on sign
        flips; at delta_d_max_initial the bound stays fixed
    epsilon: MPP detection threshold on |slope term|
    acc/deacc: step multipliers for repeated / flipped slope sign
    d_min/d_max: duty clamp range of the converter stage
    """

    delta_d_nominal: float = 0.001
    delta_d_max_initial: float = 0.01
    delta_d_max_floor: float = 0.001
    epsilon: float = 5e-4
    acc: float = 1.2
    deacc: float = 0.8
    d_min: float = BuckBoost.d_min
    d_max: float = BuckBoost.d_max

    def __post_init__(self):
        if not (0.0 < self.delta_d_nominal <= self.delta_d_max_initial < 1.0):
            raise ValueError("need 0 < delta_d_nominal <= delta_d_max_initial < 1")
        if not (0.0 < self.delta_d_max_floor <= self.delta_d_max_initial):
            raise ValueError("need 0 < delta_d_max_floor <= delta_d_max_initial")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.acc <= 1.0:
            raise ValueError("acc must be > 1")
        if not (0.0 < self.deacc < 1.0):
            raise ValueError("deacc must be in (0, 1)")
        if not (0.0 < self.d_min < self.d_max < 1.0):
            raise ValueError("need 0 < d_min < d_max < 1")


class ControllerState(NamedTuple):
    """Controller memory carried between steps.

    prev_slope_sign is None until the first slope has been computed and
    keeps the last tracking direction through holds, so a sudden
    environment change that reverses the direction registers as a sign
    flip.  A hold on the first slope records that slope's sign.
    """

    d: float
    delta_d: float
    delta_d_max: float
    prev_v: float | None = None
    prev_i: float | None = None
    prev_slope_sign: int | None = None


class StepOutcome(NamedTuple):
    new_state: ControllerState
    action: str  # a StepAction value
    slope_term: float  # nan on the seeding step, before any slope exists


def slope_term(
    meas: Measurement,
    prev_v: float,
    prev_i: float,
    prev_slope_sign: int | None,
) -> tuple[float, bool]:
    """Slope test value for one sample pair, and whether dI alone set it.

    The value is dI/dV + I/V multiplied by V/I, the dimensionless
    1 + (V/I)*(dI/dV); its sign matches the sign of dP/dV for
    well-conditioned inputs.  The flag is True when dV is degenerate but
    dI is not: the duty was static and the environment changed, so the
    value is +/-FALLBACK_SLOPE_MAGNITUDE signed by dI.  A sample at 0 V
    (noise can clamp the measured voltage there) gives
    +FALLBACK_SLOPE_MAGNITUDE, because the MPP lies at a higher voltage.
    """
    dv = meas.v - prev_v
    di = meas.i - prev_i
    if abs(dv) < DV_DEGENERATE_V:
        if abs(di) < DI_DEGENERATE_A:
            if prev_slope_sign is None:
                raise DegenerateSampleError(
                    "controller.delta_d_nominal is too small for this converter: the seed "
                    f"step moved the sample by dV={dv:.3e} V and dI={di:.3e} A, both degenerate"
                )
            # nothing changed: zero slope keeps a held controller held
            return 0.0, False
        # duty was static and the current jumped: the environment changed;
        # a rising current at fixed voltage means the MPP moved right
        return math.copysign(FALLBACK_SLOPE_MAGNITUDE, di), True
    if meas.i < ZERO_CURRENT_A and prev_i < ZERO_CURRENT_A:
        # flat zero-power plateau beyond open circuit: slope carries no
        # information there, but the MPP is always at lower voltage
        return -FALLBACK_SLOPE_MAGNITUDE, False
    if meas.v == 0:
        return FALLBACK_SLOPE_MAGNITUDE, False
    raw = di / dv + meas.i / meas.v
    return raw * meas.v / max(meas.i, _NORM_CURRENT_FLOOR), False


def initial_state(d0: float, params: ControllerParams) -> ControllerState:
    if not (0.0 < d0 < 1.0):
        raise ValueError("initial duty must be in (0, 1)")
    return ControllerState(
        d=d0,
        delta_d=params.delta_d_nominal,
        delta_d_max=params.delta_d_max_initial,
    )


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def _apply_move(d: float, sign: int, delta_d: float, params: ControllerParams) -> float:
    # clamping at the converter limits never alters delta_d or the slope sign
    return _clamp(d + _DV_DD_SIGN * sign * delta_d, params.d_min, params.d_max)


def _action_for(d_old: float, d_new: float) -> str:
    if d_new == d_old:
        return StepAction.HELD_AT_MPP
    raised_v = _DV_DD_SIGN * (d_new - d_old) > 0
    return StepAction.MOVED_RIGHT if raised_v else StepAction.MOVED_LEFT


def _seed_step(
    state: ControllerState, meas: Measurement, params: ControllerParams, delta_d: float
) -> StepOutcome:
    # No history yet: perturb toward higher voltage so the next sample
    # yields a usable secant (holding would leave both deltas degenerate).
    # Flip the direction if the duty clamp swallowed the move.
    d_new = _apply_move(state.d, +1, delta_d, params)
    if d_new == state.d:
        d_new = _apply_move(state.d, -1, delta_d, params)
    new_state = ControllerState(
        d=d_new, delta_d=delta_d, delta_d_max=state.delta_d_max, prev_v=meas.v, prev_i=meas.i,
        prev_slope_sign=state.prev_slope_sign,
    )
    return StepOutcome(new_state, _action_for(state.d, d_new), math.nan)


def conventional_step(
    state: ControllerState, meas: Measurement, params: ControllerParams
) -> StepOutcome:
    """Fixed-increment IncCond step: move delta_d_nominal toward the MPP.

    Holds only when the slope is exactly zero, so in practice the duty
    keeps perturbing around the MPP indefinitely.
    """
    meas.validate()
    if state.prev_v is None:
        return _seed_step(state, meas, params, params.delta_d_nominal)
    s, _ = slope_term(meas, state.prev_v, state.prev_i, state.prev_slope_sign)
    sign = 1 if s > 0 else -1
    if s == 0.0:
        new_state = ControllerState(
            d=state.d, delta_d=state.delta_d, delta_d_max=state.delta_d_max, prev_v=meas.v,
            prev_i=meas.i, prev_slope_sign=state.prev_slope_sign or sign,
        )
        return StepOutcome(new_state, StepAction.HELD_AT_MPP, s)
    d_new = _apply_move(state.d, sign, params.delta_d_nominal, params)
    new_state = ControllerState(
        d=d_new, delta_d=state.delta_d, delta_d_max=state.delta_d_max, prev_v=meas.v,
        prev_i=meas.i, prev_slope_sign=sign,
    )
    return StepOutcome(new_state, _action_for(state.d, d_new), s)


def revised_step(
    state: ControllerState, meas: Measurement, params: ControllerParams
) -> StepOutcome:
    """Adaptive IncCond step with slope-scaled increment and freeze at the MPP.

    Order of business: evaluate the slope term; if |s| <= epsilon hold
    the duty and reset step and bound to their initial values; otherwise
    pick acc (sign repeated) or deacc (sign flipped), shrink the bound by
    deacc on flips but not below delta_d_max_floor, update
    delta_d := delta_d * factor * |s| clamped into [DELTA_D_FLOOR, bound],
    and move the duty so the terminal voltage heads toward the MPP.
    """
    meas.validate()
    if state.prev_v is None:
        seed = _clamp(
            params.delta_d_nominal * FALLBACK_SLOPE_MAGNITUDE, DELTA_D_FLOOR, state.delta_d_max
        )
        return _seed_step(state, meas, params, seed)
    s, from_di_alone = slope_term(meas, state.prev_v, state.prev_i, state.prev_slope_sign)
    delta_d = state.delta_d
    if from_di_alone:
        # The duty has been static (held, or the step collapsed) and the
        # environment just changed: restart the step from its nominal
        # value or the response to the new transient stays microscopic.
        delta_d = params.delta_d_nominal
    sign = 1 if s > 0 else -1
    if abs(s) <= params.epsilon:
        new_state = ControllerState(
            d=state.d, delta_d=params.delta_d_nominal, delta_d_max=params.delta_d_max_initial,
            prev_v=meas.v, prev_i=meas.i, prev_slope_sign=state.prev_slope_sign or sign,
        )
        return StepOutcome(new_state, StepAction.HELD_AT_MPP, s)

    delta_d_max = state.delta_d_max
    if state.prev_slope_sign is None:
        factor = 1.0
    elif sign == state.prev_slope_sign:
        factor = params.acc
    else:
        factor = params.deacc
        delta_d_max = max(params.delta_d_max_floor, delta_d_max * params.deacc)
    delta_d_new = _clamp(delta_d * factor * abs(s), DELTA_D_FLOOR, delta_d_max)
    d_new = _apply_move(state.d, sign, delta_d_new, params)
    new_state = ControllerState(
        d=d_new, delta_d=delta_d_new, delta_d_max=delta_d_max, prev_v=meas.v, prev_i=meas.i,
        prev_slope_sign=sign,
    )
    return StepOutcome(new_state, _action_for(state.d, d_new), s)


CONTROLLER_KINDS = ("conventional", "revised-fixed-bound", "revised-adaptive-bound")


class MpptController:
    """One controller instance: a kind, its params, and the evolving state.

    Deterministic state machine; step it from a single thread.
    """

    def __init__(self, kind: str, params: ControllerParams, initial_duty: float):
        if kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {kind!r}, expected one of {CONTROLLER_KINDS}")
        self.kind = kind
        if kind == "revised-fixed-bound":
            # a floor at the initial bound keeps the bound from shrinking
            params = replace(params, delta_d_max_floor=params.delta_d_max_initial)
        self.params = params
        self.state = initial_state(initial_duty, params)
        self._step = conventional_step if kind == "conventional" else revised_step

    def step(self, meas: Measurement) -> StepOutcome:
        outcome = self._step(self.state, meas, self.params)
        self.state = outcome.new_state
        return outcome
