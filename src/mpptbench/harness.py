"""Closed-loop simulation driver and tracking metrics.

Each control instant: resolve the environment from the profile, map the
active duty to a terminal voltage through the converter, solve the array
current at that voltage, feed the measurement to the controller, and
apply the updated duty over the next interval.  One record is emitted
per instant; the duty in a record is the one that produced the recorded
operating point, while step size, bound, slope and action describe the
controller's response at that instant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .controllers import Measurement, MpptController, StepAction
from .converter import BuckBoost
from .oracle import MppOracle
from .pvmodel import EnvCondition, PVArray
from .profiles import EnvProfile

# A segment settles once the relative power deviation stays below
# SETTLE_TOLERANCE for SETTLE_HOLD_S without a break.
SETTLE_TOLERANCE = 0.01
SETTLE_HOLD_S = 0.1

__all__ = [
    "SETTLE_TOLERANCE",
    "SETTLE_HOLD_S",
    "SimConfig",
    "SimRecord",
    "SegmentMetrics",
    "TrackingMetrics",
    "step_times",
    "run_simulation",
    "compute_metrics",
    "TRACE_HEADER",
    "format_csv",
    "write_trace_csv",
    "format_metrics",
]


@dataclass(frozen=True)
class SimConfig:
    """Control cadence, run length, and initialization.

    duration_s None falls back to the profile's duration, which a CSV
    profile does not have.  initial_duty "auto" starts the run at
    initial_voltage_fraction of the first segment's MPP voltage, which
    forces a visible tracking transient.  Optional uniform measurement
    noise is driven by a seeded generator.
    """

    control_interval_s: float = 0.010
    duration_s: float | None = None
    initial_duty: float | str = "auto"
    initial_voltage_fraction: float = 0.9
    noise_v: float = 0.0
    noise_i: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if not self.control_interval_s > 0:  # written so that NaN fails
            raise ValueError("control_interval_s must be > 0")
        if self.duration_s is not None and not self.duration_s >= self.control_interval_s:
            raise ValueError("duration_s must be >= control_interval_s")
        duty = self.initial_duty
        if duty != "auto" and (isinstance(duty, str) or not 0.0 < duty < 1.0):
            raise ValueError('initial_duty must be a number in (0, 1) or "auto"')
        if not (0.0 < self.initial_voltage_fraction <= 1.5):
            raise ValueError("initial_voltage_fraction must be in (0, 1.5]")
        if not self.noise_v >= 0:
            raise ValueError("noise_v must be >= 0")
        if not self.noise_i >= 0:
            raise ValueError("noise_i must be >= 0")


class SimRecord(NamedTuple):
    t: float
    g: float
    temp: float
    v: float
    i: float
    p: float
    d: float
    delta_d: float
    delta_d_max: float
    p_mpp: float
    v_mpp: float
    p_deviation: float
    slope_term: float
    action: str


def resolve_initial_duty(
    cfg: SimConfig, converter: BuckBoost, oracle: MppOracle, env0: EnvCondition
) -> float:
    if cfg.initial_duty != "auto":
        return float(cfg.initial_duty)
    mpp = oracle.find(env0)
    if mpp.v_mpp <= 0:
        return converter.clamp_duty(0.5)
    return converter.duty_for_voltage(cfg.initial_voltage_fraction * mpp.v_mpp)


def step_times(cfg: SimConfig, profile: EnvProfile) -> list[float]:
    """The run's control instants: k * control_interval_s from 0 until the duration."""
    dt = cfg.control_interval_s
    duration = cfg.duration_s if cfg.duration_s is not None else profile.duration
    if duration is None:
        raise ValueError("duration_s is required: the profile has no end of its own")
    return [k * dt for k in range(max(1, round(duration / dt)))]


def run_simulation(
    array: PVArray,
    converter: BuckBoost,
    controller: MpptController,
    profile: EnvProfile,
    cfg: SimConfig,
    oracle: MppOracle,
) -> list[SimRecord]:
    """Drive the loop at the step_times instants; fully deterministic.

    Each per-step method (profile.env_at, oracle.find,
    converter.terminal_voltage, array.current_at, controller.step) is
    looked up once per run, from the instance, so a subclass override
    still sees every call.  A controller duty range other than the
    converter's raises ValueError.
    """
    params = controller.params
    if (params.d_min, params.d_max) != (converter.d_min, converter.d_max):
        raise ValueError(
            f"the controller's duty range [{params.d_min}, {params.d_max}] is not "
            f"the converter's [{converter.d_min}, {converter.d_max}]"
        )
    rng = random.Random(cfg.noise_seed) if (cfg.noise_v > 0 or cfg.noise_i > 0) else None
    env_at = profile.env_at
    find = oracle.find
    terminal_voltage = converter.terminal_voltage
    current_at = array.current_at
    step = controller.step

    records: list[SimRecord] = []
    for t in step_times(cfg, profile):
        env = env_at(t)
        mpp = find(env)
        d_active = controller.state.d
        v = terminal_voltage(d_active)
        # source convention: a blocking diode stops reverse current (max keeps +0.0 over -0.0)
        i = max(0.0, current_at(v, env))
        v_meas, i_meas = v, i
        if rng is not None:
            v_meas = max(0.0, v + rng.uniform(-cfg.noise_v, cfg.noise_v))
            i_meas = max(0.0, i + rng.uniform(-cfg.noise_i, cfg.noise_i))
        new_state, action, slope = step(Measurement(v_meas, i_meas))
        p = v * i
        p_mpp = mpp.p_mpp
        records.append(
            SimRecord(
                t, env.g, env.t, v, i, p, d_active, new_state.delta_d, new_state.delta_d_max,
                p_mpp, mpp.v_mpp, p_mpp - p, slope, action,
            )
        )
    return records


class SegmentMetrics(NamedTuple):
    """Per-segment tracking figures.

    settling_time is None when the segment never settles or is too short
    to assess (see assessable).  max_voltage_overshoot is the excursion
    past the segment's MPP voltage beyond the side the segment entered
    from; it isolates genuine overshoot from the initial tracking gap.
    time_to_hold is when the controller first froze the duty, if it did.
    """

    t_start: float
    g: float
    n_steps: int
    assessable: bool
    settling_time: float | None
    max_voltage_overshoot: float
    time_to_hold: float | None
    end_relative_deviation: float


@dataclass(frozen=True)
class TrackingMetrics:
    segments: tuple[SegmentMetrics, ...]
    energy_deficit: float
    mean_relative_deviation: float
    oscillation_fraction: float
    max_voltage_overshoot: float


def compute_metrics(
    trace: list[SimRecord], *, control_interval: float | None = None
) -> TrackingMetrics:
    """Settling, overshoot, post-settle oscillation, and energy deficit.

    A segment is a run of records with one (g, temp).  It settles at the
    first instant from which the relative power deviation |p_deviation| /
    p_mpp (0 where p_mpp <= 0) stays below SETTLE_TOLERANCE (nan is not
    below it) for SETTLE_HOLD_S continuously.  oscillation_fraction
    counts duty changes across all post-settle steps, a segment's first
    step excluded.  The energy deficit integrates p_deviation over the
    whole run by the rectangle rule.  control_interval defaults to the
    spacing dt of the first two records, so a one-record trace must give
    it, and record k must then lie within 1e-9 * (k + 1) * dt of
    t_0 + k * dt; given or guessed, one that is not > 0 raises ValueError.
    """
    if not trace:
        raise ValueError("trace is empty")
    if control_interval is None and len(trace) < 2:
        raise ValueError("a one-record trace needs an explicit control_interval")
    dt = trace[1].t - trace[0].t if control_interval is None else control_interval
    if not dt > 0:  # written so that NaN fails
        raise ValueError(f"control_interval must be > 0, got {dt!r}")
    for k, r in enumerate(trace if control_interval is None else ()):
        if not abs(r.t - trace[0].t - k * dt) <= 1e-9 * (k + 1) * dt:  # NaN fails too
            raise ValueError(f"the trace is not evenly spaced: record {k} is at t = {r.t!r}")
    hold_steps = max(1, round(SETTLE_HOLD_S / dt))
    n = len(trace)
    rel_all = [0.0 if r.p_mpp <= 0 else abs(r.p_deviation) / r.p_mpp for r in trace]
    starts = [0] + [
        k for k in range(1, n)
        if trace[k].g != trace[k - 1].g or trace[k].temp != trace[k - 1].temp
    ]
    segments: list[SegmentMetrics] = []
    post_settle_total = post_settle_changes = 0
    for a, b in zip(starts, starts[1:] + [n]):
        seg = trace[a:b]
        t0, v0, v_mpp = seg[0].t, seg[0].v, seg[0].v_mpp
        volts = [r.v for r in seg]
        # rounding is monotone, so the widest excursion is at the lowest or highest voltage
        if v0 > v_mpp:  # approached from above: overshoot dips below v_mpp
            overshoot = max(0.0, v_mpp - min(volts))
        elif v0 < v_mpp:  # approached from below: overshoot rises above v_mpp
            overshoot = max(0.0, max(volts) - v_mpp)
        else:
            overshoot = max(max(volts) - v_mpp, v_mpp - min(volts))
        settle = None
        if b - a >= hold_steps:  # a shorter segment cannot settle
            run = 0  # length of the run below tolerance
            for k in range(a, b):
                run = run + 1 if rel_all[k] < SETTLE_TOLERANCE else 0
                if run == hold_steps:
                    settle = k - hold_steps + 1
                    break
        if settle is not None:
            steps = range(max(settle, a + 1), b)  # a segment's first step changes no duty
            post_settle_total += len(steps)
            post_settle_changes += sum([trace[k].d != trace[k - 1].d for k in steps])
        segments.append(
            SegmentMetrics(
                t0, seg[0].g, b - a, b - a >= hold_steps,
                None if settle is None else trace[settle].t - t0,
                overshoot, next((r.t for r in seg if r.action == StepAction.HELD_AT_MPP), None),
                rel_all[b - 1],
            )
        )
    return TrackingMetrics(
        segments=tuple(segments),
        energy_deficit=sum([r.p_deviation for r in trace]) * dt,
        mean_relative_deviation=sum(rel_all) / n,
        oscillation_fraction=post_settle_changes / post_settle_total if post_settle_total else 0.0,
        max_voltage_overshoot=max(s.max_voltage_overshoot for s in segments),
    )


TRACE_HEADER = (
    "t_s", "g_w_m2", "temp_k", "v_v", "i_a", "p_w", "d", "delta_d", "delta_d_max",
    "p_mpp_w", "v_mpp_v", "p_deviation_w", "slope_term", "action",
)


def format_csv(header: tuple[str, ...], rows: Iterable[tuple]) -> str:
    """header and rows as CSV text, each field of a row tuple written as its str.

    The text is that of csv.writer's default dialect, made without it:
    rows end in CRLF, that dialect's line terminator, and no field needs
    quoting.  The str of a float is its full-precision repr (nan, inf,
    -0.0, 1e-05), so identical runs give identical bytes, and neither it
    nor an action name holds a comma, quote or newline.  A row of the
    wrong length raises TypeError.
    """
    line = ",".join(["%s"] * len(header)) + "\r\n"
    return "".join([line % row for row in (header, *rows)])


def write_trace_csv(trace: list[SimRecord], path: str | Path) -> None:
    """Write the trace, a SimRecord row per instant, as format_csv's text to path."""
    Path(path).write_text(format_csv(TRACE_HEADER, trace), newline="")


def _fmt_settling(seg: SegmentMetrics) -> str:
    if not seg.assessable:
        return "not_assessable"
    if seg.settling_time is None:
        return "not_settled"
    return f"{seg.settling_time:.6g}"


def format_metrics(metrics: TrackingMetrics) -> str:
    lines = [
        f"energy_deficit_j: {metrics.energy_deficit:.6g}",
        f"mean_relative_deviation: {metrics.mean_relative_deviation:.6g}",
        f"oscillation_fraction: {metrics.oscillation_fraction:.6g}",
        f"max_voltage_overshoot_v: {metrics.max_voltage_overshoot:.6g}",
    ]
    for k, seg in enumerate(metrics.segments):
        prefix = f"segment[{k}]"
        lines.append(f"{prefix}.t_start_s: {seg.t_start:.6g}")
        lines.append(f"{prefix}.g_w_m2: {seg.g:.6g}")
        lines.append(f"{prefix}.settling_time_s: {_fmt_settling(seg)}")
        lines.append(f"{prefix}.max_voltage_overshoot_v: {seg.max_voltage_overshoot:.6g}")
        lines.append(
            f"{prefix}.time_to_hold_s: "
            + ("never" if seg.time_to_hold is None else f"{seg.time_to_hold:.6g}")
        )
        lines.append(f"{prefix}.end_relative_deviation: {seg.end_relative_deviation:.6g}")
    return "\n".join(lines) + "\n"
