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

    A controller duty range other than the converter's raises ValueError.
    """
    params = controller.params
    if (params.d_min, params.d_max) != (converter.d_min, converter.d_max):
        raise ValueError(
            f"the controller's duty range [{params.d_min}, {params.d_max}] is not "
            f"the converter's [{converter.d_min}, {converter.d_max}]"
        )
    rng = random.Random(cfg.noise_seed) if (cfg.noise_v > 0 or cfg.noise_i > 0) else None

    records: list[SimRecord] = []
    for t in step_times(cfg, profile):
        env = profile.env_at(t)
        mpp = oracle.find(env)
        d_active = controller.state.d
        v = converter.terminal_voltage(d_active)
        # source convention: a blocking diode stops reverse current
        i = max(0.0, float(array.current_at(v, env)))
        v_meas, i_meas = v, i
        if rng is not None:
            v_meas = max(0.0, v + rng.uniform(-cfg.noise_v, cfg.noise_v))
            i_meas = max(0.0, i + rng.uniform(-cfg.noise_i, cfg.noise_i))
        outcome = controller.step(Measurement(v=v_meas, i=i_meas))
        records.append(
            SimRecord(
                t=t,
                g=env.g,
                temp=env.t,
                v=v,
                i=i,
                p=v * i,
                d=d_active,
                delta_d=outcome.new_state.delta_d,
                delta_d_max=outcome.new_state.delta_d_max,
                p_mpp=mpp.p_mpp,
                v_mpp=mpp.v_mpp,
                p_deviation=mpp.p_mpp - v * i,
                slope_term=outcome.slope_term,
                action=outcome.action,
            )
        )
    return records


@dataclass(frozen=True)
class SegmentMetrics:
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


def _segment_bounds(trace: list[SimRecord]) -> list[tuple[int, int]]:
    bounds = []
    start = 0
    for k in range(1, len(trace)):
        if (trace[k].g, trace[k].temp) != (trace[k - 1].g, trace[k - 1].temp):
            bounds.append((start, k))
            start = k
    bounds.append((start, len(trace)))
    return bounds


def _segment_overshoot(seg: list[SimRecord]) -> float:
    v_mpp = seg[0].v_mpp
    v0 = seg[0].v
    if v0 > v_mpp:  # approached from above: overshoot dips below v_mpp
        return max(0.0, max(v_mpp - r.v for r in seg))
    if v0 < v_mpp:  # approached from below: overshoot rises above v_mpp
        return max(0.0, max(r.v - v_mpp for r in seg))
    return max(abs(r.v - v_mpp) for r in seg)


def _settle_index(rel: list[float], tolerance: float, hold_steps: int) -> int | None:
    """First j with every rel[j:j + hold_steps] below tolerance (nan is not), else None."""
    run = 0
    for k, r in enumerate(rel):
        run = run + 1 if r < tolerance else 0
        if run == hold_steps:
            return k - hold_steps + 1
    return None


def compute_metrics(
    trace: list[SimRecord], *, control_interval: float | None = None
) -> TrackingMetrics:
    """Settling, overshoot, post-settle oscillation, and energy deficit.

    A segment settles at the first instant from which the relative power
    deviation stays below SETTLE_TOLERANCE for SETTLE_HOLD_S continuously.
    oscillation_fraction counts duty changes across all post-settle
    steps.  The energy deficit integrates p_deviation over the whole run
    by the rectangle rule.  control_interval defaults to the spacing of
    the first two records, so a one-record trace must give it.
    """
    if not trace:
        raise ValueError("trace is empty")
    if control_interval is None:
        if len(trace) < 2:
            raise ValueError("a one-record trace needs an explicit control_interval")
        control_interval = trace[1].t - trace[0].t
    dt = control_interval
    hold_steps = max(1, round(SETTLE_HOLD_S / dt))
    rel_all = [0.0 if r.p_mpp <= 0 else abs(r.p_deviation) / r.p_mpp for r in trace]

    segments: list[SegmentMetrics] = []
    post_settle_total = 0
    post_settle_changes = 0
    for a, b in _segment_bounds(trace):
        seg = trace[a:b]
        rel = rel_all[a:b]
        settle_idx = _settle_index(rel, SETTLE_TOLERANCE, hold_steps)
        if settle_idx is not None:
            for j in range(a + max(settle_idx, 1), b):
                post_settle_total += 1
                if trace[j].d != trace[j - 1].d:
                    post_settle_changes += 1
        hold_t = next((r.t for r in seg if r.action == StepAction.HELD_AT_MPP), None)
        segments.append(
            SegmentMetrics(
                t_start=seg[0].t,
                g=seg[0].g,
                n_steps=len(seg),
                assessable=len(seg) >= hold_steps,
                settling_time=None if settle_idx is None else seg[settle_idx].t - seg[0].t,
                max_voltage_overshoot=_segment_overshoot(seg),
                time_to_hold=hold_t,
                end_relative_deviation=rel[-1],
            )
        )

    return TrackingMetrics(
        segments=tuple(segments),
        energy_deficit=sum(r.p_deviation for r in trace) * dt,
        mean_relative_deviation=sum(rel_all) / len(trace),
        oscillation_fraction=(
            post_settle_changes / post_settle_total if post_settle_total else 0.0
        ),
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
