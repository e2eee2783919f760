"""Harness tests: loop semantics, metrics arithmetic, trace format."""

from __future__ import annotations

import csv
import io
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpptbench import harness
from mpptbench.controllers import ControllerParams, MpptController, StepAction
from mpptbench.converter import BuckBoost
from mpptbench.harness import (
    TRACE_HEADER,
    SegmentMetrics,
    SimConfig,
    SimRecord,
    TrackingMetrics,
    compute_metrics,
    resolve_initial_duty,
    run_simulation,
    step_times,
    write_trace_csv,
)
from mpptbench.oracle import MppOracle
from mpptbench.profiles import EnvProfile, EnvSegment, builtin_table1_profile, load_profile_csv
from mpptbench.pvmodel import EnvCondition, PVArray


def constant_profile(g=1000.0, t=298.0, duration=2.0) -> EnvProfile:
    return EnvProfile(
        segments=(EnvSegment(0.0, EnvCondition(g=g, t=t)),), duration=duration
    )


def make_record(t, dev=0.0, p_mpp=150.0, d=0.5, g=1000.0, v=34.5, v_mpp=34.5,
                action=StepAction.HELD_AT_MPP):
    return SimRecord(
        t=t, g=g, temp=298.0, v=v, i=(p_mpp - dev) / v, p=p_mpp - dev, d=d,
        delta_d=0.001, delta_d_max=0.01, p_mpp=p_mpp, v_mpp=v_mpp,
        p_deviation=dev, slope_term=0.0, action=action,
    )


class TestRunSimulation:
    def test_single_step_run(self, bp_panel, bp_converter, bp_oracle):
        cfg = SimConfig(control_interval_s=0.01, duration_s=0.01, initial_duty=0.5)
        controller = MpptController("revised-adaptive-bound", ControllerParams(), 0.5)
        trace = run_simulation(
            bp_panel, bp_converter, controller, constant_profile(), cfg, bp_oracle
        )
        assert len(trace) == 1
        assert trace[0].t == 0.0

    def test_a_controller_duty_range_other_than_the_converters_is_rejected(
        self, bp_panel, bp_converter, bp_oracle
    ):
        """With d_max 0.53 on the converter only, the controller would record unapplied duties."""
        converter = BuckBoost(v_bus=bp_converter.v_bus, d_max=0.53)
        controller = MpptController("revised-adaptive-bound", ControllerParams(), 0.52)
        with pytest.raises(ValueError) as err:
            run_simulation(
                bp_panel, converter, controller, builtin_table1_profile(), SimConfig(), bp_oracle
            )
        assert str(err.value) == (
            "the controller's duty range [0.05, 0.95] is not the converter's [0.05, 0.53]"
        )
        assert controller.state.d == 0.52  # raised before the first step

    def test_records_are_taken_at_the_step_times(self, bp_panel, bp_converter, bp_oracle):
        cfg = SimConfig(control_interval_s=0.03, duration_s=1.0, initial_duty=0.5)
        controller = MpptController("conventional", ControllerParams(), 0.5)
        trace = run_simulation(
            bp_panel, bp_converter, controller, constant_profile(), cfg, bp_oracle
        )
        times = step_times(cfg, constant_profile())
        assert [r.t for r in trace] == times
        assert len(times) == 33 and times[1] == 0.03

    def test_preplaced_at_mpp_freezes_after_initial_settle(
        self, bp_panel, bp_converter, bp_oracle, stc
    ):
        d_mpp = bp_converter.duty_for_voltage(bp_oracle.find(stc).v_mpp)
        controller = MpptController("revised-adaptive-bound", ControllerParams(), d_mpp)
        cfg = SimConfig(duration_s=1.0, initial_duty=d_mpp)
        trace = run_simulation(
            bp_panel, bp_converter, controller, constant_profile(), cfg, bp_oracle
        )
        tail = [r for r in trace if r.t >= 0.15]
        assert tail and all(r.action == StepAction.HELD_AT_MPP for r in tail)
        # the seed perturbation settles back to a frozen duty near the start
        assert abs(tail[-1].d - d_mpp) < 5e-3
        assert abs(tail[-1].p_deviation) / tail[-1].p_mpp < 1e-3

    def test_duty_in_record_produced_the_operating_point(
        self, bp_panel, bp_converter, bp_oracle
    ):
        controller = MpptController("conventional", ControllerParams(), 0.45)
        cfg = SimConfig(duration_s=0.2, initial_duty=0.45)
        trace = run_simulation(
            bp_panel, bp_converter, controller, constant_profile(), cfg, bp_oracle
        )
        for rec in trace:
            assert rec.v == bp_converter.terminal_voltage(rec.d)

    def test_causality_duty_changes_lag_measurements(
        self, bp_panel, bp_converter, bp_oracle
    ):
        controller = MpptController("conventional", ControllerParams(), 0.45)
        cfg = SimConfig(duration_s=0.1, initial_duty=0.45)
        trace = run_simulation(
            bp_panel, bp_converter, controller, constant_profile(), cfg, bp_oracle
        )
        assert trace[0].d == 0.45  # first row runs on the initial duty

    def test_power_never_beats_oracle(self, bp_panel, bp_converter, bp_oracle):
        controller = MpptController("revised-adaptive-bound", ControllerParams(), 0.55)
        trace = run_simulation(
            bp_panel, bp_converter, controller, builtin_table1_profile(),
            SimConfig(), bp_oracle,
        )
        for rec in trace:
            assert rec.p <= rec.p_mpp + 1e-6

    def test_deterministic_traces(self, bp_panel, bp_converter, bp_oracle, tmp_path):
        outputs = []
        for run in range(2):
            controller = MpptController(
                "revised-adaptive-bound", ControllerParams(), 0.55
            )
            trace = run_simulation(
                bp_panel, bp_converter, controller, builtin_table1_profile(),
                SimConfig(duration_s=1.0, initial_duty=0.55), bp_oracle,
            )
            path = tmp_path / f"trace{run}.csv"
            write_trace_csv(trace, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_measurement_noise_is_seeded(self, bp_panel, bp_converter, bp_oracle):
        def run_once():
            controller = MpptController("conventional", ControllerParams(), 0.5)
            cfg = SimConfig(duration_s=0.3, initial_duty=0.5, noise_v=0.05, noise_i=0.01,
                            noise_seed=3)
            return run_simulation(
                bp_panel, bp_converter, controller, constant_profile(), cfg, bp_oracle
            )

        assert run_once() == run_once()

    def test_every_per_step_call_goes_through_the_instances(self, bp_cell, bp_panel, bp_converter):
        """Subclass overrides, as a tracer uses them, see each of the loop's calls."""
        calls = Counter()

        class CountingArray(PVArray):
            def current_at(self, v_array, env):
                calls["current_at"] += 1
                return super().current_at(v_array, env)

        class CountingController(MpptController):
            def step(self, meas):
                calls["step"] += 1
                return super().step(meas)

        class CountingProfile(EnvProfile):
            def env_at(self, t):
                calls["env_at"] += 1
                return super().env_at(t)

        class CountingOracle(MppOracle):
            def find(self, env):
                calls["find"] += 1
                return super().find(env)

        class CountingConverter(BuckBoost):
            def terminal_voltage(self, d):
                calls["terminal_voltage"] += 1
                return super().terminal_voltage(d)

        table1 = builtin_table1_profile()
        trace = run_simulation(
            CountingArray(bp_cell, bp_panel.layout),
            CountingConverter(v_bus=bp_converter.v_bus),
            CountingController("revised-adaptive-bound", ControllerParams(), 0.55),
            CountingProfile(table1.segments, table1.duration),
            SimConfig(initial_duty=0.55),
            CountingOracle(bp_panel),  # its sweeps solve on bp_panel, not the counted array
        )
        assert len(trace) == 500
        assert calls == {
            name: 500 for name in ("current_at", "step", "env_at", "find", "terminal_voltage")
        }

    def test_a_reverse_or_negative_zero_current_is_recorded_as_positive_zero(
        self, bp_converter, bp_oracle, tmp_path
    ):
        class StubArray:
            currents = iter([-0.0, -1.5])

            def current_at(self, v_array, env):
                return next(self.currents)

        controller = MpptController("conventional", ControllerParams(), 0.5)
        cfg = SimConfig(duration_s=0.02, initial_duty=0.5)
        trace = run_simulation(
            StubArray(), bp_converter, controller, constant_profile(), cfg, bp_oracle
        )
        for rec in trace:
            assert math.copysign(1.0, rec.i) == 1.0 and math.copysign(1.0, rec.p) == 1.0
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert [(r["i_a"], r["p_w"]) for r in rows] == [("0.0", "0.0")] * 2

    def test_auto_initial_duty_starts_below_mpp_voltage(
        self, bp_panel, bp_converter, bp_oracle, stc
    ):
        cfg = SimConfig(initial_duty="auto", initial_voltage_fraction=0.9)
        d0 = resolve_initial_duty(cfg, bp_converter, bp_oracle, stc)
        v0 = bp_converter.terminal_voltage(d0)
        assert v0 == pytest.approx(0.9 * bp_oracle.find(stc).v_mpp, rel=1e-9)


class TestMetrics:
    def test_constant_deviation_integrates_to_energy(self):
        trace = [make_record(k * 0.01, dev=10.0) for k in range(100)]
        metrics = compute_metrics(trace)
        assert metrics.energy_deficit == pytest.approx(10.0, rel=1e-9)

    def test_exact_hold_settles_immediately(self):
        trace = [make_record(k * 0.01, dev=0.0) for k in range(50)]
        metrics = compute_metrics(trace)
        assert metrics.segments[0].settling_time == 0.0
        assert metrics.oscillation_fraction == 0.0

    def test_short_segment_not_assessable(self):
        trace = [make_record(k * 0.01, dev=0.0, g=1000.0) for k in range(5)]
        trace += [make_record(0.05 + k * 0.01, dev=0.0, g=500.0) for k in range(3)]
        metrics = compute_metrics(trace)
        assert all(not seg.assessable for seg in metrics.segments)
        assert all(seg.settling_time is None for seg in metrics.segments)

    def test_never_settling_segment(self):
        trace = [make_record(k * 0.01, dev=50.0) for k in range(50)]
        metrics = compute_metrics(trace)
        assert metrics.segments[0].assessable
        assert metrics.segments[0].settling_time is None

    def test_oscillation_counts_post_settle_duty_changes(self):
        # settled from the start; duty toggles every step
        trace = [
            make_record(k * 0.01, dev=0.0, d=0.5 + 0.001 * (k % 2),
                        action=StepAction.MOVED_LEFT)
            for k in range(100)
        ]
        metrics = compute_metrics(trace)
        assert metrics.oscillation_fraction == 1.0

    def test_overshoot_is_directional(self):
        # approach from above (v0 > v_mpp): only dips below v_mpp count
        trace = [make_record(0.0, v=40.0, v_mpp=34.5)]
        trace += [make_record(0.01, v=33.0, v_mpp=34.5)]
        trace += [make_record(0.02, v=34.4, v_mpp=34.5)]
        metrics = compute_metrics(trace)
        assert metrics.segments[0].max_voltage_overshoot == pytest.approx(1.5)

    def test_overshoot_from_below(self):
        trace = [make_record(0.0, v=30.0, v_mpp=34.5)]
        trace += [make_record(0.01, v=36.0, v_mpp=34.5)]
        metrics = compute_metrics(trace)
        assert metrics.segments[0].max_voltage_overshoot == pytest.approx(1.5)

    def test_segmentation_follows_env_changes(self):
        trace = [make_record(k * 0.01, g=1000.0) for k in range(10)]
        trace += [make_record(0.1 + k * 0.01, g=200.0) for k in range(10)]
        metrics = compute_metrics(trace)
        assert len(metrics.segments) == 2
        assert metrics.segments[1].t_start == pytest.approx(0.1)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_one_step_run_integrates_over_its_control_interval(
        self, bp_panel, bp_converter, bp_oracle
    ):
        cfg = SimConfig(control_interval_s=0.1, duration_s=0.1, initial_duty=0.55)
        controller = MpptController("revised-adaptive-bound", ControllerParams(), 0.55)
        trace = run_simulation(
            bp_panel, bp_converter, controller, constant_profile(), cfg, bp_oracle
        )
        assert len(trace) == 1 and trace[0].p_deviation > 0
        metrics = compute_metrics(trace, control_interval=cfg.control_interval_s)
        assert metrics.energy_deficit == trace[0].p_deviation * 0.1

    def test_one_record_trace_without_interval_is_rejected(self):
        with pytest.raises(ValueError, match="control_interval"):
            compute_metrics([make_record(0.0, dev=1.0)])

    def test_interval_defaults_to_the_record_spacing(self):
        trace = [make_record(k * 0.1, dev=10.0) for k in range(3)]
        assert compute_metrics(trace) == compute_metrics(trace, control_interval=0.1)

    def test_an_unevenly_spaced_trace_gives_no_interval(self):
        times = [0.0] + [0.01 + 0.02 * k for k in range(20)]
        trace = [make_record(t, dev=10.0) for t in times]
        with pytest.raises(ValueError, match=r"not evenly spaced: record 2 is at t = 0\.03$"):
            compute_metrics(trace)
        assert compute_metrics(trace, control_interval=0.02).energy_deficit == pytest.approx(4.2)

    def test_accumulated_and_offset_times_are_evenly_spaced(self):
        summed = [0.0]
        for _ in range(5999):
            summed.append(summed[-1] + 0.01)
        for times in (summed, [1000.0 + k * 0.01 for k in range(6000)]):
            trace = [make_record(t, dev=10.0) for t in times]
            assert compute_metrics(trace).energy_deficit == pytest.approx(600.0, rel=1e-9)

    @pytest.mark.parametrize("interval", [0.0, -0.01], ids=["zero", "negative"])
    def test_an_interval_not_above_zero_is_rejected(self, interval):
        trace = [make_record(k * 0.01, dev=10.0) for k in range(20)]
        with pytest.raises(ValueError, match=rf"control_interval must be > 0, got {interval}$"):
            compute_metrics(trace, control_interval=interval)

    def test_times_that_run_backwards_give_no_interval(self):
        trace = [make_record(0.19 - k * 0.01, dev=10.0) for k in range(20)]
        with pytest.raises(ValueError, match=r"control_interval must be > 0, got -0\.01"):
            compute_metrics(trace)


def settle_index_by_windows(rel, tolerance, hold_steps):
    """The settling definition: the first window of hold_steps values all below tolerance."""
    for j in range(len(rel) - hold_steps + 1):
        if all(r < tolerance for r in rel[j : j + hold_steps]):
            return j
    return None


@given(
    rel=st.lists(
        st.sampled_from([0.0, 0.004, 0.00999, 0.01, 0.0101, 0.5, math.nan, math.inf]),
        max_size=60,
    ),
    hold_steps=st.integers(min_value=1, max_value=12),
)
@example(rel=[0.0] * 4, hold_steps=5)  # a run shorter than hold_steps
@example(rel=[0.0, 0.0, math.nan, 0.0, 0.0, 0.0], hold_steps=3)  # nan breaks a run
@example(rel=[], hold_steps=1)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_settle_scan_matches_the_window_definition(rel, hold_steps):
    """compute_metrics settles a one-segment trace where the first window does."""
    # p_mpp 1 makes each record's relative deviation rel; t = k makes settling_time the index
    trace = [make_record(float(k), dev=r, p_mpp=1.0) for k, r in enumerate(rel)]
    control_interval = harness.SETTLE_HOLD_S / hold_steps
    if not trace:
        with pytest.raises(ValueError, match="empty"):
            compute_metrics(trace, control_interval=control_interval)
        return
    [segment] = compute_metrics(trace, control_interval=control_interval).segments
    expected = settle_index_by_windows(rel, harness.SETTLE_TOLERANCE, hold_steps)
    assert segment.settling_time == (None if expected is None else float(expected))


def metrics_by_segment(trace, dt):
    """compute_metrics' definitions applied segment by segment, on slices of the trace."""
    hold_steps = max(1, round(harness.SETTLE_HOLD_S / dt))
    rel_all = [0.0 if r.p_mpp <= 0 else abs(r.p_deviation) / r.p_mpp for r in trace]
    starts = [k for k in range(len(trace)) if k == 0 or trace[k][1:3] != trace[k - 1][1:3]]
    segments = []
    post_settle = []  # (duty, previous duty) of every post-settle step
    for a, b in zip(starts, starts[1:] + [len(trace)]):
        seg, rel = trace[a:b], rel_all[a:b]
        settle = settle_index_by_windows(rel, harness.SETTLE_TOLERANCE, hold_steps)
        if settle is not None:
            post_settle += [(trace[j].d, trace[j - 1].d) for j in range(a + max(settle, 1), b)]
        v0, v_mpp = seg[0].v, seg[0].v_mpp
        if v0 > v_mpp:
            overshoot = max(0.0, max(v_mpp - r.v for r in seg))
        elif v0 < v_mpp:
            overshoot = max(0.0, max(r.v - v_mpp for r in seg))
        else:
            overshoot = max(abs(r.v - v_mpp) for r in seg)
        holds = [r.t for r in seg if r.action == StepAction.HELD_AT_MPP]
        segments.append(
            SegmentMetrics(
                t_start=seg[0].t,
                g=seg[0].g,
                n_steps=len(seg),
                assessable=len(seg) >= hold_steps,
                settling_time=None if settle is None else seg[settle].t - seg[0].t,
                max_voltage_overshoot=overshoot,
                time_to_hold=holds[0] if holds else None,
                end_relative_deviation=rel[-1],
            )
        )
    changes = sum(d != d_prev for d, d_prev in post_settle)
    return TrackingMetrics(
        segments=tuple(segments),
        energy_deficit=sum(r.p_deviation for r in trace) * dt,
        mean_relative_deviation=sum(rel_all) / len(trace),
        oscillation_fraction=changes / len(post_settle) if post_settle else 0.0,
        max_voltage_overshoot=max(s.max_voltage_overshoot for s in segments),
    )


@st.composite
def traces(draw):
    """Runs of one (g, temp) with drawn deviations, voltages, duties and actions."""
    records = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        g = draw(st.sampled_from([0.0, 200.0, 1000.0]))
        temp = draw(st.sampled_from([298.0, 310.0]))
        p_mpp = 0.0 if g == 0.0 else g * 0.15
        v_mpp = draw(st.sampled_from([0.0, 33.5, 34.5]))
        for _ in range(draw(st.integers(min_value=1, max_value=25))):
            records.append(
                SimRecord(
                    t=len(records) * 0.01, g=g, temp=temp,
                    v=draw(st.sampled_from([v_mpp, 30.0, 33.5, 34.0, 34.5, 36.0])),
                    i=1.0, p=1.0,
                    d=draw(st.sampled_from([0.49, 0.5, 0.51])),
                    delta_d=0.001, delta_d_max=0.01, p_mpp=p_mpp, v_mpp=v_mpp,
                    p_deviation=p_mpp * draw(st.sampled_from([0.0, 0.005, 0.00999, 0.01, 0.3])),
                    slope_term=0.0,
                    action=draw(st.sampled_from(
                        [StepAction.MOVED_LEFT, StepAction.MOVED_RIGHT, StepAction.HELD_AT_MPP]
                    )),
                )
            )
    return records


@given(trace=traces(), dt=st.sampled_from([0.01, 0.02, 0.05, 0.1]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_metrics_match_the_per_segment_definitions(trace, dt):
    assert compute_metrics(trace, control_interval=dt) == metrics_by_segment(trace, dt)


@pytest.mark.parametrize("kind", ["conventional", "revised-fixed-bound", "revised-adaptive-bound"])
def test_a_cloud_of_two_step_segments_matches_the_per_segment_definitions(
    kind, bp_panel, bp_converter, bp_oracle, tmp_path
):
    """2 s of a new irradiance every 20 ms: 100 segments, none long enough to settle."""
    levels = [500 + 25 * ((7 * k) % 13 - 6) for k in range(100)]  # no two neighbours equal
    path = tmp_path / "cloud.csv"
    path.write_text(
        "time_s,irradiance_w_m2,temperature_c\n"
        + "".join(f"{k * 0.02:.2f},{g},25\n" for k, g in enumerate(levels))
    )
    cfg = SimConfig(duration_s=2.0, initial_duty=0.5)
    controller = MpptController(kind, ControllerParams(), 0.5)
    trace = run_simulation(
        bp_panel, bp_converter, controller, load_profile_csv(path), cfg, bp_oracle
    )
    metrics = compute_metrics(trace)
    assert [s.n_steps for s in metrics.segments] == [2] * 100
    assert not any(s.assessable for s in metrics.segments)
    assert metrics == metrics_by_segment(trace, cfg.control_interval_s)


class TestTraceCsv:
    def test_header_is_pinned(self):
        assert TRACE_HEADER == (
            "t_s", "g_w_m2", "temp_k", "v_v", "i_a", "p_w", "d", "delta_d",
            "delta_d_max", "p_mpp_w", "v_mpp_v", "p_deviation_w", "slope_term",
            "action",
        )

    def test_round_trip_precision(self, tmp_path):
        trace = [make_record(0.0, dev=1.0 / 3.0)]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        fields = lines[1].split(",")
        assert float(fields[11]) == 1.0 / 3.0  # full precision survives
        assert fields[13] == StepAction.HELD_AT_MPP

    def test_bytes_match_csv_writer(self, tmp_path):
        float_fields = [name for name in SimRecord._fields if name != "action"]

        def csv_writer_reference(trace, path):
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(TRACE_HEADER)
                for r in trace:
                    writer.writerow([repr(getattr(r, name)) for name in float_fields] + [r.action])

        odd = [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16, -3.5e-7, -123.456, 1.0 / 3.0]
        trace = [
            SimRecord(
                **{name: odd[(k + n) % len(odd)] for n, name in enumerate(float_fields)},
                action=action,
            )
            for k in range(len(odd))
            for action in (StepAction.MOVED_LEFT, StepAction.MOVED_RIGHT, StepAction.HELD_AT_MPP)
        ]
        fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
        write_trace_csv(trace, fast)
        csv_writer_reference(trace, reference)
        assert fast.read_bytes() == reference.read_bytes()
        text = fast.read_text()
        for token in ("nan", "-inf", "-0.0", "1e-05", "1e+16", "-123.456", "held_at_mpp"):
            assert token in text
        # a P-V curve row is a plain float tuple, written by the same formatter
        header, row = ("voltage_v", "current_a", "power_w"), (math.inf, -0.0, 1e-05)
        expected = io.StringIO()
        csv.writer(expected).writerows([header, [repr(x) for x in row]])
        assert harness.format_csv(header, [row]) == expected.getvalue()
        with pytest.raises(TypeError):
            harness.format_csv(header, [row[:2]])

    def test_nan_slope_serializes(self, tmp_path):
        rec = make_record(0.0)
        rec = rec._replace(slope_term=math.nan)
        path = tmp_path / "trace.csv"
        write_trace_csv([rec], path)
        assert "nan" in path.read_text()


class TestSimConfigValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SimConfig(control_interval_s=0.0)
        with pytest.raises(ValueError):
            SimConfig(duration_s=0.001, control_interval_s=0.01)
        with pytest.raises(ValueError):
            SimConfig(initial_duty="half")
        with pytest.raises(ValueError):
            SimConfig(initial_duty=1.2)
        with pytest.raises(ValueError):
            SimConfig(noise_v=-0.1)


class TestControllerContrast:
    def test_oscillation_fraction_separates_controllers(
        self, bp_panel, bp_converter, bp_oracle
    ):
        results = {}
        for kind in ("conventional", "revised-fixed-bound", "revised-adaptive-bound"):
            d0 = bp_converter.duty_for_voltage(0.9 * bp_oracle.find(
                constant_profile().env_at(0.0)).v_mpp)
            controller = MpptController(kind, ControllerParams(), d0)
            trace = run_simulation(
                bp_panel, bp_converter, controller, constant_profile(duration=2.0),
                SimConfig(), bp_oracle,
            )
            results[kind] = compute_metrics(trace)
        assert results["conventional"].oscillation_fraction > 0.9
        assert results["revised-fixed-bound"].oscillation_fraction < 0.2
        assert results["revised-adaptive-bound"].oscillation_fraction < 0.2


class TestSimulationFailure:
    def test_solver_failure_propagates_as_a_value_error(
        self, bp_cell, bp_converter, bp_oracle, monkeypatch
    ):
        from mpptbench import pvmodel
        from mpptbench.pvmodel import ArrayConfig, PVArray

        # one Newton step cannot meet the tolerance, so the first solve fails
        array = PVArray(cell=bp_cell, layout=ArrayConfig(n_series=72))
        monkeypatch.setattr(pvmodel, "SOLVER_MAX_ITER", 1)
        controller = MpptController("conventional", ControllerParams(), 0.5)
        with pytest.raises(ValueError, match=r"^Newton did not converge \(iterations=1, "):
            run_simulation(
                array, bp_converter, controller, constant_profile(),
                SimConfig(duration_s=0.1, initial_duty=0.5), bp_oracle,
            )

    def test_profile_without_an_end_needs_duration_s(
        self, bp_panel, bp_converter, bp_oracle, tmp_path
    ):
        path = tmp_path / "two.csv"
        path.write_text("time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n0.5,400,25\n")
        controller = MpptController("conventional", ControllerParams(), 0.5)
        with pytest.raises(ValueError, match="duration_s"):
            run_simulation(
                bp_panel, bp_converter, controller, load_profile_csv(path), SimConfig(),
                bp_oracle,
            )
