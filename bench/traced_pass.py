"""One traced `compare` pass in a fresh interpreter.

Usage: python traced_pass.py CONFIG OUT_DIR SPANS_JSON

The pass is rebuilt from the public API in the order `mpptbench compare`
runs it for each controller kind (load_scenario, build_array, MppOracle,
build_converter, resolve_initial_duty, build_controller, run_simulation,
compute_metrics, write_trace_csv), but hands the loop thin subclasses of
PVArray, MppOracle, EnvProfile, BuckBoost and MpptController that record
a span around each call into their layer.  No program code is changed;
the outputs must be byte-identical to an untraced CLI pass, which the
caller checks.

Spans are kept in memory and written to SPANS_JSON when the pass ends.
Prints one JSON line: the traced pass time and the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mpptbench.config import load_scenario
from mpptbench.controllers import MpptController, StepAction
from mpptbench.converter import BuckBoost
from mpptbench.harness import (
    compute_metrics,
    format_metrics,
    resolve_initial_duty,
    run_simulation,
    write_trace_csv,
)
from mpptbench.oracle import MppOracle
from mpptbench.profiles import EnvProfile, builtin_table1_profile, load_profile_csv
from mpptbench.pvmodel import PVArray

from outputs import COMPARISON, TRACE_FILES


class Tracer:
    """Spans as parallel lists (name, start, end, parent index), plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                    "counts": self.counts,
                }
            )
        )


class TracedArray(PVArray):
    def __init__(self, tracer: Tracer, array: PVArray):
        super().__init__(
            array.cell,
            array.layout,
            array.constants,
            array.r_s,
            array.solver_tol,
            array.solver_max_iter,
            array.band_gap_denominator_sign,
        )
        self.tracer = tracer

    def current_at(self, v_array, env):
        if np.ndim(v_array) == 0:
            idx = self.tracer.begin("pvmodel.scalar")
        else:
            self.tracer.counts["pvmodel.vector_points"] += int(np.size(v_array))
            idx = self.tracer.begin("pvmodel.vector")
        try:
            return super().current_at(v_array, env)
        finally:
            self.tracer.end(idx)


class TracedOracle(MppOracle):
    def __init__(self, tracer: Tracer, array: PVArray):
        super().__init__(array)
        self.tracer = tracer
        self._seen: set[tuple[float, float]] = set()

    def find(self, env):
        key = (env.g, env.t)
        if key not in self._seen:
            self._seen.add(key)
            self.tracer.counts["oracle.find_misses"] += 1
        idx = self.tracer.begin("oracle.find")
        try:
            return super().find(env)
        finally:
            self.tracer.end(idx)


class TracedProfile(EnvProfile):
    def __init__(self, tracer: Tracer, profile: EnvProfile):
        super().__init__(profile.segments, profile.duration)
        self.tracer = tracer  # not a dataclass field, so allowed on a frozen subclass

    def env_at(self, t):
        idx = self.tracer.begin("profiles.env_at")
        try:
            return super().env_at(t)
        finally:
            self.tracer.end(idx)


class TracedConverter(BuckBoost):
    def __init__(self, tracer: Tracer, converter: BuckBoost):
        super().__init__(converter.v_bus, converter.d_min, converter.d_max, converter.sign_of_dv_dd)
        self.tracer = tracer

    def terminal_voltage(self, d):
        idx = self.tracer.begin("converter.terminal_voltage")
        try:
            return super().terminal_voltage(d)
        finally:
            self.tracer.end(idx)


class TracedController(MpptController):
    def __init__(self, tracer: Tracer, controller: MpptController):
        super().__init__(controller.kind, controller.params, controller.state.d)
        self.tracer = tracer

    def step(self, meas):
        idx = self.tracer.begin("controllers.step")
        try:
            outcome = super().step(meas)
        finally:
            self.tracer.end(idx)
        if outcome.action is StepAction.HELD_AT_MPP:
            self.tracer.counts["controllers.held"] += 1
        return outcome


def comparison_report(results: dict) -> str:
    """comparison.txt exactly as `mpptbench compare` formats it."""
    conv = results["conventional"]
    fixed = results["revised-fixed-bound"]
    adaptive = results["revised-adaptive-bound"]
    lines = []
    for name, m in results.items():
        lines.append(f"== {name} ==")
        lines.append(format_metrics(m).rstrip())
        lines.append("")
    lines.append("== orderings ==")
    lines.append(
        "energy_deficit_j: "
        f"conventional={conv.energy_deficit:.6g} "
        f"revised-fixed={fixed.energy_deficit:.6g} "
        f"revised-adaptive={adaptive.energy_deficit:.6g}"
    )
    lines.append(
        "energy_deficit(conventional) > energy_deficit(revised-adaptive): "
        f"{conv.energy_deficit > adaptive.energy_deficit}"
    )
    lines.append(
        "max_voltage_overshoot_v: "
        f"revised-fixed={fixed.max_voltage_overshoot:.6g} "
        f"revised-adaptive={adaptive.max_voltage_overshoot:.6g}"
    )
    lines.append(
        "max_voltage_overshoot(revised-adaptive) <= max_voltage_overshoot(revised-fixed): "
        f"{adaptive.max_voltage_overshoot <= fixed.max_voltage_overshoot}"
    )
    return "\n".join(lines) + "\n"


def traced_compare(config: Path, out_dir: Path, tracer: Tracer) -> None:
    """The `compare` pass with every layer call inside a span."""
    with tracer.span("pass"):
        with tracer.span("config.load_scenario"):
            scenario = load_scenario(config)
        out_dir.mkdir(parents=True, exist_ok=True)
        profile = TracedProfile(tracer, scenario.profile)
        results = {}
        for kind, filename in TRACE_FILES.items():
            array = TracedArray(tracer, scenario.build_array())
            oracle = TracedOracle(tracer, array)
            converter = TracedConverter(tracer, scenario.build_converter(array, oracle))
            d0 = resolve_initial_duty(scenario.sim, converter, oracle, profile.env_at(0.0))
            controller = TracedController(tracer, scenario.build_controller(d0, kind))
            with tracer.span("harness.run_simulation"):
                trace = run_simulation(array, converter, controller, profile, scenario.sim, oracle)
            tracer.counts["harness.steps"] += len(trace)
            with tracer.span("harness.compute_metrics"):
                results[kind] = compute_metrics(trace)
            with tracer.span("harness.write_trace_csv"):
                write_trace_csv(trace, out_dir / filename)
        (out_dir / COMPARISON).write_text(comparison_report(results))
    tracer.counts["profiles.segments"] = len(scenario.profile.segments)

    # Parsing the profile happens inside load_scenario, which has no
    # public hook; time the same public call once more, outside the pass.
    with tracer.span("profiles.load"):
        if scenario.profile_source == "builtin-table1":
            builtin_table1_profile()
        else:
            source = Path(scenario.profile_source)
            load_profile_csv(source if source.is_absolute() else config.parent / source)


def layer_metrics(tracer: Tracer, out_dir: Path) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self times from the spans of one traced pass."""
    durations = np.array(tracer.ends) - np.array(tracer.starts)
    parents = np.array(tracer.parents, dtype=int)
    names = np.array(tracer.names)
    child_time = np.zeros(len(durations))
    nested = parents >= 0
    np.add.at(child_time, parents[nested], durations[nested])
    self_time = durations - child_time

    def calls(name):
        return int(np.count_nonzero(names == name))

    def self_s(name):
        return float(self_time[names == name].sum())

    def total_s(name):
        return float(durations[names == name].sum())

    def per_call_us(name):
        return self_s(name) / calls(name) * 1e6

    counts = tracer.counts
    find_calls = calls("oracle.find")
    in_oracle = nested & (names[np.maximum(parents, 0)] == "oracle.find")
    step_calls = calls("controllers.step")
    return {
        "pvmodel.scalar_calls": (calls("pvmodel.scalar"), "count"),
        "pvmodel.scalar_self_s": (self_s("pvmodel.scalar"), "s"),
        "pvmodel.scalar_us_per_call": (per_call_us("pvmodel.scalar"), "us"),
        "pvmodel.vector_calls": (calls("pvmodel.vector"), "count"),
        "pvmodel.vector_points": (counts["pvmodel.vector_points"], "count"),
        "pvmodel.vector_self_s": (self_s("pvmodel.vector"), "s"),
        "oracle.find_calls": (find_calls, "count"),
        "oracle.find_misses": (counts["oracle.find_misses"], "count"),
        "oracle.hit_ratio": (1.0 - counts["oracle.find_misses"] / find_calls, "1"),
        "oracle.scalar_solves_per_miss": (
            int(np.count_nonzero(in_oracle & (names == "pvmodel.scalar")))
            / counts["oracle.find_misses"],
            "1",
        ),
        "oracle.find_self_s": (self_s("oracle.find"), "s"),
        "oracle.find_total_s": (total_s("oracle.find"), "s"),
        "profiles.segments": (counts["profiles.segments"], "count"),
        "profiles.env_at_calls": (calls("profiles.env_at"), "count"),
        "profiles.env_at_self_s": (self_s("profiles.env_at"), "s"),
        "profiles.env_at_us_per_call": (per_call_us("profiles.env_at"), "us"),
        "profiles.load_csv_s": (total_s("profiles.load"), "s"),
        "converter.terminal_voltage_calls": (calls("converter.terminal_voltage"), "count"),
        "converter.terminal_voltage_self_s": (self_s("converter.terminal_voltage"), "s"),
        "controllers.step_calls": (step_calls, "count"),
        "controllers.step_self_s": (self_s("controllers.step"), "s"),
        "controllers.step_us_per_call": (per_call_us("controllers.step"), "us"),
        "controllers.held_fraction": (counts["controllers.held"] / step_calls, "1"),
        "harness.steps": (counts["harness.steps"], "count"),
        "harness.loop_self_s": (self_s("harness.run_simulation"), "s"),
        "harness.compute_metrics_s": (total_s("harness.compute_metrics"), "s"),
        "harness.write_trace_csv_s": (total_s("harness.write_trace_csv"), "s"),
        "harness.trace_bytes": (
            sum((out_dir / f).stat().st_size for f in TRACE_FILES.values()),
            "B",
        ),
        "config.load_scenario_s": (total_s("config.load_scenario"), "s"),
        "trace.pass_s": (total_s("pass"), "s"),
    }


def main(argv: list[str]) -> int:
    config, out_dir, spans_path = (Path(a) for a in argv)
    tracer = Tracer()
    traced_compare(config, out_dir, tracer)
    tracer.dump(spans_path)
    metrics = layer_metrics(tracer, out_dir)
    print(json.dumps({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
