"""Command-line entry point: run, compare, oracle.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime/solver error.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .config import ConfigError, ScenarioConfig, load_scenario
from .controllers import DegenerateSampleError
from .converter import BuckBoost
from .harness import (
    compute_metrics,
    format_metrics,
    format_trace_csv,
    resolve_initial_duty,
    run_simulation,
    step_times,
)
from .oracle import MppOracle, pv_curve, refine_mpp
from .profiles import celsius_to_kelvin
from .pvmodel import EnvCondition, PVArray

__all__ = ["main"]

_TRACE_FILES = {
    "conventional": "trace_conventional.csv",
    "revised-fixed-bound": "trace_revised_fixed.csv",
    "revised-adaptive-bound": "trace_revised_adaptive.csv",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpptbench",
        description="Desk-scale MPPT simulator and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress the summary printout")

    p_run = sub.add_parser("run", help="run one simulation, write trace.csv and metrics.txt")
    common(p_run)

    p_cmp = sub.add_parser(
        "compare", help="run all three controllers on the scenario, write comparison.txt"
    )
    common(p_cmp)

    p_orc = sub.add_parser(
        "oracle", help="dump the P-V curve and the true MPP for one condition"
    )
    common(p_orc)
    p_orc.add_argument("--g", type=float, default=1000.0, help="irradiance, W/m^2")
    p_orc.add_argument("--temp", type=float, default=25.0, help="cell temperature, degC")
    return parser


def _load(args) -> ScenarioConfig:
    scenario = load_scenario(args.config)
    if args.out is not None:
        scenario.output_dir = Path(args.out)
    scenario.output_dir.mkdir(parents=True, exist_ok=True)
    return scenario


class _Plant(NamedTuple):
    """The array, oracle, converter and initial duty that every controller kind shares."""

    array: PVArray
    oracle: MppOracle
    converter: BuckBoost
    d0: float


def _plant(scenario: ScenarioConfig) -> _Plant:
    array = scenario.build_array()
    oracle = MppOracle(array)
    converter = scenario.build_converter(array, oracle)
    d0 = resolve_initial_duty(scenario.sim, converter, oracle, scenario.profile.env_at(0.0))
    return _Plant(array, oracle, converter, d0)


class _KindResult(NamedTuple):
    """One kind's outputs as run and compare write and print them; cheap to pickle."""

    steps: int
    trace_csv: bytes  # format_trace_csv's text, encoded
    report: str  # format_metrics' text
    energy_deficit: float
    max_voltage_overshoot: float


def _run_kind(scenario: ScenarioConfig, plant: _Plant, kind: str) -> _KindResult:
    """Simulate one controller kind on the shared plant and format its outputs."""
    array, oracle, converter, d0 = plant
    controller = scenario.build_controller(d0, kind)
    trace = run_simulation(array, converter, controller, scenario.profile, scenario.sim, oracle)
    metrics = compute_metrics(trace, control_interval=scenario.sim.control_interval_s)
    return _KindResult(
        len(trace),
        format_trace_csv(trace).encode(),
        format_metrics(metrics),
        metrics.energy_deficit,
        metrics.max_voltage_overshoot,
    )


def _fork(work: Callable[..., Any], *args: Any) -> tuple[int, int]:
    """Start work(*args) in a forked child; return its pid and the read end of its pipe.

    The child pickles (result, None) or (None, exception) into the pipe
    and leaves by os._exit, so none of the parent's clean-up or buffered
    output runs twice.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                payload = pickle.dumps((work(*args), None))
            except BaseException as exc:
                payload = pickle.dumps((None, exc))
            with open(w, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(w)
    return pid, r


def _receive(r: int, kind: str):
    """The result a _fork child sent; re-raise the exception it sent instead."""
    try:
        # unpickling straight from the pipe reads a large bytes value into place
        with open(r, "rb", closefd=False) as fh:
            result, exc = pickle.load(fh)
    except (EOFError, pickle.UnpicklingError):
        raise ValueError(f"the {kind} run ended without a result") from None
    if exc is not None:
        raise exc
    return result


def _cmd_run(args) -> int:
    scenario = _load(args)
    result = _run_kind(scenario, _plant(scenario), scenario.controller_kind)
    trace_path = scenario.output_dir / "trace.csv"
    trace_path.write_bytes(result.trace_csv)
    (scenario.output_dir / "metrics.txt").write_text(result.report)
    if not args.quiet:
        print(f"{scenario.controller_kind}: {result.steps} steps -> {trace_path}")
        print(f"energy_deficit_j: {result.energy_deficit:.6g}")
    return 0


def _cmd_compare(args) -> int:
    """Run each controller kind in its own forked child.

    The oracle is warmed first with every condition the run visits, so
    the children inherit its cache and each condition is swept once.
    Results are read in kind order, so the first kind's failure is the
    one raised, and files are written only after every kind succeeded.
    """
    scenario = _load(args)
    plant = _plant(scenario)
    for t in step_times(scenario.sim, scenario.profile):
        plant.oracle.find(scenario.profile.env_at(t))
    workers: list[tuple[int, int]] = []
    try:
        for kind in _TRACE_FILES:
            workers.append(_fork(_run_kind, scenario, plant, kind))
        results = {kind: _receive(r, kind) for kind, (_, r) in zip(_TRACE_FILES, workers)}
    finally:
        for pid, r in workers:
            os.close(r)
            os.waitpid(pid, 0)
    for kind, result in results.items():
        (scenario.output_dir / _TRACE_FILES[kind]).write_bytes(result.trace_csv)

    conv = results["conventional"]
    fixed = results["revised-fixed-bound"]
    adaptive = results["revised-adaptive-bound"]
    lines = []
    for name, result in results.items():
        lines.append(f"== {name} ==")
        lines.append(result.report.rstrip())
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
    report = "\n".join(lines) + "\n"
    (scenario.output_dir / "comparison.txt").write_text(report)
    if not args.quiet:
        print(report, end="")
    return 0


def _cmd_oracle(args) -> int:
    try:
        env = EnvCondition(g=args.g, t=celsius_to_kelvin(args.temp))
    except ValueError as exc:
        raise ConfigError(f"--g {args.g!r} --temp {args.temp!r}: {exc}") from None
    scenario = _load(args)
    array = scenario.build_array()
    voltage, current = pv_curve(array, env)
    mpp = refine_mpp(array, env, voltage, current)
    curve_path = scenario.output_dir / "pv_curve.csv"
    # CRLF rows as write_trace_csv writes them; the dark curve, all at V_oc = 0, has none
    with curve_path.open("w", newline="") as fh:
        fh.write("voltage_v,current_a,power_w\r\n")
        if voltage[-1] > 0:
            fh.writelines(
                f"{v!r},{i!r},{v * i!r}\r\n" for v, i in zip(voltage.tolist(), current.tolist())
            )
    print(f"v_mpp_v: {mpp.v_mpp:.6g}")
    print(f"i_mpp_a: {mpp.i_mpp:.6g}")
    print(f"p_mpp_w: {mpp.p_mpp:.6g}")
    if not args.quiet:
        print(f"curve: {curve_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "oracle": _cmd_oracle}
    try:
        return handlers[args.command](args)
    except (ConfigError, DegenerateSampleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
