"""Command-line entry point: run, compare, oracle.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime, solver or output error.
"""

from __future__ import annotations

import argparse
import os
import pickle
import shutil
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .config import ConfigError, ScenarioConfig, load_scenario
from .controllers import DegenerateSampleError
from .converter import BuckBoost
from .harness import (
    compute_metrics,
    format_csv,
    format_metrics,
    resolve_initial_duty,
    run_simulation,
    step_times,
    write_trace_csv,
)
from .oracle import MppOracle, find_mpp, pv_curve
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
    """The figures of one kind that run and compare print; cheap to pickle.

    The trace and the format_metrics report are not among them:
    _run_kind writes both to disk itself.
    """

    steps: int
    energy_deficit: float
    max_voltage_overshoot: float


def _run_kind(
    scenario: ScenarioConfig, plant: _Plant, kind: str, trace_path: Path, report_path: Path
) -> _KindResult:
    """Simulate one controller kind on the shared plant; write its trace, then its report."""
    array, oracle, converter, d0 = plant
    controller = scenario.build_controller(d0, kind)
    trace = run_simulation(array, converter, controller, scenario.profile, scenario.sim, oracle)
    metrics = compute_metrics(trace, control_interval=scenario.sim.control_interval_s)
    write_trace_csv(trace, trace_path)
    report_path.write_text(format_metrics(metrics))
    return _KindResult(len(trace), metrics.energy_deficit, metrics.max_voltage_overshoot)


def _fork(work: Callable[..., Any], *args: Any) -> tuple[int, int]:
    """Start work(*args) in a forked child; return its pid and the read end of its pipe.

    The child pickles (result, None) or (None, exception) into the pipe
    and leaves by os._exit, so none of the parent's clean-up or buffered
    output runs twice.  Whatever else work makes, such as a file, the
    child writes itself; only the result crosses the pipe.
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
        with open(r, "rb", closefd=False) as fh:
            result, exc = pickle.load(fh)
    except (EOFError, pickle.UnpicklingError):
        raise ValueError(f"the {kind} run ended without a result") from None
    if exc is not None:
        raise exc
    return result


def _cmd_run(args) -> int:
    scenario = _load(args)
    plant = _plant(scenario)
    scenario.output_dir.mkdir(parents=True, exist_ok=True)
    trace_path = scenario.output_dir / "trace.csv"
    report_path = scenario.output_dir / "metrics.txt"
    result = _run_kind(scenario, plant, scenario.controller_kind, trace_path, report_path)
    if not args.quiet:
        print(f"{scenario.controller_kind}: {result.steps} steps -> {trace_path}")
        print(f"energy_deficit_j: {result.energy_deficit:.6g}")
    return 0


def _cmd_compare(args) -> int:
    """Run each controller kind in its own forked child.

    The oracle is warmed first with every condition the run visits, so
    the children inherit its cache and each condition is swept once.
    Each child writes its trace and report into out/.compare.<pid>; only
    its figures cross the pipe, read in kind order, so the first kind's
    failure is the one raised.  If all succeed, comparison.txt is built
    there by copying the reports, and the traces, then it, are renamed
    into out.  Once every child has ended the directory is removed, so a
    compare that fails before the renames leaves out as it found it.
    """
    scenario = _load(args)
    plant = _plant(scenario)
    out = scenario.output_dir
    out.mkdir(parents=True, exist_ok=True)
    work = out / f".compare.{os.getpid()}"
    work.mkdir(exist_ok=True)
    workers: list[tuple[int, int]] = []
    try:
        for t in step_times(scenario.sim, scenario.profile):
            plant.oracle.find(scenario.profile.env_at(t))
        for kind, name in _TRACE_FILES.items():
            workers.append(_fork(_run_kind, scenario, plant, kind, work / name, work / kind))
        results = {kind: _receive(r, kind) for kind, (_, r) in zip(_TRACE_FILES, workers)}
        conv = results["conventional"]
        fixed = results["revised-fixed-bound"]
        adaptive = results["revised-adaptive-bound"]
        orderings = (
            "== orderings ==\n"
            "energy_deficit_j: "
            f"conventional={conv.energy_deficit:.6g} "
            f"revised-fixed={fixed.energy_deficit:.6g} "
            f"revised-adaptive={adaptive.energy_deficit:.6g}\n"
            "energy_deficit(conventional) > energy_deficit(revised-adaptive): "
            f"{conv.energy_deficit > adaptive.energy_deficit}\n"
            "max_voltage_overshoot_v: "
            f"revised-fixed={fixed.max_voltage_overshoot:.6g} "
            f"revised-adaptive={adaptive.max_voltage_overshoot:.6g}\n"
            "max_voltage_overshoot(revised-adaptive) <= max_voltage_overshoot(revised-fixed): "
            f"{adaptive.max_voltage_overshoot <= fixed.max_voltage_overshoot}\n"
        )
        with open(work / "comparison.txt", "wb") as fh:
            for kind in _TRACE_FILES:
                # a report ends in one newline; the blank line then closes its block
                fh.write(f"== {kind} ==\n".encode())
                with open(work / kind, "rb") as src:
                    shutil.copyfileobj(src, fh)
                fh.write(b"\n")
            fh.write(orderings.encode())
        for name in (*_TRACE_FILES.values(), "comparison.txt"):
            os.replace(work / name, out / name)
    finally:
        for pid, r in workers:
            os.close(r)
            os.waitpid(pid, 0)
        # only now can no child still write into work
        try:
            shutil.rmtree(work)
        except FileNotFoundError:
            pass
    if not args.quiet:
        with open(out / "comparison.txt") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    return 0


def _cmd_oracle(args) -> int:
    scenario = _load(args)
    array = scenario.build_array()
    try:
        env = EnvCondition(g=args.g, t=celsius_to_kelvin(args.temp))
        array.open_circuit_voltage(env)  # the model's checks at env: I_ph >= 0 for alpha_per_k too
    except ValueError as exc:
        raise ConfigError(f"--g {args.g!r} --temp {args.temp!r}: {exc}") from None
    voltage, current = pv_curve(array, env)
    mpp = find_mpp(array, env)
    scenario.output_dir.mkdir(parents=True, exist_ok=True)
    header = ("voltage_v", "current_a", "power_w")
    rows = ((v, i, v * i) for v, i in zip(voltage, current))
    curve_path = scenario.output_dir / "pv_curve.csv"
    # the dark curve, all at V_oc = 0, is the header alone
    curve_path.write_text(format_csv(header, rows if voltage[-1] > 0 else ()), newline="")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
