"""Command-line entry point: run, compare, oracle.

Exit codes: 0 success, 1 configuration or usage error, 2 runtime, solver or output error.
A checked condition whose MPP does not solve is a configuration error.
"""

from __future__ import annotations

import os
import pickle
import shutil
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .config import ConfigError, ScenarioConfig, load_scenario
from .controllers import DegenerateSampleError
from .harness import compute_metrics, format_csv, format_metrics, run_simulation, write_trace_csv
from .oracle import pv_curve
from .profiles import celsius_to_kelvin
from .pvmodel import EnvCondition

__all__ = ["main"]

_TRACE_FILES = {
    "conventional": "trace_conventional.csv",
    "revised-fixed-bound": "trace_revised_fixed.csv",
    "revised-adaptive-bound": "trace_revised_adaptive.csv",
}


class _KindResult(NamedTuple):
    """The figures of one kind that run and compare print; cheap to pickle.

    The trace and the format_metrics report are not among them:
    _run_kind writes both to disk itself.
    """

    steps: int
    energy_deficit: float
    max_voltage_overshoot: float


def _run_kind(scenario: ScenarioConfig, kind: str, trace_path: Path, report_path: Path):
    """Simulate one controller kind on the scenario's plant; write its trace, then its report."""
    controller = scenario.build_controller(scenario.sim.initial_duty, kind)
    array, converter, oracle = scenario.array, scenario.converter, scenario.oracle
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


def _cmd_run(scenario: ScenarioConfig, quiet: bool) -> int:
    scenario.output_dir.mkdir(parents=True, exist_ok=True)
    trace_path = scenario.output_dir / "trace.csv"
    report_path = scenario.output_dir / "metrics.txt"
    result = _run_kind(scenario, scenario.controller_kind, trace_path, report_path)
    if not quiet:
        print(f"{scenario.controller_kind}: {result.steps} steps -> {trace_path}")
        print(f"energy_deficit_j: {result.energy_deficit:.6g}")
    return 0


def _cmd_compare(scenario: ScenarioConfig, quiet: bool) -> int:
    """Run each controller kind in its own forked child.

    load_scenario found the MPP of every profile condition, so each child
    inherits an oracle that holds them all and no condition is solved twice.
    Each child writes its trace and report into out/.compare.<pid>; only
    its figures cross the pipe, read in kind order, so the first kind's
    failure is the one raised.  If all succeed, comparison.txt is built
    there by copying the reports, and the traces, then it, are renamed
    into out.  Once every child has ended the directory is removed, so a
    compare that fails before the renames leaves out as it found it.
    """
    out = scenario.output_dir
    out.mkdir(parents=True, exist_ok=True)
    work = out / f".compare.{os.getpid()}"
    work.mkdir(exist_ok=True)
    workers: list[tuple[int, int]] = []
    try:
        for kind, name in _TRACE_FILES.items():
            workers.append(_fork(_run_kind, scenario, kind, work / name, work / kind))
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
    if not quiet:
        with open(out / "comparison.txt") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    return 0


def _cmd_oracle(scenario: ScenarioConfig, quiet: bool, g: float, temp: float) -> int:
    try:
        env = EnvCondition(g=g, t=celsius_to_kelvin(temp))
        mpp = scenario.oracle.find(env)  # the model's checks at env, then the MPP's solve
    except ValueError as exc:
        raise ConfigError(f"--g {g!r} --temp {temp!r}: {exc}") from None
    voltage, current = pv_curve(scenario.array, env)
    scenario.output_dir.mkdir(parents=True, exist_ok=True)
    header = ("voltage_v", "current_a", "power_w")
    rows = ((v, i, v * i) for v, i in zip(voltage, current))
    curve_path = scenario.output_dir / "pv_curve.csv"
    # the dark curve, all at V_oc = 0, is the header alone
    curve_path.write_text(format_csv(header, rows if voltage[-1] > 0 else ()), newline="")
    print(f"v_mpp_v: {mpp.v_mpp:.6g}")
    print(f"i_mpp_a: {mpp.i_mpp:.6g}")
    print(f"p_mpp_w: {mpp.p_mpp:.6g}")
    if not quiet:
        print(f"curve: {curve_path}")
    return 0


# flag -> (str, float or bool for a switch; its default, ... if it is required; its help)
_COMMON: dict[str, tuple[type, Any, str]] = {
    "--config": (str, ..., "scenario YAML file"),
    "--out": (str, None, "output directory (overrides config)"),
    "--quiet": (bool, False, "suppress the summary printout"),
}
_ORACLE = {**_COMMON, "--g": (float, 1000.0, "irradiance, W/m^2"),
           "--temp": (float, 25.0, "cell temperature, degC")}
_COMMANDS = {  # command -> (its handler, its flags, its help); the parser and help read only this
    "run": (_cmd_run, _COMMON, "run one simulation, write trace.csv and metrics.txt"),
    "compare": (_cmd_compare, _COMMON, "run all three controllers, write comparison.txt"),
    "oracle": (_cmd_oracle, _ORACLE, "dump the P-V curve and the true MPP for one condition"),
}


def _usage(command: str | None, error: str = "") -> int:
    """Print the help of command, or of the CLI, and return 0; or its usage line and error, 1."""
    if command is None:
        rows = {name: text for name, (_, _, text) in _COMMANDS.items()}
        usage = f"[-h] {{{','.join(rows)}}} ..."
    else:
        flags = _COMMANDS[command][1]
        rows = {f if k is bool else f"{f} {f[2:].upper()}": h for f, (k, _, h) in flags.items()}
        forms = (row if d is ... else f"[{row}]" for row, (_, d, _) in zip(rows, flags.values()))
        usage = f"{command} [-h] {' '.join(forms)}"
    if error:
        print(f"usage: mpptbench {usage}\nmpptbench: error: {error}", file=sys.stderr)
        return 1
    print(f"usage: mpptbench {usage}", *(f"  {r:17} {h}" for r, h in rows.items()), sep="\n")
    return 0


def _parse(argv: list[str]) -> tuple[str, dict[str, Any]] | int:
    """argv's command and options by name, or the exit code once help or an error printed."""
    words = [word for word in argv if word not in ("-h", "--help")]
    command = words[0] if words and words[0] in _COMMANDS else None
    if len(words) < len(argv):
        return _usage(command)
    if command is None:
        return _usage(None, f"the first argument must be a command: {', '.join(_COMMANDS)}")
    flags = _COMMANDS[command][1]
    opts = {flag[2:]: default for flag, (_, default, _) in flags.items()}
    rest = iter(words[1:])
    for word in rest:
        name, eq, value = word.partition("=")
        found = [f for f in flags if name[:2] == "--" and f.startswith(name)]
        if len(found) != 1 or (eq and flags[found[0]][0] is bool):
            return _usage(command, f"unrecognized argument: {word}")
        flag, kind = found[0], flags[found[0]][0]
        try:
            opts[flag[2:]] = True if kind is bool else kind(value if eq else next(rest))
        except (StopIteration, ValueError):  # no value left, or not a float
            return _usage(command, f"argument {flag}: expected one {kind.__name__} value")
    if opts["config"] is ...:
        return _usage(command, "the following arguments are required: --config")
    return command, opts


def main(argv: list[str] | None = None) -> int:
    parsed = _parse(sys.argv[1:] if argv is None else argv)
    if isinstance(parsed, int):
        return parsed
    command, opts = parsed
    try:
        scenario = load_scenario(opts.pop("config"))
        if (out := opts.pop("out")) is not None:
            scenario.output_dir = Path(out)
        return _COMMANDS[command][0](scenario, **opts)
    except (ConfigError, DegenerateSampleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
