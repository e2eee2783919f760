"""Scenario configuration: YAML loading, validation, and assembly.

A scenario file names a panel preset (or gives inline cell values), the
array layout in panels, the converter and controller settings, a profile
source, and the simulation settings.  Validation failures report the
offending field with its line in the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

import yaml

from .controllers import CONTROLLER_KINDS, ControllerParams, MpptController
from .converter import BuckBoost
from .harness import SimConfig
from .oracle import MppOracle
from .profiles import EnvProfile, builtin_table1_profile, load_profile_csv
from .pvmodel import STC, ArrayConfig, CellParams, PVArray

__all__ = ["ConfigError", "ScenarioConfig", "load_scenario", "load_panel_preset"]


class ConfigError(Exception):
    """A scenario file failed to load or validate."""


# A CSV row gives only a start time, so a CSV profile has no end of its own.
CSV_DURATION_REQUIRED = "required with a CSV profile, which has no end time of its own"


@dataclass(frozen=True)
class PanelPreset:
    """Panel-level datasheet values plus the series cell count."""

    name: str
    cells_in_series: int
    i_sc_a: float
    v_oc_v: float
    alpha_per_k: float
    ideality_factor: float
    dv_di_oc_ohm: float
    rated_power_w: float
    t_ref_k: float = 298.0
    g_ref_w_m2: float = 1000.0
    r_p_ohm: float | None = None

    def cell_params(self) -> CellParams:
        n = self.cells_in_series
        return CellParams(
            i_sc_ref=self.i_sc_a,
            v_oc_ref=self.v_oc_v / n,
            alpha=self.alpha_per_k,
            n=self.ideality_factor,
            dv_di_oc=self.dv_di_oc_ohm / n,
            r_p=None if self.r_p_ohm is None else self.r_p_ohm / n,
            t_ref=self.t_ref_k,
            g_ref=self.g_ref_w_m2,
        )


@dataclass
class ScenarioConfig:
    """Everything needed to run one simulation."""

    preset: PanelPreset
    panels_series: int
    panels_parallel: int
    band_gap_denominator_sign: int
    solver_tolerance: float
    solver_max_iterations: int
    v_bus: float | str  # volts or "auto"
    d_min: float
    d_max: float
    controller_kind: str
    controller_params: ControllerParams
    profile_source: str  # "builtin-table1" or a CSV path
    profile: EnvProfile
    sim: SimConfig
    output_dir: Path

    def build_array(self) -> PVArray:
        cells = self.preset.cells_in_series
        layout = ArrayConfig(
            n_series=cells * self.panels_series, n_parallel=self.panels_parallel
        )
        return PVArray(
            cell=self.preset.cell_params(),
            layout=layout,
            solver_tol=self.solver_tolerance,
            solver_max_iter=self.solver_max_iterations,
            band_gap_denominator_sign=self.band_gap_denominator_sign,
        )

    def build_converter(self, array: PVArray, oracle: MppOracle | None = None) -> BuckBoost:
        """Converter with the bus sized so the STC MPP sits at duty 0.5."""
        v_bus = self.v_bus
        if v_bus == "auto":
            oracle = oracle or MppOracle(array)
            v_bus = oracle.find(STC).v_mpp
        return BuckBoost(v_bus=float(v_bus), d_min=self.d_min, d_max=self.d_max)

    def build_controller(self, initial_duty: float, kind: str | None = None) -> MpptController:
        return MpptController(kind or self.controller_kind, self.controller_params, initial_duty)


def _index_key_lines(node: Any, prefix: str, out: dict[str, int]) -> None:
    if not isinstance(node, yaml.MappingNode):
        return
    for key_node, value_node in node.value:
        path = f"{prefix}.{key_node.value}" if prefix else str(key_node.value)
        out[path] = key_node.start_mark.line + 1
        _index_key_lines(value_node, path, out)


class _Section:
    """A mapping section of the file, with line-aware error reporting."""

    def __init__(self, data: dict, lines: dict[str, int], file: Path, prefix: str = ""):
        self.data = data
        self.lines = lines
        self.file = file
        self.prefix = prefix

    def _path(self, key: str) -> str:
        return f"{self.prefix}.{key}" if self.prefix else key

    def error(self, key: str, message: str) -> ConfigError:
        path = self._path(key)
        located = path  # the nearest of the key and its ancestors that is in the file
        while located and located not in self.lines:
            located = located.rpartition(".")[0]
        where = f"{self.file}:{self.lines[located]}" if located else str(self.file)
        return ConfigError(f"{where}: {path}: {message}")

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def number(self, key: str, default: float | None = None) -> float:
        value = self.get(key, default)
        if value is default and default is None:
            raise self.error(key, "required value is missing")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self.error(key, f"expected a number, got {value!r}")
        return float(value)

    def integer(self, key: str, default: int | None = None) -> int:
        value = self.get(key, default)
        if value is default and default is None:
            raise self.error(key, "required value is missing")
        if isinstance(value, bool) or not isinstance(value, int):
            raise self.error(key, f"expected an integer, got {value!r}")
        return value

    def boolean(self, key: str, default: bool) -> bool:
        value = self.get(key, default)
        if not isinstance(value, bool):
            raise self.error(key, f"expected true/false, got {value!r}")
        return value

    def string(self, key: str, default: str | None = None) -> str:
        value = self.get(key, default)
        if value is default and default is None:
            raise self.error(key, "required value is missing")
        if not isinstance(value, str):
            raise self.error(key, f"expected a string, got {value!r}")
        return value

    def section(self, key: str) -> "_Section":
        value = self.get(key, {})
        if value is None:
            value = {}
        if not isinstance(value, dict):
            raise self.error(key, f"expected a mapping, got {value!r}")
        return _Section(value, self.lines, self.file, self._path(key))

    def reject_unknown(self, known: set[str]) -> None:
        for key in self.data:
            if key not in known:
                raise self.error(key, "unknown field")


def load_panel_preset(name_or_path: str) -> PanelPreset:
    """Load a preset by bundled name (e.g. bp_sx150) or from a YAML path."""
    path = Path(name_or_path)
    if path.suffix in (".yaml", ".yml") and path.exists():
        raw = yaml.safe_load(path.read_text())
        source = str(path)
    else:
        ref = resources.files("mpptbench").joinpath(f"data/{name_or_path}.yaml")
        if not ref.is_file():
            raise ConfigError(f"unknown panel preset {name_or_path!r}")
        raw = yaml.safe_load(ref.read_text())
        source = f"preset {name_or_path}"
    try:
        return PanelPreset(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: invalid preset: {exc}") from None


def _preset_from_inline(sec: _Section) -> PanelPreset:
    known = {
        "name", "cells_in_series", "i_sc_a", "v_oc_v", "alpha_per_k",
        "ideality_factor", "dv_di_oc_ohm", "rated_power_w", "t_ref_k",
        "g_ref_w_m2", "r_p_ohm",
    }
    sec.reject_unknown(known)
    r_p = sec.get("r_p_ohm")
    try:
        return PanelPreset(
            name=sec.string("name", "inline"),
            cells_in_series=sec.integer("cells_in_series"),
            i_sc_a=sec.number("i_sc_a"),
            v_oc_v=sec.number("v_oc_v"),
            alpha_per_k=sec.number("alpha_per_k"),
            ideality_factor=sec.number("ideality_factor"),
            dv_di_oc_ohm=sec.number("dv_di_oc_ohm"),
            rated_power_w=sec.number("rated_power_w", 0.0),
            t_ref_k=sec.number("t_ref_k", 298.0),
            g_ref_w_m2=sec.number("g_ref_w_m2", 1000.0),
            r_p_ohm=None if r_p is None else float(r_p),
        )
    except ValueError as exc:
        raise sec.error("cells_in_series", str(exc)) from None


def _controller_from(sec: _Section) -> tuple[str, ControllerParams]:
    known = {
        "kind", "delta_d_nominal", "delta_d_max_initial", "delta_d_max_floor",
        "delta_d_floor", "epsilon", "acc", "deacc", "slope_normalization",
    }
    sec.reject_unknown(known)
    kind = sec.string("kind", "revised-adaptive-bound")
    if kind not in CONTROLLER_KINDS:
        raise sec.error("kind", f"must be one of {', '.join(CONTROLLER_KINDS)}")
    fields = dict(
        delta_d_nominal=sec.number("delta_d_nominal", 0.001),
        delta_d_max_initial=sec.number("delta_d_max_initial", 0.01),
        delta_d_max_floor=sec.number("delta_d_max_floor", 0.001),
        delta_d_floor=sec.number("delta_d_floor", 1e-12),
        epsilon=sec.number("epsilon", 5e-4),
        acc=sec.number("acc", 1.2),
        deacc=sec.number("deacc", 0.8),
        slope_normalization=sec.boolean("slope_normalization", True),
    )
    return kind, fields


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario YAML file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    text = path.read_text()
    try:
        data = yaml.safe_load(text)
        node = yaml.compose(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    lines: dict[str, int] = {}
    if node is not None:
        _index_key_lines(node, "", lines)
    root = _Section(data, lines, path)
    root.reject_unknown(
        {"panel", "cell", "array", "model", "converter", "controller", "profile",
         "sim", "output_dir"}
    )

    panel_name = root.get("panel")
    cell_sec = root.section("cell")
    if panel_name is not None and cell_sec.data:
        raise root.error("panel", "give either a panel preset or inline cell values, not both")
    if panel_name is not None:
        if not isinstance(panel_name, str):
            raise root.error("panel", f"expected a preset name, got {panel_name!r}")
        try:
            preset = load_panel_preset(panel_name)
        except ConfigError as exc:
            raise root.error("panel", str(exc)) from None
    elif cell_sec.data:
        preset = _preset_from_inline(cell_sec)
    else:
        raise root.error("panel", "scenario needs a panel preset or an inline cell section")

    arr = root.section("array")
    arr.reject_unknown({"panels_series", "panels_parallel"})
    panels_series = arr.integer("panels_series", 1)
    panels_parallel = arr.integer("panels_parallel", 1)
    if panels_series < 1 or panels_parallel < 1:
        raise arr.error("panels_series", "panel counts must be >= 1")

    model = root.section("model")
    model.reject_unknown(
        {"band_gap_denominator_sign", "solver_tolerance_a", "solver_max_iterations"}
    )
    bg_sign = model.integer("band_gap_denominator_sign", -1)
    if bg_sign not in (-1, 1):
        raise model.error("band_gap_denominator_sign", "must be -1 or +1")
    solver_tol = model.number("solver_tolerance_a", 1e-9)
    solver_iters = model.integer("solver_max_iterations", 100)
    if solver_tol <= 0 or solver_iters < 1:
        raise model.error("solver_tolerance_a", "solver settings must be positive")

    conv = root.section("converter")
    conv.reject_unknown({"v_bus", "d_min", "d_max"})
    v_bus_raw = conv.get("v_bus", "auto")
    if isinstance(v_bus_raw, str):
        if v_bus_raw != "auto":
            raise conv.error("v_bus", 'expected a voltage or "auto"')
        v_bus: float | str = "auto"
    elif isinstance(v_bus_raw, (int, float)) and not isinstance(v_bus_raw, bool):
        v_bus = float(v_bus_raw)
        if v_bus <= 0:
            raise conv.error("v_bus", "must be > 0")
    else:
        raise conv.error("v_bus", 'expected a voltage or "auto"')
    d_min = conv.number("d_min", 0.05)
    d_max = conv.number("d_max", 0.95)
    if not (0.0 < d_min < d_max < 1.0):
        raise conv.error("d_min", "need 0 < d_min < d_max < 1")

    ctrl = root.section("controller")
    kind, ctrl_fields = _controller_from(ctrl)
    try:
        controller_params = ControllerParams(d_min=d_min, d_max=d_max, **ctrl_fields)
    except ValueError as exc:
        raise ctrl.error("kind", str(exc)) from None

    profile_source = root.get("profile", "builtin-table1")
    if not isinstance(profile_source, str):
        raise root.error("profile", f"expected 'builtin-table1' or a CSV path, got {profile_source!r}")
    if profile_source == "builtin-table1":
        profile = builtin_table1_profile()
    else:
        csv_path = Path(profile_source)
        if not csv_path.is_absolute():
            csv_path = path.parent / csv_path
        if not csv_path.exists():
            raise root.error("profile", f"profile CSV not found: {csv_path}")
        try:
            profile = load_profile_csv(csv_path)
        except ValueError as exc:
            raise root.error("profile", str(exc)) from None

    sim_sec = root.section("sim")
    sim_sec.reject_unknown(
        {"control_interval_s", "duration_s", "initial_duty", "initial_voltage_fraction",
         "noise_v", "noise_i", "noise_seed"}
    )
    duration = sim_sec.get("duration_s")
    initial_duty = sim_sec.get("initial_duty", "auto")
    if not (initial_duty == "auto" or isinstance(initial_duty, (int, float))):
        raise sim_sec.error("initial_duty", 'expected a duty in (0, 1) or "auto"')
    try:
        sim = SimConfig(
            control_interval=sim_sec.number("control_interval_s", 0.010),
            duration=None if duration is None else sim_sec.number("duration_s"),
            initial_duty=initial_duty if initial_duty == "auto" else float(initial_duty),
            initial_voltage_fraction=sim_sec.number("initial_voltage_fraction", 0.9),
            noise_v=sim_sec.number("noise_v", 0.0),
            noise_i=sim_sec.number("noise_i", 0.0),
            noise_seed=sim_sec.integer("noise_seed", 0),
        )
    except ValueError as exc:
        raise sim_sec.error("control_interval_s", str(exc)) from None
    if sim.duration is None and profile_source != "builtin-table1":
        raise sim_sec.error("duration_s", f"{CSV_DURATION_REQUIRED}: {profile_source}")

    output_dir = root.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise root.error("output_dir", f"expected a path, got {output_dir!r}")

    return ScenarioConfig(
        preset=preset,
        panels_series=panels_series,
        panels_parallel=panels_parallel,
        band_gap_denominator_sign=bg_sign,
        solver_tolerance=solver_tol,
        solver_max_iterations=solver_iters,
        v_bus=v_bus,
        d_min=d_min,
        d_max=d_max,
        controller_kind=kind,
        controller_params=controller_params,
        profile_source=profile_source,
        profile=profile,
        sim=sim,
        output_dir=Path(output_dir),
    )
