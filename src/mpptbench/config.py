"""Scenario configuration: YAML loading, validation, and assembly.

A scenario file names a panel preset (bundled, or a preset file by a
path relative to the scenario file), the array layout in panels, the
converter and controller settings, a profile source, and the simulation
settings.  A preset file and the controller and sim sections load into
PanelPreset, ControllerParams and SimConfig, whose field names are the
keys and whose fields give the value types and defaults.  A preset's
datasheet values are taken at STC, and must give a cell whose derived
series resistance is > 0 and whose MPP the oracle can find in every
profile segment; the cell model itself decides that, as load_scenario
finds each distinct condition's MPP.  A number must be a finite float;
1e-2 and 1.0e2 are numbers too.  Last, the converter's duty
range must reach the array's I-V curve at STC.
Validation failures report the offending field with its line in the file.
"""

from __future__ import annotations

import re
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NamedTuple, get_args, get_type_hints

import yaml

from .controllers import CONTROLLER_KINDS, ControllerParams, MpptController
from .converter import BuckBoost
from .harness import SimConfig, resolve_initial_duty
from .oracle import MppOracle
from .profiles import EnvProfile, builtin_table1_profile, load_profile_csv
from .pvmodel import STC, ArrayConfig, CellParams, PVArray, derive_series_resistance
from .records import checked

__all__ = ["ConfigError", "ScenarioConfig", "load_scenario", "load_panel_preset"]


class ConfigError(Exception):
    """A scenario file failed to load or validate."""


@checked
class PanelPreset(NamedTuple):
    """Panel-level datasheet values at STC plus the series cell count."""

    cells_in_series: int
    i_sc_a: float
    v_oc_v: float
    alpha_per_k: float
    ideality_factor: float
    dv_di_oc_ohm: float

    def _check(self):
        if not self.cells_in_series >= 1:  # written so that NaN fails
            raise ValueError("cells_in_series must be >= 1")
        # CellParams checks each electrical value, and R_s > 0 (with I_0 at
        # STC) that they are consistent, so a bad preset fails at its file
        derive_series_resistance(self.cell_params())

    def cell_params(self) -> CellParams:
        n = self.cells_in_series
        return CellParams(
            i_sc_ref=self.i_sc_a,
            v_oc_ref=self.v_oc_v / n,
            alpha=self.alpha_per_k,
            n=self.ideality_factor,
            dv_di_oc=self.dv_di_oc_ohm / n,
        )


class ScenarioConfig(SimpleNamespace):
    """Everything needed to run one simulation, as load_scenario built and checked it.

    Every controller kind shares the plant (array, oracle and a converter
    whose duty range reaches the array's I-V curve at STC) and sim, whose
    initial_duty is a number: load_scenario resolves "auto" to one.
    Built by keyword; only output_dir may be reassigned, as the CLI's
    --out does.
    """

    array: PVArray
    oracle: MppOracle
    converter: BuckBoost
    controller_kind: str
    controller_params: ControllerParams
    profile_source: str  # "builtin-table1" or a CSV path
    profile: EnvProfile
    sim: SimConfig
    output_dir: Path

    # build_array and build_converter remain for bench/traced_pass.py
    def build_array(self) -> PVArray:
        return self.array

    def build_converter(self, array: PVArray, oracle: MppOracle) -> BuckBoost:
        """The converter load_scenario built; array and oracle are not used."""
        return self.converter

    def build_controller(self, initial_duty: float, kind: str) -> MpptController:
        return MpptController(kind, self.controller_params, initial_duty)


def _index_key_lines(node: Any, prefix: str, out: dict[str, int], source: Path | str) -> None:
    if not isinstance(node, yaml.MappingNode):
        return
    for key_node, value_node in node.value:
        path = f"{prefix}.{key_node.value}" if prefix else str(key_node.value)
        if path in out:
            raise ConfigError(f"{source}:{key_node.start_mark.line + 1}: {path}: duplicate key")
        out[path] = key_node.start_mark.line + 1
        if not prefix:  # the schema is two levels deep: no alias is followed further
            _index_key_lines(value_node, path, out, source)


_KIND_NAMES = {float: "a number", int: "an integer", str: "a string", dict: "a mapping"}


class _Section:
    """A mapping section of the file, with line-aware error reporting."""

    def __init__(self, data: dict, lines: dict[str, int], file: Path | str, prefix: str = ""):
        self.data = data
        self.lines = lines
        self.file = file
        self.prefix = prefix

    def _path(self, key: str) -> str:
        return f"{self.prefix}.{key}" if self.prefix else key

    def error(self, key: str | None, message: str) -> ConfigError:
        """Error at key, or at the section itself when key is None."""
        path = self.prefix if key is None else self._path(key)
        located = path  # the nearest of the key and its ancestors that is in the file
        while located and located not in self.lines:
            located = located.rpartition(".")[0]
        where = f"{self.file}:{self.lines[located]}" if located else str(self.file)
        return ConfigError(f"{where}: {path}: {message}" if path else f"{where}: {message}")

    def read(self, key: str, kind: Any, default: Any = None) -> Any:
        """The value at key, or default when the key is absent, checked against kind.

        kind is float, int, str or dict, or a union of one of them with
        None or str, as in a field annotation: a None or str value passes
        when the union names its type.  A float is any finite int or
        float, and is returned as a float.  A bool is never a number.
        """
        if key not in self.data:
            return default
        value = self.data[key]
        kinds = get_args(kind) or (kind,)
        if (value is None and type(None) in kinds) or (isinstance(value, str) and str in kinds):
            return value
        base = kinds[0]
        allowed = (int, float) if base is float else base
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise self.error(key, f"expected {_KIND_NAMES[base]}, got {value!r}")
        if base is not float:
            return value
        if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int too large for a float
            raise self.error(key, f"expected a finite float, got {value!r}")
        return float(value)

    def section(self, key: str) -> "_Section":
        """The mapping at key; an absent or null one is empty."""
        value = self.read(key, dict | None) or {}
        return _Section(value, self.lines, self.file, self._path(key))

    def reject_unknown(self, known: set[str]) -> None:
        for key in self.data:
            if key not in known:
                raise self.error(key, "unknown field")

    def build(self, cls: type, extra: tuple[str, ...] = (), **fixed: Any) -> Any:
        """The record cls, a NamedTuple, from this section.

        Known keys: the names of the fields of cls not given in fixed,
        plus extra, which the caller reads.  A value is checked against
        its field's annotation; an absent key leaves the default of cls.
        A ValueError from cls, such as the _check that records.checked
        runs, is reported at the first key, in file order, that it names
        as a whole word.
        """
        hints = get_type_hints(cls)
        keys = [key for key in cls._fields if key not in fixed]
        self.reject_unknown({*keys, *extra})
        values = dict(fixed)
        for key in keys:
            if key in self.data:
                values[key] = self.read(key, hints[key])
            elif key not in cls._field_defaults:
                raise self.error(key, "required value is missing")
        try:
            return cls(**values)
        except ValueError as exc:
            named = (key for key in self.data if key in keys and re.search(rf"\b{key}\b", str(exc)))
            raise self.error(next(named, None), str(exc)) from None


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads 1e-2 and 1.0e2, which YAML 1.1 leaves as strings, as floats."""


_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$")
_Loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+.0123456789"))


def _root(text: str, source: Path | str) -> _Section:
    """The top-level mapping of a YAML document, with the line of each key."""
    loader = _Loader(text)  # one parse gives both the nodes and the data
    lines: dict[str, int] = {}
    try:
        node = loader.get_single_node()
        _index_key_lines(node, "", lines, source)  # before construction merges in << keys
        data = None if node is None else loader.construct_document(node)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: YAML parse error: {exc}") from None
    finally:
        loader.dispose()
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    return _Section(data, lines, source)


def load_panel_preset(name_or_path: str, directory: Path = Path()) -> PanelPreset:
    """Load a preset by bundled name (e.g. bp_sx150) or from a YAML path.

    A relative path is taken from directory.
    """
    if Path(name_or_path).suffix in (".yaml", ".yml"):
        path = directory / name_or_path
        if not path.is_file():
            raise ConfigError(f"panel preset file not found: {path}")
        return _root(path.read_text(), path).build(PanelPreset)
    ref = resources.files("mpptbench").joinpath(f"data/{name_or_path}.yaml")
    if not ref.is_file():
        raise ConfigError(f"unknown panel preset {name_or_path!r}")
    return _root(ref.read_text(), f"preset {name_or_path}").build(PanelPreset)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario YAML file, and build its plant.

    Relative preset and profile paths are taken from the file's directory.
    The oracle comes back holding the MPP of every distinct profile
    condition; one whose MPP does not solve fails at profile, with the
    segment it starts.  Last, the lowest panel voltage,
    v_bus * (1 - d_max) / d_max, must lie below V_oc at STC.  An auto
    v_bus and initial_duty come back as numbers.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    root = _root(path.read_text(), path)
    root.reject_unknown(
        {"panel", "array", "converter", "controller", "profile", "sim", "output_dir"}
    )

    panel_name = root.read("panel", str | None)
    if panel_name is None:
        raise root.error("panel", "scenario needs a panel preset name or preset file path")
    try:
        preset = load_panel_preset(panel_name, path.parent)
    except ConfigError as exc:
        raise root.error("panel", str(exc)) from None

    arr = root.section("array")
    arr.reject_unknown({"panels_series", "panels_parallel"})
    panels_series = arr.read("panels_series", int, 1)
    if panels_series < 1:
        raise arr.error("panels_series", "must be >= 1")
    panels_parallel = arr.read("panels_parallel", int, 1)
    if panels_parallel < 1:
        raise arr.error("panels_parallel", "must be >= 1")

    conv = root.section("converter")
    conv.reject_unknown({"v_bus", "d_min", "d_max"})
    v_bus = conv.read("v_bus", float | str, "auto")
    if v_bus != "auto" and (isinstance(v_bus, str) or not v_bus > 0):
        raise conv.error("v_bus", f'must be a number > 0 or "auto", got {v_bus!r}')
    d_min = conv.read("d_min", float, BuckBoost.d_min)
    d_max = conv.read("d_max", float, BuckBoost.d_max)
    if not (0.0 < d_min < d_max < 1.0):
        raise conv.error("d_min", "need 0 < d_min < d_max < 1")

    ctrl = root.section("controller")
    # the adaptive bound's floor is not a key; ControllerParams.delta_d_max_floor is the
    # field's accessor, not its default
    floor = ControllerParams._field_defaults["delta_d_max_floor"]
    controller_params = ctrl.build(
        ControllerParams, extra=("kind",), d_min=d_min, d_max=d_max, delta_d_max_floor=floor
    )
    kind = ctrl.read("kind", str, "revised-adaptive-bound")
    if kind not in CONTROLLER_KINDS:
        raise ctrl.error("kind", f"must be one of {', '.join(CONTROLLER_KINDS)}")

    source = root.read("profile", str, "builtin-table1")
    if source == "builtin-table1":
        profile = builtin_table1_profile()
    else:
        csv_path = path.parent / source
        if not csv_path.exists():
            raise root.error("profile", f"profile CSV not found: {csv_path}")
        try:
            profile = load_profile_csv(csv_path)
        except ValueError as exc:
            raise root.error("profile", str(exc)) from None
    layout = ArrayConfig(preset.cells_in_series * panels_series, panels_parallel)
    array = PVArray(preset.cell_params(), layout)  # memoizes each distinct (g, t)
    oracle = MppOracle(array)
    try:
        for env in dict.fromkeys(env for _, env in profile.segments):  # each condition once
            oracle.find(env)  # the model's checks at env, then the MPP's solve
    except ValueError as exc:
        start = next(start for start, at in profile.segments if at == env)
        raise root.error(
            "profile", f"the segment from t = {start} s at T = {env.t} K: {exc}"
        ) from None

    sim_sec = root.section("sim")
    sim = sim_sec.build(SimConfig)
    if sim.duration_s is None and profile.duration is None:
        raise sim_sec.error(
            "duration_s",
            f"required with a CSV profile, which has no end time of its own: {source}",
        )
    if sim.initial_duty != "auto" and not d_min <= sim.initial_duty <= d_max:
        # the converter would clamp it, so the first two samples coincide
        raise sim_sec.error(
            "initial_duty", f"must lie in the converter's duty range [{d_min}, {d_max}]"
        )

    output_dir = root.read("output_dir", str, "out")

    if v_bus == "auto":  # the STC MPP sits at duty 0.5
        v_bus = oracle.find(STC).v_mpp
    converter = BuckBoost(v_bus=v_bus, d_min=d_min, d_max=d_max)
    v_lowest = converter.terminal_voltage(d_max)
    v_oc = array.open_circuit_voltage(STC)
    if not v_lowest < v_oc:
        raise conv.error(
            "d_max",
            f"{d_max} gives panel voltages of {v_lowest:.6g} V and above on a {v_bus:.6g} V "
            f"bus, none below the array's open-circuit voltage at STC, {v_oc:.6g} V",
        )
    d0 = resolve_initial_duty(sim, converter, oracle, profile.env_at(0.0))

    return ScenarioConfig(
        array=array,
        oracle=oracle,
        converter=converter,
        controller_kind=kind,
        controller_params=controller_params,
        profile_source=source,
        profile=profile,
        sim=sim._replace(initial_duty=d0),
        output_dir=Path(output_dir),
    )
