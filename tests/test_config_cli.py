"""Scenario loading, validation messages, and the command-line surface."""

from __future__ import annotations

import csv
import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from mpptbench import oracle as oracle_module
from mpptbench.cli import main
from mpptbench.config import ConfigError, PanelPreset, load_panel_preset, load_scenario
from mpptbench.controllers import ControllerParams
from mpptbench.harness import (
    SimConfig,
    compute_metrics,
    format_metrics,
    resolve_initial_duty,
    run_simulation,
    write_trace_csv,
)
from mpptbench.oracle import MppOracle

REPO = Path(__file__).resolve().parent.parent
REPO_CONFIGS = sorted(REPO.glob("configs/*.yaml"))


def write_scenario(tmp_path: Path, body: str) -> Path:
    path = tmp_path / "scenario.yaml"
    path.write_text(body)
    return path


MINIMAL = """\
panel: bp_sx150
controller:
  kind: revised-adaptive-bound
profile: builtin-table1
sim:
  duration_s: 0.05
output_dir: {out}
"""


class TestPreset:
    def test_bundled_preset_loads(self):
        preset = load_panel_preset("bp_sx150")
        assert preset.cells_in_series == 72
        assert preset.i_sc_a == 4.75
        assert preset.v_oc_v == 43.5

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown panel preset"):
            load_panel_preset("acme_9000")

    def test_cell_params_are_per_cell(self):
        preset = load_panel_preset("bp_sx150")
        cell = preset.cell_params()
        assert cell.v_oc_ref == pytest.approx(43.5 / 72)
        assert cell.dv_di_oc == pytest.approx(-1.10 / 72)


class TestScenarioLoading:
    @pytest.mark.parametrize("path", REPO_CONFIGS, ids=lambda p: p.name)
    def test_repository_examples_load(self, path):
        scenario = load_scenario(path)
        assert scenario.controller_params.epsilon > 0

    def test_minimal_scenario(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "o")))
        assert sc.controller_kind == "revised-adaptive-bound"
        assert sc.v_bus == "auto"
        assert sc.sim.duration == 0.05

    def test_inline_cell(self, tmp_path):
        body = """\
cell:
  cells_in_series: 36
  i_sc_a: 8.2
  v_oc_v: 22.1
  alpha_per_k: 0.0005
  ideality_factor: 1.2
  dv_di_oc_ohm: -0.6
controller:
  kind: conventional
profile: builtin-table1
"""
        sc = load_scenario(write_scenario(tmp_path, body))
        assert sc.preset.cells_in_series == 36
        cell = sc.preset.cell_params()
        assert cell.i_sc_ref == 8.2

    def test_invalid_controller_field_names_field_and_line(self, tmp_path):
        body = """\
panel: bp_sx150
controller:
  kind: revised-adaptive-bound
  acc: 0.9
profile: builtin-table1
"""
        path = write_scenario(tmp_path, body)
        with pytest.raises(ConfigError) as err:
            load_scenario(path)
        message = str(err.value)
        assert "acc" in message
        assert "scenario.yaml:" in message

    def test_unknown_field_rejected_with_location(self, tmp_path):
        body = """\
panel: bp_sx150
controller:
  kind: conventional
  momentum: 0.9
profile: builtin-table1
"""
        with pytest.raises(ConfigError, match=r"controller\.momentum: unknown field"):
            load_scenario(write_scenario(tmp_path, body))

    def test_bad_kind_lists_choices(self, tmp_path):
        body = "panel: bp_sx150\ncontroller:\n  kind: fuzzy\nprofile: builtin-table1\n"
        with pytest.raises(ConfigError, match="controller.kind"):
            load_scenario(write_scenario(tmp_path, body))

    def test_missing_profile_csv_names_path(self, tmp_path):
        body = "panel: bp_sx150\nprofile: missing/cloud.csv\n"
        with pytest.raises(ConfigError, match="cloud.csv"):
            load_scenario(write_scenario(tmp_path, body))

    def test_panel_and_inline_cell_conflict(self, tmp_path):
        body = """\
panel: bp_sx150
cell:
  cells_in_series: 36
  i_sc_a: 8.2
  v_oc_v: 22.1
  alpha_per_k: 0.0005
  ideality_factor: 1.2
  dv_di_oc_ohm: -0.6
profile: builtin-table1
"""
        with pytest.raises(ConfigError, match="not both"):
            load_scenario(write_scenario(tmp_path, body))

    def test_bad_converter_clamps(self, tmp_path):
        body = "panel: bp_sx150\nconverter:\n  d_min: 0.9\n  d_max: 0.1\n"
        with pytest.raises(ConfigError, match="d_min"):
            load_scenario(write_scenario(tmp_path, body))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")

    def test_readme_scenario_block_shows_the_defaults(self, tmp_path):
        readme = (REPO / "README.md").read_text()
        section = readme.split("## Scenario configuration", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        shown = load_scenario(write_scenario(tmp_path, block))
        minimal = load_scenario(
            write_scenario(tmp_path, "panel: bp_sx150\nsim:\n  duration_s: 5.0\n")
        )
        assert shown.controller_params == minimal.controller_params
        assert shown.sim == minimal.sim
        assert shown == minimal


INLINE_CELL = """\
cell:
  cells_in_series: 36
  i_sc_a: 8.2
  v_oc_v: 22.1
  alpha_per_k: 0.0005
  ideality_factor: 1.2
  dv_di_oc_ohm: -0.6
profile: builtin-table1
sim:
  duration_s: 0.05
output_dir: {out}
"""


class TestErrorAttribution:
    """A rejected value is reported at its own key and line, with exit 1."""

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("  kind: revised-adaptive-bound\n",
             "  kind: revised-adaptive-bound\n  acc: 1.3\n  deacc: 1.5\n",
             "scenario.yaml:5: controller.deacc: "),
            ("  duration_s: 0.05\n", "  duration_s: 0.05\n  noise_i: -1\n",
             "scenario.yaml:7: sim.noise_i: "),
            ("  duration_s: 0.05\n", "  duration_s: 0.001\n",
             "scenario.yaml:6: sim.duration_s: "),
            ("  duration_s: 0.05\n", "  duration_s: 0.05\n  initial_duty: 0.02\n",
             "scenario.yaml:7: sim.initial_duty: "),
            ("profile:", "array:\n  panels_series: 0\nprofile:",
             "scenario.yaml:5: array.panels_series: must be >= 1"),
            ("profile:", "array:\n  panels_parallel: 0\nprofile:",
             "scenario.yaml:5: array.panels_parallel: must be >= 1"),
            ("profile:", "model:\n  solver_tolerance_a: 0.0\nprofile:",
             "scenario.yaml:5: model.solver_tolerance_a: must be > 0"),
            ("profile:", "model:\n  solver_max_iterations: 0\nprofile:",
             "scenario.yaml:5: model.solver_max_iterations: must be >= 1"),
            ("profile:", "model:\n  band_gap_denominator_sign: 2\nprofile:",
             "scenario.yaml:5: model.band_gap_denominator_sign: must be -1 or +1"),
            ("profile:", "converter:\n  v_bus: 0\nprofile:",
             "scenario.yaml:5: converter.v_bus: must be > 0"),
            ("profile:", "converter:\n  v_bus: true\nprofile:",
             'scenario.yaml:5: converter.v_bus: expected a voltage or "auto"'),
            ("profile:", "converter:\n  v_bus: fast\nprofile:",
             'scenario.yaml:5: converter.v_bus: expected a voltage or "auto"'),
            ("profile: builtin-table1", "profile: 5",
             "scenario.yaml:4: profile: expected 'builtin-table1' or a CSV path, got 5"),
            ("output_dir: {out}", "output_dir: 5",
             "scenario.yaml:7: output_dir: expected a path, got 5"),
        ],
        ids=["deacc", "noise_i", "duration_s", "initial_duty", "panels_series",
             "panels_parallel", "solver_tolerance_a", "solver_max_iterations",
             "band_gap_denominator_sign", "v_bus_zero", "v_bus_bool", "v_bus_string", "profile",
             "output_dir"],
    )
    def test_preset_scenario(self, tmp_path, capsys, old, new, where):
        body = MINIMAL.replace(old, new).format(out=tmp_path / "out")
        config = write_scenario(tmp_path, body)
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_scenario(config)
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("  dv_di_oc_ohm: -0.6\n", "  dv_di_oc_ohm: -0.6\n  r_p_ohm: abc\n",
             "scenario.yaml:8: cell.r_p_ohm: expected a number"),
            ("  dv_di_oc_ohm: -0.6\n", "  dv_di_oc_ohm: -0.6\n  r_p_ohm: true\n",
             "scenario.yaml:8: cell.r_p_ohm: expected a number, got True"),
            ("  i_sc_a: 8.2\n", "  i_sc_a: -8.2\n", "scenario.yaml:1: cell: i_sc_ref must be > 0"),
            ("  cells_in_series: 36\n", "  cells_in_series: 0\n",
             "scenario.yaml:2: cell.cells_in_series: "),
            ("  v_oc_v: 22.1\n", "", "scenario.yaml:1: cell.v_oc_v: required value is missing"),
        ],
        ids=["r_p_ohm", "r_p_ohm_bool", "i_sc_a", "cells_in_series", "missing_v_oc_v"],
    )
    def test_inline_cell(self, tmp_path, capsys, old, new, where):
        body = INLINE_CELL.format(out=tmp_path / "out").replace(old, new)
        config = write_scenario(tmp_path, body)
        with pytest.raises(ConfigError, match=where):
            load_scenario(config)
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("i_sc_a: 4.75", "i_sc_a: -4.75", "bad_panel.yaml: i_sc_ref must be > 0"),
            ("i_sc_a: 4.75", "i_sc_a: true",
             "bad_panel.yaml:3: i_sc_a: expected a number, got True"),
            ("cells_in_series: 72", "cells_in_series: 72.5",
             "bad_panel.yaml:2: cells_in_series: expected an integer, got 72.5"),
        ],
        ids=["i_sc_a", "i_sc_a_bool", "cells_in_series"],
    )
    def test_preset_file(self, tmp_path, capsys, old, new, where):
        preset = tmp_path / "bad_panel.yaml"
        preset.write_text(
            "name: bad\ncells_in_series: 72\ni_sc_a: 4.75\nv_oc_v: 43.5\n"
            "alpha_per_k: 0.00065\nideality_factor: 1.3\ndv_di_oc_ohm: -1.10\n"
            "rated_power_w: 150.0\n".replace(old, new)
        )
        body = MINIMAL.format(out=tmp_path / "out").replace("bp_sx150", str(preset))
        config = write_scenario(tmp_path, body)
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"scenario.yaml:1: panel: {preset.parent}/" in err and where in err

    def test_initial_duty_at_the_clamp_runs(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "  duration_s: 0.05\n", "  duration_s: 0.05\n  initial_duty: 0.05\n"
        )
        assert main(["run", "--config", str(write_scenario(tmp_path, body)), "--quiet"]) == 0

    def test_numeric_v_bus_runs(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "profile:", "converter:\n  v_bus: 40.0\nprofile:"
        )
        config = write_scenario(tmp_path, body)
        assert load_scenario(config).v_bus == 40.0
        assert main(["run", "--config", str(config), "--quiet"]) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        d = float(rows[0]["d"])
        assert float(rows[0]["v_v"]) == 40.0 * (1.0 - d) / d


def _settable_defaults(section, attr, cls, rename=None, fixed=()):
    rename = rename or {}
    return [
        pytest.param(section, attr, rename.get(f.name, f.name), f.default,
                     id=f"{section}.{rename.get(f.name, f.name)}")
        for f in dataclasses.fields(cls)
        if f.name not in fixed and f.default is not dataclasses.MISSING
    ]


SETTABLE_DEFAULTS = [
    *_settable_defaults(
        "controller", "controller_params", ControllerParams,
        fixed=("adaptive_upper_bound", "dv_dd_sign", "d_min", "d_max"),
    ),
    *_settable_defaults(
        "sim", "sim", SimConfig,
        rename={"control_interval": "control_interval_s", "duration": "duration_s"},
    ),
    *_settable_defaults("cell", "preset", PanelPreset),
    pytest.param("cell", "preset", "name", "inline", id="cell.name"),
    pytest.param("cell", "preset", "rated_power_w", 0.0, id="cell.rated_power_w"),
]


@pytest.mark.parametrize("section, attr, key, default", SETTABLE_DEFAULTS)
def test_writing_a_default_equals_omitting_it(tmp_path, section, attr, key, default):
    if section == "cell":
        base = INLINE_CELL.format(out="out")
        with_key = base.replace("cell:\n", f"cell:\n  {yaml.safe_dump({key: default})}", 1)
    else:
        base = "panel: bp_sx150\n"
        with_key = f"{base}{section}:\n  {yaml.safe_dump({key: default})}"
    omitted = getattr(load_scenario(write_scenario(tmp_path, base)), attr)
    written = getattr(load_scenario(write_scenario(tmp_path, with_key)), attr)
    assert written == omitted


class TestCli:
    def test_run_writes_trace_and_metrics(self, tmp_path):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["run", "--config", str(config), "--quiet"]) == 0
        rows = list(csv.reader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert len(rows) == 1 + 5  # header + 0.05 s at 10 ms
        assert (tmp_path / "out" / "metrics.txt").read_text().startswith("energy_deficit_j:")

    def test_run_single_row_when_duration_equals_interval(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "duration_s: 0.05", "duration_s: 0.01"
        )
        config = write_scenario(tmp_path, body)
        assert main(["run", "--config", str(config), "--quiet"]) == 0
        rows = list(csv.reader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert len(rows) == 2

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "nope.yaml" in capsys.readouterr().err

    def test_config_referencing_missing_profile_is_exit_1(self, tmp_path, capsys):
        body = "panel: bp_sx150\nprofile: gone.csv\n"
        config = write_scenario(tmp_path, body)
        assert main(["run", "--config", str(config)]) == 1
        assert "gone.csv" in capsys.readouterr().err

    def test_out_flag_overrides_config(self, tmp_path):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "ignored"))
        out = tmp_path / "elsewhere"
        assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert (out / "trace.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_profile_flag_overrides_config(self, tmp_path):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        toy = tmp_path / "toy.csv"
        toy.write_text("time_s,irradiance_w_m2,temperature_c\n0.0,500,25\n")
        assert main(
            ["run", "--config", str(config), "--profile", str(toy), "--quiet"]
        ) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert float(rows[0]["g_w_m2"]) == 500.0

    TWO_ROW_CSV = "time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n1.0,200,25\n"

    def test_csv_profile_without_duration_is_exit_1(self, tmp_path, capsys):
        (tmp_path / "two.csv").write_text(self.TWO_ROW_CSV)
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "profile: builtin-table1", "profile: two.csv"
        ).replace("  duration_s: 0.05\n", "  control_interval_s: 0.01\n")
        config = write_scenario(tmp_path, body)
        with pytest.raises(ConfigError, match=r"sim\.duration_s"):
            load_scenario(config)
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sim.duration_s" in err
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_error_for_a_key_absent_with_its_section_has_no_line(self, tmp_path, capsys):
        (tmp_path / "two.csv").write_text(self.TWO_ROW_CSV)
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "profile: builtin-table1", "profile: two.csv"
        ).replace("sim:\n  duration_s: 0.05\n", "")
        config = write_scenario(tmp_path, body)
        with pytest.raises(ConfigError) as excinfo:
            load_scenario(config)
        assert str(excinfo.value).startswith(f"{config}: sim.duration_s: ")
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "sim.duration_s" in err and ":0:" not in err

    def test_profile_flag_without_duration_is_exit_1(self, tmp_path, capsys):
        two = tmp_path / "two.csv"
        two.write_text(self.TWO_ROW_CSV)
        body = MINIMAL.format(out=tmp_path / "out").replace("  duration_s: 0.05\n", "")
        config = write_scenario(tmp_path, body)
        assert main(["run", "--config", str(config), "--profile", str(two), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sim.duration_s" in err
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_dark_first_row_starts_at_half_duty(self, tmp_path):
        dark = tmp_path / "dark.csv"
        dark.write_text("time_s,irradiance_w_m2,temperature_c\n0.0,0,25\n0.05,800,25\n")
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "profile: builtin-table1", "profile: dark.csv"
        ).replace("duration_s: 0.05", "duration_s: 0.1")
        config = write_scenario(tmp_path, body)
        assert load_scenario(config).sim.initial_duty == "auto"
        assert main(["run", "--config", str(config), "--quiet"]) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert len(rows) == 10
        assert float(rows[0]["g_w_m2"]) == 0.0 and float(rows[0]["d"]) == 0.5

    def test_csv_profile_runs_its_last_segment(self, tmp_path):
        two = tmp_path / "two.csv"
        two.write_text(self.TWO_ROW_CSV)
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "duration_s: 0.05", "duration_s: 1.5"
        )
        config = write_scenario(tmp_path, body)
        assert main(["run", "--config", str(config), "--profile", str(two), "--quiet"]) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert len(rows) == 150
        assert {float(r["g_w_m2"]) for r in rows[100:]} == {200.0}

    def test_oracle_command(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        code = main(
            ["oracle", "--config", str(config), "--g", "1000", "--temp", "25",
             "--quiet"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        p_mpp = float(printed.split("p_mpp_w:")[1].strip().splitlines()[0])
        assert 142.5 <= p_mpp <= 157.5
        rows = list(csv.DictReader((tmp_path / "out" / "pv_curve.csv").read_text().splitlines()))
        volts = [float(r["voltage_v"]) for r in rows]
        powers = [float(r["power_w"]) for r in rows]
        assert volts == sorted(volts)
        rising_falling = [powers[k + 1] - powers[k] for k in range(len(powers) - 1)]
        flips = sum(
            1
            for a, b in zip(rising_falling, rising_falling[1:])
            if (a > 0) != (b > 0)
        )
        assert flips == 1  # unimodal power curve

    def test_oracle_zero_irradiance(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(
            ["oracle", "--config", str(config), "--g", "0", "--temp", "25", "--quiet"]
        ) == 0
        assert "p_mpp_w: 0" in capsys.readouterr().out

    def test_compare_writes_three_traces_and_report(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "duration_s: 0.05", "duration_s: 0.3"
        )
        config = write_scenario(tmp_path, body)
        assert main(["compare", "--config", str(config), "--quiet"]) == 0
        out = tmp_path / "out"
        for name in (
            "trace_conventional.csv",
            "trace_revised_fixed.csv",
            "trace_revised_adaptive.csv",
            "comparison.txt",
        ):
            assert (out / name).exists()
        report = (out / "comparison.txt").read_text()
        assert "== orderings ==" in report
        assert "energy_deficit(conventional) > energy_deficit(revised-adaptive)" in report

    def test_one_step_run_integrates_over_its_control_interval(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "  duration_s: 0.05\n", "  duration_s: 0.1\n  control_interval_s: 0.1\n"
        )
        config = write_scenario(tmp_path, body)
        assert main(["run", "--config", str(config), "--quiet"]) == 0
        [row] = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        p_deviation = float(row["p_deviation_w"])
        assert p_deviation > 0
        report = (tmp_path / "out" / "metrics.txt").read_text()
        assert f"energy_deficit_j: {p_deviation * 0.1:.6g}\n" in report

    def test_default_table1_run_has_500_rows(self, tmp_path):
        repo_config = Path(__file__).resolve().parent.parent / "configs" / "table1_adaptive.yaml"
        out = tmp_path / "out"
        assert main(["run", "--config", str(repo_config), "--out", str(out), "--quiet"]) == 0
        rows = list(csv.reader((out / "trace.csv").read_text().splitlines()))
        assert len(rows) == 1 + 500  # 5.0 s at 10 ms

    def test_degenerate_first_samples_are_exit_2(self, tmp_path, capsys):
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "  kind: revised-adaptive-bound\n",
            "  kind: conventional\n  delta_d_nominal: 1.0e-12\n",
        )
        config = write_scenario(tmp_path, body)
        assert main(["run", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "degenerate" in err
        assert "Traceback" not in err

    def test_invalid_environment_is_exit_2(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        code = main(["oracle", "--config", str(config), "--g", "-5", "--temp", "25"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCompareSharesOneOracle:
    """compare runs every kind on one array and one oracle; outputs must not notice."""

    @pytest.mark.parametrize("path", REPO_CONFIGS, ids=lambda p: p.name)
    def test_outputs_equal_a_fresh_oracle_per_kind(self, path, tmp_path):
        out = tmp_path / "compare"
        assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        scenario = load_scenario(path)
        report = (out / "comparison.txt").read_text()
        for kind, name in (
            ("conventional", "trace_conventional.csv"),
            ("revised-fixed-bound", "trace_revised_fixed.csv"),
            ("revised-adaptive-bound", "trace_revised_adaptive.csv"),
        ):
            array = scenario.build_array()
            oracle = MppOracle(array)
            converter = scenario.build_converter(array, oracle)
            env0 = scenario.profile.env_at(0.0)
            d0 = resolve_initial_duty(scenario.sim, converter, oracle, env0)
            controller = scenario.build_controller(d0, kind)
            trace = run_simulation(
                array, converter, controller, scenario.profile, scenario.sim, oracle
            )
            write_trace_csv(trace, tmp_path / name)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
            block = f"== {kind} ==\n{format_metrics(compute_metrics(trace))}"
            assert block in report

    def test_table1_sweeps_each_condition_once(self, tmp_path, monkeypatch):
        calls = []
        find_mpp = oracle_module.find_mpp

        def counting_find_mpp(*args, **kwargs):
            calls.append(args[1])
            return find_mpp(*args, **kwargs)

        monkeypatch.setattr(oracle_module, "find_mpp", counting_find_mpp)
        config = Path(__file__).resolve().parent.parent / "configs" / "table1_adaptive.yaml"
        assert main(["compare", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
        assert len(calls) == 15  # 15 distinct conditions, not 15 per controller
        assert len(set(calls)) == 15
