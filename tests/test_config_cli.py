"""Scenario loading, validation messages, and the command-line surface."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import re
from pathlib import Path

import pytest
import yaml

from mpptbench import controllers
from mpptbench import oracle as oracle_module
from mpptbench.cli import _build_parser, main
from mpptbench.config import ConfigError, load_panel_preset, load_scenario
from mpptbench.controllers import ControllerParams
from mpptbench.harness import (
    SimConfig,
    compute_metrics,
    format_metrics,
    resolve_initial_duty,
    run_simulation,
    write_trace_csv,
)
from mpptbench.oracle import GRID_POINTS, MppOracle
from mpptbench.pvmodel import PVArray

REPO = Path(__file__).resolve().parent.parent
REPO_CONFIGS = sorted(REPO.glob("configs/*.yaml"))


def write_scenario(tmp_path: Path, body: str) -> Path:
    path = tmp_path / "scenario.yaml"
    path.write_text(body)
    return path


PANEL_FILE = """\
cells_in_series: 36
i_sc_a: 8.2
v_oc_v: 22.1
alpha_per_k: 0.0005
ideality_factor: 1.2
dv_di_oc_ohm: -0.6
# rated 130 W at STC
"""

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
        assert sc.sim.duration_s == 0.05

    def test_preset_file_by_path(self, tmp_path):
        preset = tmp_path / "my_panel.yaml"
        preset.write_text(PANEL_FILE)
        body = f"panel: {preset}\ncontroller:\n  kind: conventional\nprofile: builtin-table1\n"
        sc = load_scenario(write_scenario(tmp_path, body))
        assert sc.preset.cells_in_series == 36
        cell = sc.preset.cell_params()
        assert cell.i_sc_ref == 8.2

    def test_relative_preset_path_is_taken_from_the_scenario_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "pp").mkdir()
        (tmp_path / "pp" / "my_panel.yaml").write_text(PANEL_FILE)
        body = MINIMAL.format(out=tmp_path / "out").replace("bp_sx150", "my_panel.yaml")
        (tmp_path / "pp" / "s.yaml").write_text(body)
        (tmp_path / "pp" / "gone.yaml").write_text(body.replace("my_panel", "missing"))
        monkeypatch.chdir(tmp_path)
        assert load_scenario("pp/s.yaml").preset.cells_in_series == 36
        assert main(["run", "--config", "pp/s.yaml", "--quiet"]) == 0
        assert main(["run", "--config", "pp/gone.yaml", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "pp/gone.yaml:1: panel: panel preset file not found: pp/missing.yaml" in err

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

    def test_cell_section_is_not_a_panel(self, tmp_path):
        body = "cell:\n  cells_in_series: 36\nprofile: builtin-table1\n"
        with pytest.raises(ConfigError, match=r"scenario\.yaml:1: cell: unknown field"):
            load_scenario(write_scenario(tmp_path, body))

    def test_scenario_without_panel_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"scenario\.yaml: panel: scenario needs a panel"):
            load_scenario(write_scenario(tmp_path, "profile: builtin-table1\n"))

    def test_bad_converter_clamps(self, tmp_path):
        body = "panel: bp_sx150\nconverter:\n  d_min: 0.9\n  d_max: 0.1\n"
        with pytest.raises(ConfigError, match="d_min"):
            load_scenario(write_scenario(tmp_path, body))

    def test_null_section_loads_the_defaults(self, tmp_path):
        null = load_scenario(write_scenario(tmp_path, "panel: bp_sx150\narray:\n"))
        assert (null.panels_series, null.panels_parallel) == (1, 1)

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
            ("profile:", "converter:\n  v_bus: 0\nprofile:",
             "scenario.yaml:5: converter.v_bus: must be > 0"),
            ("profile:", "converter:\n  v_bus: true\nprofile:",
             "scenario.yaml:5: converter.v_bus: expected a number, got True"),
            ("profile:", "converter:\n  v_bus: fast\nprofile:",
             "scenario.yaml:5: converter.v_bus: expected a number, got 'fast'"),
            ("profile: builtin-table1", "profile: 5",
             "scenario.yaml:4: profile: expected a string, got 5"),
            ("output_dir: {out}", "output_dir: 5",
             "scenario.yaml:7: output_dir: expected a string, got 5"),
            ("panel: bp_sx150", "panel: 5", "scenario.yaml:1: panel: expected a string, got 5"),
            ("  kind: revised-adaptive-bound", "  kind: 5",
             "scenario.yaml:3: controller.kind: expected a string, got 5"),
            ("profile:", "array: 5\nprofile:", "scenario.yaml:4: array: expected a mapping, got 5"),
            ("  duration_s: 0.05\n", "  duration_s: 0.05\n  initial_voltage_fraction: 2.0\n",
             "scenario.yaml:7: sim.initial_voltage_fraction: "
             "initial_voltage_fraction must be in (0, 1.5]"),
            # the solver settings and band-gap form are constants, not keys
            ("profile:", "model:\nprofile:", "scenario.yaml:4: model: unknown field"),
            ("profile:", "model:\n  band_gap_denominator_sign: -1\nprofile:",
             "scenario.yaml:4: model: unknown field"),
            ("profile:", "model:\n  solver_tolerance_a: 1.0e-9\nprofile:",
             "scenario.yaml:4: model: unknown field"),
            ("profile:", "model:\n  solver_max_iterations: 100\nprofile:",
             "scenario.yaml:4: model: unknown field"),
        ],
        ids=["deacc", "noise_i", "duration_s", "initial_duty", "panels_series",
             "panels_parallel", "v_bus_zero", "v_bus_bool", "v_bus_string", "profile",
             "output_dir", "panel", "controller.kind", "array", "initial_voltage_fraction",
             "removed_model", "removed_model.band_gap_denominator_sign",
             "removed_model.solver_tolerance_a", "removed_model.solver_max_iterations"],
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
        "body, where",
        [
            ("panel: [bp_sx150\n", "scenario.yaml: YAML parse error: "),
            ("- panel\n- bp_sx150\n", "scenario.yaml: top level must be a mapping"),
            ("", "scenario.yaml: panel: scenario needs a panel preset name or preset file path"),
        ],
        ids=["parse_error", "top_level_list", "empty_file"],
    )
    def test_document_that_is_no_scenario(self, tmp_path, capsys, body, where):
        config = write_scenario(tmp_path, body)
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_scenario(config)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("i_sc_a: 4.75", "i_sc_a: -4.75", "bad_panel.yaml: i_sc_ref must be > 0"),
            ("i_sc_a: 4.75", "i_sc_a: true",
             "bad_panel.yaml:3: i_sc_a: expected a number, got True"),
            ("cells_in_series: 72", "cells_in_series: 72.5",
             "bad_panel.yaml:2: cells_in_series: expected an integer, got 72.5"),
            ("cells_in_series: 72", "cells_in_series: 0",
             "bad_panel.yaml:2: cells_in_series: cells_in_series must be >= 1"),
            ("v_oc_v: 43.5\n", "", "bad_panel.yaml: v_oc_v: required value is missing"),
            ("v_oc_v: 43.5", "v_oc_v: -1", "bad_panel.yaml: v_oc_ref must be > 0"),
            # the cell model has no shunt resistance
            ("# rated 150 W", "# rated 150 W\nr_p_ohm: 1000.0",
             "bad_panel.yaml:9: r_p_ohm: unknown field"),
            # the reference condition is STC, and a bundled preset is named by its file
            ("# rated 150 W", "# rated 150 W\nt_ref_k: 298.0",
             "bad_panel.yaml:9: t_ref_k: unknown field"),
            ("# rated 150 W", "# rated 150 W\ng_ref_w_m2: 1000.0",
             "bad_panel.yaml:9: g_ref_w_m2: unknown field"),
            ("# bad panel", "name: bad",
             "bad_panel.yaml:1: name: unknown field"),
            # no program code reads the rating
            ("# rated 150 W", "rated_power_w: 150.0",
             "bad_panel.yaml:8: rated_power_w: unknown field"),
            # values that each pass their own check but give no cell: R_s < 0 ...
            ("dv_di_oc_ohm: -1.10", "dv_di_oc_ohm: -0.001",
             "bad_panel.yaml: derived series resistance is -7.012e-03 ohm, not > 0"),
            # ... and 43.5 V across one cell, whose I_0 underflows exp's range
            ("cells_in_series: 72", "cells_in_series: 1",
             "bad_panel.yaml: saturation-current exponent 1303.5 exceeds 700.0"),
        ],
        ids=["i_sc_a", "i_sc_a_bool", "cells_in_series", "cells_in_series_zero",
             "missing_v_oc_v", "v_oc_v", "removed_r_p_ohm", "removed_t_ref_k", "removed_g_ref_w_m2",
             "removed_name", "removed_rated_power_w", "inconsistent_negative_r_s",
             "inconsistent_i_0_overflow"],
    )
    def test_preset_file(self, tmp_path, capsys, old, new, where):
        preset = tmp_path / "bad_panel.yaml"
        preset.write_text(
            "# bad panel\ncells_in_series: 72\ni_sc_a: 4.75\nv_oc_v: 43.5\n"
            "alpha_per_k: 0.00065\nideality_factor: 1.3\ndv_di_oc_ohm: -1.10\n"
            "# rated 150 W\n".replace(old, new)
        )
        body = MINIMAL.format(out=tmp_path / "out").replace("bp_sx150", str(preset))
        config = write_scenario(tmp_path, body)
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"scenario.yaml:1: panel: {preset.parent}/" in err and where in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("  kind: revised-adaptive-bound\n",
             "  kind: revised-adaptive-bound\n  epsilon: .nan\n",
             "scenario.yaml:4: controller.epsilon: expected a finite float, got nan"),
            ("  duration_s: 0.05\n", "  duration_s: 0.05\n  noise_v: .nan\n",
             "scenario.yaml:7: sim.noise_v: expected a finite float, got nan"),
            ("  duration_s: 0.05\n", "  duration_s: 0.05\n  control_interval_s: .nan\n",
             "scenario.yaml:7: sim.control_interval_s: expected a finite float, got nan"),
            ("profile:", "converter:\n  v_bus: .inf\nprofile:",
             "scenario.yaml:5: converter.v_bus: expected a finite float, got inf"),
            ("  kind: revised-adaptive-bound\n",
             f"  kind: revised-adaptive-bound\n  acc: {10**400}\n",
             f"scenario.yaml:4: controller.acc: expected a finite float, got {10**400}"),
            ("bp_sx150", "{preset}", "my_panel.yaml:2: i_sc_a: expected a finite float, got nan"),
        ],
        ids=["controller.epsilon", "sim.noise_v", "sim.control_interval_s", "converter.v_bus",
             "controller.acc_too_large", "preset.i_sc_a"],
    )
    def test_non_finite_number_is_rejected_at_its_key(self, tmp_path, capsys, old, new, where):
        preset = tmp_path / "my_panel.yaml"
        preset.write_text(PANEL_FILE.replace("i_sc_a: 8.2", "i_sc_a: .nan"))
        body = MINIMAL.replace(old, new).format(out=tmp_path / "out", preset=preset)
        config = write_scenario(tmp_path, body)
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_scenario(config)
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "row, where",
        [
            ("0.5,nan,25", "rows.csv:3: expected finite numbers"),
            ("nan,800,25", "rows.csv:3: expected finite numbers"),
            ("0.5,-5,25", "rows.csv:3: irradiance g must be >= 0"),
            ("0.0,900,25", "rows.csv:3: segment start times must be strictly increasing"),
            ("0.5,800", "rows.csv:3: expected 3 columns, got 2"),
            # the band-gap form gives E_g <= 0 from 1108 K (835 degC) up
            ("0.5,800,900", "rows.csv:3: band gap at T = 1173.15 K is -13.67 eV, not > 0"),
        ],
        ids=["nan_irradiance", "nan_start", "negative_irradiance", "repeated_start",
             "two_columns", "band_gap_not_positive"],
    )
    def test_bad_profile_value_is_a_config_error_at_its_row(self, tmp_path, capsys, row, where):
        (tmp_path / "rows.csv").write_text(
            f"time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n{row}\n1.0,200,25\n"
        )
        body = MINIMAL.format(out=tmp_path / "out").replace("builtin-table1", "rows.csv")
        config = write_scenario(tmp_path, body)
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        assert f"scenario.yaml:4: profile: {tmp_path}/{where}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


def _settable_defaults(section, attr, cls, fixed=()):
    return [
        pytest.param(section, attr, f.name, f.default, id=f"{section}.{f.name}")
        for f in dataclasses.fields(cls)
        if f.name not in fixed and f.default is not dataclasses.MISSING
    ]


SETTABLE_DEFAULTS = [
    *_settable_defaults(
        "controller", "controller_params", ControllerParams, fixed=("d_min", "d_max")
    ),
    *_settable_defaults("sim", "sim", SimConfig),
]


@pytest.mark.parametrize("section, attr, key, default", SETTABLE_DEFAULTS)
def test_writing_a_default_equals_omitting_it(tmp_path, section, attr, key, default):
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "c.yaml", "--bogus"],
            ["run", "--config", "c.yaml", "--profile", "x.csv"],
            ["run"],
            [],
        ],
        ids=["unknown_flag", "removed_profile_flag", "no_config", "no_command"],
    )
    def test_usage_error_is_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage: mpptbench" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["top", "run"])
    def test_help_is_exit_0(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: mpptbench")

    def test_each_subcommand_has_its_reviewed_option_set(self):
        """A new flag must change this test, so it is reviewed."""
        [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: {flag for action in p._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        common = {"--config", "--out", "--quiet"}
        assert options == {"run": common, "compare": common, "oracle": common | {"--g", "--temp"}}

    def test_out_flag_overrides_config(self, tmp_path):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "ignored"))
        out = tmp_path / "elsewhere"
        assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert (out / "trace.csv").exists()
        assert not (tmp_path / "ignored").exists()

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

    def test_malformed_profile_is_a_config_error_at_its_key(
        self, tmp_path, monkeypatch, capsys
    ):
        """`profile:` is read from the scenario's directory, not the working directory."""
        (tmp_path / "pp").mkdir()
        for csv_path in (tmp_path / "bad.csv", tmp_path / "pp" / "bad.csv"):
            csv_path.write_text("t,g,temp_c\n0.0,1000,25\n")
        body = MINIMAL.format(out=tmp_path / "out")
        (tmp_path / "pp" / "named.yaml").write_text(body.replace("builtin-table1", "bad.csv"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "pp/named.yaml", "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: pp/named.yaml:4: profile: pp/bad.csv: expected header"
        )
        assert not (tmp_path / "out").exists()

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
        (tmp_path / "two.csv").write_text(self.TWO_ROW_CSV)
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "duration_s: 0.05", "duration_s: 1.5"
        )
        config = write_scenario(tmp_path, body.replace("builtin-table1", "two.csv"))
        assert main(["run", "--config", str(config), "--quiet"]) == 0
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
        assert len(rows) == GRID_POINTS
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

    def test_oracle_command_sweeps_the_curve_once(self, tmp_path, monkeypatch):
        """The printed MPP is refined on the curve the command writes."""
        array_calls = []
        current_at = PVArray.current_at

        def counting_current_at(self, v, env):
            if not isinstance(v, float):
                array_calls.append(len(v))
            return current_at(self, v, env)

        monkeypatch.setattr(PVArray, "current_at", counting_current_at)
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["oracle", "--config", str(config), "--quiet"]) == 0
        assert array_calls == [GRID_POINTS]

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

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_too_small_delta_d_nominal_is_a_config_error(self, tmp_path, capsys, command):
        """A seed step that cannot move the sample can never run."""
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "  kind: revised-adaptive-bound\n",
            "  kind: conventional\n  delta_d_nominal: 1.0e-12\n",
        )
        config = write_scenario(tmp_path, body)
        assert main([command, "--config", str(config), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: controller.delta_d_nominal is too small for this converter: "
            "the seed step moved the sample by dV="
        )
        assert re.search(r"dV=-?\d\.\d{3}e-\d+ V and dI=-?\d\.\d{3}e-\d+ A", err)
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_a_hold_on_the_first_secant_stays_held(self, tmp_path, command):
        """From this duty the revised controller's first secant passes the MPP test."""
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "  duration_s: 0.05\n", "  duration_s: 1.0\n  initial_duty: 0.50592\n"
        )
        config = write_scenario(tmp_path, body)
        assert main([command, "--config", str(config), "--quiet"]) == 0
        name = "trace.csv" if command == "run" else "trace_revised_adaptive.csv"
        rows = list(csv.DictReader((tmp_path / "out" / name).read_text().splitlines()))
        assert len(rows) == 100
        assert rows[1]["action"] == rows[2]["action"] == "held_at_mpp"

    def test_noise_that_clamps_the_measured_voltage_to_zero_runs(self, tmp_path):
        # +/-40 V of noise around a ~31 V operating point samples 0 V now and then
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "  duration_s: 0.05\n", "  duration_s: 1.0\n  noise_v: 40.0\n"
        )
        assert main(["run", "--config", str(write_scenario(tmp_path, body)), "--quiet"]) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert len(rows) == 100

    @pytest.mark.parametrize(
        "g, temp, message",
        [
            ("-5", "25", "--g -5.0 --temp 25.0: irradiance g must be >= 0"),
            ("nan", "25", "--g nan --temp 25.0: irradiance g must be >= 0"),
            ("1000", "-300", "--g 1000.0 --temp -300.0: temperature t must be > 0 K"),
            ("1000", "900",
             "--g 1000.0 --temp 900.0: band gap at T = 1173.15 K is -13.67 eV, not > 0"),
        ],
        ids=["negative_g", "nan_g", "below_absolute_zero", "band_gap_not_positive"],
    )
    def test_invalid_environment_is_exit_1(self, tmp_path, capsys, g, temp, message):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        code = main(["oracle", "--config", str(config), "--g", g, "--temp", temp])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()


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

    def test_no_child_sweeps_a_condition(self, tmp_path, monkeypatch):
        """The warm-up leaves nothing for the forked kinds to sweep, counted across processes."""
        log = tmp_path / "sweeps.log"
        find_mpp = oracle_module.find_mpp

        def logging_find_mpp(*args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return find_mpp(*args, **kwargs)

        monkeypatch.setattr(oracle_module, "find_mpp", logging_find_mpp)
        config = REPO / "configs" / "table1_adaptive.yaml"
        out = tmp_path / "out"
        assert main(["compare", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        assert log.read_text().splitlines() == [str(os.getpid())] * 15


def no_child_is_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def bound_of(params: ControllerParams) -> str:
    return "fixed" if params.delta_d_max_floor == params.delta_d_max_initial else "adaptive"


class TestForkedCompare:
    """compare runs each kind in a forked child; the parent reports and writes."""

    @pytest.mark.parametrize("delta_d_nominal", ["0.001", "1.0e-12"], ids=["ok", "fails"])
    def test_no_child_outlives_main(self, tmp_path, delta_d_nominal):
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "  kind: revised-adaptive-bound\n", f"  delta_d_nominal: {delta_d_nominal}\n"
        )
        config = write_scenario(tmp_path, body)
        code = main(["compare", "--config", str(config), "--quiet"])
        assert code == (0 if delta_d_nominal == "0.001" else 1)
        assert no_child_is_left()

    @pytest.mark.parametrize(
        "failing, message",
        [({"fixed", "adaptive"}, "fixed bound failed"), ({"adaptive"}, "adaptive bound failed")],
        ids=["both_revised_kinds", "last_kind_only"],
    )
    def test_a_later_kind_failure_is_exit_2_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, failing, message
    ):
        """The first failing kind in kind order is reported; a forked child inherits the patch."""
        revised_step = controllers.revised_step

        def failing_step(state, meas, params):
            if bound_of(params) in failing:
                raise ValueError(f"{bound_of(params)} bound failed")
            return revised_step(state, meas, params)

        monkeypatch.setattr(controllers, "revised_step", failing_step)
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["compare", "--config", str(config), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []
        assert no_child_is_left()

    def test_a_child_that_dies_without_a_result_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(controllers, "revised_step", lambda *args: os._exit(3))
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["compare", "--config", str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "error: the revised-fixed-bound run ended without a result\n"
        assert list((tmp_path / "out").iterdir()) == []
        assert no_child_is_left()
