"""Scenario loading, validation messages, and the command-line surface."""

from __future__ import annotations

import csv
import gc
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from mpptbench import cli as cli_module
from mpptbench import config as config_module
from mpptbench import controllers
from mpptbench import oracle as oracle_module
from mpptbench import pvmodel
from mpptbench.cli import main
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
from mpptbench.pvmodel import ArrayConfig, PVArray, saturation_current

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
        assert sc.converter.v_bus == sc.oracle.find(pvmodel.STC).v_mpp  # the auto bus
        assert sc.sim.duration_s == 0.05

    @pytest.mark.parametrize("name", ["table1_adaptive.yaml", "constant_stc_conventional.yaml"])
    def test_the_auto_initial_duty_is_resolved_at_load(self, name):
        """The loaded sim holds the duty that "auto" gives at the first condition."""
        scenario = load_scenario(REPO / "configs" / name)  # builtin, then a CSV profile
        auto = scenario.sim._replace(initial_duty="auto")
        env0 = scenario.profile.env_at(0.0)
        d0 = resolve_initial_duty(auto, scenario.converter, scenario.oracle, env0)
        assert type(scenario.sim.initial_duty) is float
        assert scenario.sim.initial_duty == d0

    def test_preset_file_by_path(self, tmp_path):
        preset = tmp_path / "my_panel.yaml"
        preset.write_text(PANEL_FILE)
        body = f"panel: {preset}\ncontroller:\n  kind: conventional\nprofile: builtin-table1\n"
        sc = load_scenario(write_scenario(tmp_path, body))
        assert sc.array.layout.n_series == 36
        assert sc.array.cell.i_sc_ref == 8.2

    def test_relative_preset_path_is_taken_from_the_scenario_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "pp").mkdir()
        (tmp_path / "pp" / "my_panel.yaml").write_text(PANEL_FILE)
        body = MINIMAL.format(out=tmp_path / "out").replace("bp_sx150", "my_panel.yaml")
        (tmp_path / "pp" / "s.yaml").write_text(body)
        (tmp_path / "pp" / "gone.yaml").write_text(body.replace("my_panel", "missing"))
        monkeypatch.chdir(tmp_path)
        assert load_scenario("pp/s.yaml").array.layout.n_series == 36
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
        assert null.array.layout == ArrayConfig(n_series=72, n_parallel=1)

    def test_a_key_may_override_its_merge_key_value(self, tmp_path):
        """A repeated key is rejected, but overriding a merged (<<) value is no repeat."""
        body = MINIMAL.format(out=tmp_path / "o").replace(
            "  kind: revised-adaptive-bound\n",
            "  <<: {acc: 1.3, deacc: 0.7}\n  kind: revised-adaptive-bound\n  acc: 1.5\n",
        )
        params = load_scenario(write_scenario(tmp_path, body)).controller_params
        assert (params.acc, params.deacc) == (1.5, 0.7)

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
        # the array, oracle, converter and profile compare by identity, so compare what
        # the array was built from and what the converter and profile hold
        def resolved(sc):
            return (
                sc.array.cell, sc.array.layout, vars(sc.converter), sc.controller_kind,
                sc.controller_params, sc.profile_source, vars(sc.profile), sc.sim, sc.output_dir,
            )

        assert shown.controller_params == minimal.controller_params
        assert shown.sim == minimal.sim
        assert resolved(shown) == resolved(minimal)

    def test_readme_library_example_runs(self):
        readme = (REPO / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        done = subprocess.run(
            [sys.executable, "-c", block],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert float(done.stdout) > 0  # the energy deficit, J


class TestNumberForms:
    """An exponent float loads as a number, which PyYAML's YAML 1.1 resolver reads as a string."""

    @pytest.mark.parametrize(
        "text, value",
        [("1e-2", 0.01), ("1E-2", 0.01), (".5e1", 5.0), ("-3e4", -30000.0), ("+1e2", 100.0),
         ("1.0e2", 100.0)],
    )
    def test_an_exponent_float_is_a_number(self, text, value):
        read = config_module._root(f"x: {text}\n", "s.yaml").read("x", float)
        assert read == value and type(read) is float
        assert yaml.safe_load(f"x: {text}\n") == {"x": text}  # PyYAML's own loader is untouched

    def test_a_scenario_interval_written_with_an_exponent_loads(self, tmp_path):
        body = MINIMAL.replace("  duration_s:", "  control_interval_s: 1e-2\n  duration_s:")
        scenario = load_scenario(write_scenario(tmp_path, body.format(out=tmp_path / "out")))
        assert scenario.sim.control_interval_s == 0.01

    @pytest.mark.parametrize(
        "line, where",
        [
            ("  control_interval_s: '1e-2'\n",
             "scenario.yaml:7: sim.control_interval_s: expected a number, got '1e-2'"),
            ('  control_interval_s: "1e-2"\n',
             "scenario.yaml:7: sim.control_interval_s: expected a number, got '1e-2'"),
            ("  control_interval_s: 1e400\n",
             "scenario.yaml:7: sim.control_interval_s: expected a finite float, got inf"),
            ("  noise_seed: 1e3\n",
             "scenario.yaml:7: sim.noise_seed: expected an integer, got 1000.0"),
        ],
        ids=["single_quoted", "double_quoted", "overflow", "integer_key"],
    )
    def test_what_is_not_a_number_of_the_key_still_fails(self, tmp_path, line, where):
        body = MINIMAL.replace("  duration_s: 0.05\n", "  duration_s: 0.05\n" + line)
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_scenario(write_scenario(tmp_path, body.format(out=tmp_path / "out")))


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
            # the unreachable duty range is checked last
            ("profile: builtin-table1\nsim:\n  duration_s: 0.05\n",
             "converter:\n  d_max: 0.4\nprofile: builtin-table1\nsim:\n  duration_s: 0.05\n"
             "  noise_i: -1\n",
             "scenario.yaml:9: sim.noise_i: "),
            ("  duration_s: 0.05\n", "  duration_s: 0.001\n",
             "scenario.yaml:6: sim.duration_s: "),
            ("  duration_s: 0.05\n", "  duration_s: 0.05\n  initial_duty: 0.02\n",
             "scenario.yaml:7: sim.initial_duty: "),
            ("profile:", "array:\n  panels_series: 0\nprofile:",
             "scenario.yaml:5: array.panels_series: must be >= 1"),
            ("profile:", "array:\n  panels_parallel: 0\nprofile:",
             "scenario.yaml:5: array.panels_parallel: must be >= 1"),
            ("profile:", "converter:\n  v_bus: 0\nprofile:",
             "scenario.yaml:5: converter.v_bus: must be a number > 0 or \"auto\", got 0.0"),
            ("profile:", "converter:\n  v_bus: true\nprofile:",
             "scenario.yaml:5: converter.v_bus: expected a number, got True"),
            ("profile:", "converter:\n  v_bus: fast\nprofile:",
             "scenario.yaml:5: converter.v_bus: must be a number > 0 or \"auto\", got 'fast'"),
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
            # the adaptive bound's floor is a ControllerParams constant, not a key
            ("  kind: revised-adaptive-bound\n",
             "  kind: revised-adaptive-bound\n  delta_d_max_floor: 0.001\n",
             "scenario.yaml:4: controller.delta_d_max_floor: unknown field"),
            # ... so an initial bound below it names the floor's fixed value
            ("  kind: revised-adaptive-bound\n",
             "  kind: conventional\n  delta_d_nominal: 0.0001\n  delta_d_max_initial: 0.0005\n",
             "scenario.yaml:5: controller.delta_d_max_initial: need 0 < delta_d_max_floor 0.001 "
             "<= delta_d_max_initial 0.0005; the floor is the adaptive bound's smallest value"),
            # PyYAML would keep the last of two values
            ("  kind: revised-adaptive-bound\n",
             "  kind: revised-adaptive-bound\n  acc: 1.2\n  acc: 1.5\n",
             "scenario.yaml:5: controller.acc: duplicate key"),
            # the key index stops at the schema's two levels, so it ends here too
            ("controller:\n  kind: revised-adaptive-bound\n",
             "controller: &c\n  kind: conventional\n  x: *c\n",
             "scenario.yaml:4: controller.x: unknown field"),
        ],
        ids=["deacc", "noise_i", "noise_i_and_d_max", "duration_s", "initial_duty",
             "panels_series", "panels_parallel", "v_bus_zero", "v_bus_bool", "v_bus_string",
             "profile", "output_dir", "panel", "controller.kind", "array",
             "initial_voltage_fraction", "removed_model", "removed_model.band_gap_denominator_sign",
             "removed_model.solver_tolerance_a", "removed_model.solver_max_iterations",
             "removed_controller.delta_d_max_floor", "delta_d_max_initial_below_the_floor",
             "duplicate_key", "self_referential_alias"],
    )
    def test_preset_scenario(self, tmp_path, capsys, old, new, where):
        body = MINIMAL.replace(old, new).format(out=tmp_path / "out")
        config = write_scenario(tmp_path, body)
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_scenario(config)
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_fan_of_aliases_is_indexed_two_levels_deep(self, tmp_path):
        """Seven levels of six-way aliases name 6**7 key paths; the index reads two levels."""
        lines = ["panel: bp_sx150", "l0: &l0 {a: 1}"]
        for k in range(1, 8):
            lines.append(f"l{k}: &l{k} {{" + ", ".join(f"{c}: *l{k - 1}" for c in "abcdef") + "}")
        config = write_scenario(tmp_path, "\n".join(lines) + "\n")
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=re.escape("scenario.yaml:2: l0: unknown field")):
            load_scenario(config)
        assert time.perf_counter() - start < 0.1

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
            ("v_oc_v: 43.5", "v_oc_v: 43.5\nv_oc_v: 40.0",
             "bad_panel.yaml:5: v_oc_v: duplicate key"),
        ],
        ids=["i_sc_a", "i_sc_a_bool", "cells_in_series", "cells_in_series_zero",
             "missing_v_oc_v", "v_oc_v", "removed_r_p_ohm", "removed_t_ref_k", "removed_g_ref_w_m2",
             "removed_name", "removed_rated_power_w", "inconsistent_negative_r_s",
             "inconsistent_i_0_overflow", "duplicate_key"],
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
            ("0.5,800,900", "rows.csv:3: temperature t = 1173.15 K is outside (0, 1108) K"),
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

    def test_alpha_that_turns_a_segments_photon_current_negative(self, tmp_path, capsys):
        """1 + alpha*(T - T_ref) < 0 in a later segment fails at load, naming alpha_per_k."""
        preset = tmp_path / "my_panel.yaml"
        preset.write_text(PANEL_FILE.replace("alpha_per_k: 0.0005", "alpha_per_k: -0.01"))
        (tmp_path / "rows.csv").write_text(
            "time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n0.5,1000,127\n"
        )
        body = (
            MINIMAL.format(out=tmp_path / "out")
            .replace("bp_sx150", str(preset))
            .replace("builtin-table1", "rows.csv")
            .replace("duration_s: 0.05", "duration_s: 1.0")
        )
        config = write_scenario(tmp_path, body)
        where = (
            "scenario.yaml:4: profile: the segment from t = 0.5 s at T = 400.15 K: "
            "alpha = -0.01 gives I_ph < 0 at T = 400.15 K"
        )
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_scenario(config)
        assert main(["compare", "--config", str(config), "--quiet"]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_segment_beyond_the_saturation_current_exponent_limit(
        self, tmp_path, capsys, command
    ):
        """At 3.15 K the band-gap exponent is -3253.7, past the model's 700 limit."""
        (tmp_path / "rows.csv").write_text(
            "time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n0.05,800,-270\n"
        )
        body = (
            MINIMAL.format(out=tmp_path / "out")
            .replace("builtin-table1", "rows.csv")
            .replace("duration_s: 0.05", "duration_s: 0.2")
        )
        config = write_scenario(tmp_path, body)
        where = (
            "scenario.yaml:4: profile: the segment from t = 0.05 s at T = 3.1499999999999773 K: "
            "saturation-current exponent -3253.7 exceeds 700.0"
        )
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_scenario(config)
        assert main([command, "--config", str(config), "--quiet"]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_a_segment_whose_photon_current_overflows_its_ratio_to_i_0(
        self, tmp_path, capsys, command
    ):
        """I_ph / I_0 past the float range leaves no finite V_oc."""
        (tmp_path / "rows.csv").write_text(
            "time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n0.02,1e308,25\n"
        )
        body = MINIMAL.format(out=tmp_path / "out").replace("builtin-table1", "rows.csv")
        config = write_scenario(tmp_path, body)
        where = (
            "scenario.yaml:4: profile: the segment from t = 0.02 s at T = 298.15 K: "
            "I_ph / I_0 overflows at g = 1e+308 W/m^2, T = 298.15 K"
        )
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_scenario(config)
        assert main([command, "--config", str(config), "--quiet"]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "one_cell, row, message",
        [
            (False, "0.5,800,-258.95",
             "T = 14.199999999999989 K: saturation current 1.27e-313 A at "
             "T = 14.199999999999989 K is not a normal float"),
            (True, "0.5,800,-255",
             "T = 18.149999999999977 K: saturation current 0 A at "
             "T = 18.149999999999977 K is not a normal float"),
        ],
        ids=["subnormal", "zero"],
    )
    def test_a_segment_whose_saturation_current_underflows(
        self, tmp_path, capsys, one_cell, row, message
    ):
        """Above the exponent limit I_0 can still leave the normal floats: V_oc is inf or 1/0."""
        body = MINIMAL.format(out=tmp_path / "out").replace("builtin-table1", "rows.csv")
        if one_cell:
            preset = tmp_path / "one_cell.yaml"
            preset.write_text(
                PANEL_FILE.replace("cells_in_series: 36", "cells_in_series: 1")
                .replace("v_oc_v: 22.1", "v_oc_v: 17.0")
                .replace("ideality_factor: 1.2", "ideality_factor: 1.0")
                .replace("dv_di_oc_ohm: -0.6", "dv_di_oc_ohm: -0.1")
            )
            body = body.replace("bp_sx150", str(preset))
        (tmp_path / "rows.csv").write_text(
            f"time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n{row}\n"
        )
        config = write_scenario(tmp_path, body.replace("duration_s: 0.05", "duration_s: 1.0"))
        where = f"scenario.yaml:4: profile: the segment from t = 0.5 s at {message}"
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_scenario(config)
        assert main(["run", "--config", str(config), "--quiet"]) == 1
        assert capsys.readouterr().err == f"config error: {tmp_path}/{where}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_a_segment_whose_mpp_does_not_solve(self, tmp_path, capsys, command):
        """The model accepts 1e20 W/m^2 at 500 degC, but the MPP's Newton solve fails there."""
        (tmp_path / "rows.csv").write_text(
            "time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n0.1,1e20,500\n"
        )
        body = MINIMAL.format(out=tmp_path / "out").replace("builtin-table1", "rows.csv")
        config = write_scenario(tmp_path, body.replace("duration_s: 0.05", "duration_s: 0.2"))
        assert main([command, "--config", str(config), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {tmp_path}/scenario.yaml:4: profile: the segment from t = 0.1 s "
            "at T = 773.15 K: Newton did not converge (iterations=100, residual=2.561e+02 A)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_each_profile_condition_is_checked_once(self, tmp_path, monkeypatch):
        calls = []
        checks = []
        mpps = []

        def counted(cell, env):
            calls.append((env.g, env.t))
            return saturation_current(cell, env)

        def counted_check(array, env):
            checks.append((env.g, env.t))
            return open_circuit_voltage(array, env)

        def counted_mpp(array, env):
            mpps.append((env.g, env.t))
            return find_mpp(array, env)

        open_circuit_voltage = PVArray.open_circuit_voltage
        find_mpp = oracle_module.find_mpp
        monkeypatch.setattr(pvmodel, "saturation_current", counted)
        monkeypatch.setattr(PVArray, "open_circuit_voltage", counted_check)
        monkeypatch.setattr(oracle_module, "find_mpp", counted_mpp)
        rows = "".join(f"{0.1 * k:.1f},{(1000, 800)[k % 2]},25\n" for k in range(6))
        (tmp_path / "rows.csv").write_text("time_s,irradiance_w_m2,temperature_c\n" + rows)
        body = MINIMAL.format(out=tmp_path / "out").replace("builtin-table1", "rows.csv")
        load_scenario(write_scenario(tmp_path, body))
        # then STC: the auto bus's MPP, and V_oc for the duty-range rule; the
        # auto initial duty's MPP, at the first condition, is a cache hit
        assert calls == [(1000.0, 298.15), (800.0, 298.15), (1000.0, 298.0)]
        assert checks == [(1000.0, 298.15), (800.0, 298.15), (1000.0, 298.0), (1000.0, 298.0)]
        assert mpps == [(1000.0, 298.15), (800.0, 298.15), (1000.0, 298.0)]

    @pytest.mark.parametrize("failing, start", [((800, 600), "0.1"), ((600,), "0.4")])
    def test_a_repeated_condition_fails_at_its_first_segment(
        self, tmp_path, monkeypatch, failing, start
    ):
        def probe(cell, env):
            if env.g in failing:
                raise ValueError("probe")
            return saturation_current(cell, env)

        monkeypatch.setattr(pvmodel, "saturation_current", probe)
        rows = "".join(f"{0.1 * k:.1f},{g},25\n" for k, g in enumerate((1000, 800, 1000, 800, 600)))
        (tmp_path / "rows.csv").write_text("time_s,irradiance_w_m2,temperature_c\n" + rows)
        body = MINIMAL.format(out=tmp_path / "out").replace("builtin-table1", "rows.csv")
        with pytest.raises(ConfigError) as err:
            load_scenario(write_scenario(tmp_path, body))
        assert str(err.value) == (
            f"{tmp_path}/scenario.yaml:4: profile: "
            f"the segment from t = {start} s at T = 298.15 K: probe"
        )

    def test_the_cell_model_alone_decides_which_conditions_load(self, tmp_path, monkeypatch):
        """Any ValueError the model raises at a segment's condition is reported at profile."""

        def probe(cell, env):
            raise ValueError("probe")

        monkeypatch.setattr(pvmodel, "saturation_current", probe)
        (tmp_path / "rows.csv").write_text(
            "time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n0.5,800,25\n"
        )
        body = MINIMAL.format(out=tmp_path / "out").replace("builtin-table1", "rows.csv")
        with pytest.raises(ConfigError) as err:
            load_scenario(write_scenario(tmp_path, body))
        assert str(err.value) == (
            f"{tmp_path}/scenario.yaml:4: profile: the segment from t = 0.0 s at T = 298.15 K: probe"
        )

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
        assert load_scenario(config).converter.v_bus == 40.0
        assert main(["run", "--config", str(config), "--quiet"]) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        d = float(rows[0]["d"])
        assert float(rows[0]["v_v"]) == 40.0 * (1.0 - d) / d


def _settable_defaults(section, attr, cls, fixed=()):
    return [
        pytest.param(section, attr, name, default, id=f"{section}.{name}")
        for name, default in cls._field_defaults.items()
        if name not in fixed
    ]


SETTABLE_DEFAULTS = [
    *_settable_defaults(
        "controller",
        "controller_params",
        ControllerParams,
        fixed=("d_min", "d_max", "delta_d_max_floor"),
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
        options = {name: set(flags) for name, (_, flags, _) in cli_module._COMMANDS.items()}
        common = {"--config", "--out", "--quiet"}
        assert options == {"run": common, "compare": common, "oracle": common | {"--g", "--temp"}}

    RUN_USAGE = "usage: mpptbench run [-h] --config CONFIG [--out OUT] [--quiet]"
    ORACLE_USAGE = (
        "usage: mpptbench oracle [-h] --config CONFIG [--out OUT] [--quiet] [--g G] [--temp TEMP]"
    )

    def test_options_take_their_value_after_an_equals_sign(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "ignored"))
        out = tmp_path / "elsewhere"
        assert main(["run", f"--config={config}", f"--out={out}", "--quiet"]) == 0
        assert (out / "trace.csv").exists()
        assert not (tmp_path / "ignored").exists()
        assert capsys.readouterr() == ("", "")

    def test_a_unique_prefix_names_its_option(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["run", "--conf", str(config), "--q"]) == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert capsys.readouterr() == ("", "")

    def test_the_last_of_a_repeated_option_wins(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "ignored"))
        first, last = tmp_path / "first", tmp_path / "last"
        argv = ["run", "--config", str(config), "--out", str(first), "--out", str(last), "--quiet"]
        assert main(argv) == 0
        assert (last / "trace.csv").exists()
        assert not first.exists()
        assert main(["oracle", "--config", str(config), "--g", "5", "--g=-5"]) == 1
        assert capsys.readouterr().err == (
            "config error: --g -5.0 --temp 25.0: irradiance g must be >= 0\n"
        )

    @pytest.mark.parametrize(
        "flags, shown",
        [(["--g", "-5"], "-5.0"), (["--g=-5"], "-5.0"), (["--g", "nan"], "nan"),
         (["--g=nan"], "nan"), (["--g", "1e400"], "inf")],
        ids=["negative", "negative_equals", "nan", "nan_equals", "overflowing_literal"],
    )
    def test_g_reaches_the_models_checks_in_either_form(self, tmp_path, capsys, flags, shown):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["oracle", "--config", str(config), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --g {shown} --temp 25.0: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, usage, message",
        [
            (["oracle", "--config", "c.yaml", "--g", "abc"], ORACLE_USAGE,
             "argument --g: expected one float value"),
            (["oracle", "--config", "c.yaml", "--temp"], ORACLE_USAGE,
             "argument --temp: expected one float value"),
            (["run", "--config"], RUN_USAGE, "argument --config: expected one str value"),
            (["run", "--config", "c.yaml", "extra"], RUN_USAGE, "unrecognized argument: extra"),
            (["run", "--config", "c.yaml", "--quiet=1"], RUN_USAGE,
             "unrecognized argument: --quiet=1"),
            (["run", "--config", "c.yaml", "--"], RUN_USAGE, "unrecognized argument: --"),
            (["run", "--config", "c.yaml", "-q"], RUN_USAGE, "unrecognized argument: -q"),
            (["run", "--config", "c.yaml", "--g", "5"], RUN_USAGE, "unrecognized argument: --g"),
            (["run", "--out", "o"], RUN_USAGE, "the following arguments are required: --config"),
            (["bogus", "--config", "c.yaml"], "usage: mpptbench [-h] {run,compare,oracle} ...",
             "the first argument must be a command: run, compare, oracle"),
            ([], "usage: mpptbench [-h] {run,compare,oracle} ...",
             "the first argument must be a command: run, compare, oracle"),
        ],
        ids=["not_a_float", "no_float_left", "no_value_left", "stray_positional",
             "switch_with_a_value", "ambiguous_prefix", "short_option", "flag_of_another_command",
             "no_config", "unknown_command", "no_command"],
    )
    def test_usage_error_prints_the_commands_usage(self, argv, usage, message, capsys):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"{usage}\nmpptbench: error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [["-h", "oracle"], ["--help", "oracle", "--config", "c.yaml"], ["oracle", "--help"],
         ["oracle", "--config", "c.yaml", "--g", "5", "-h"], ["oracle", "--bogus", "-h"]],
        ids=["short_before", "long_before", "long_after", "short_last", "after_a_bad_flag"],
    )
    def test_help_anywhere_lists_the_commands_flags(self, argv, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == (
            f"{self.ORACLE_USAGE}\n"
            "  --config CONFIG   scenario YAML file\n"
            "  --out OUT         output directory (overrides config)\n"
            "  --quiet           suppress the summary printout\n"
            "  --g G             irradiance, W/m^2\n"
            "  --temp TEMP       cell temperature, degC\n"
        )

    def test_help_without_a_command_lists_the_commands(self, capsys):
        assert main(["-h"]) == 0
        assert capsys.readouterr() == (
            "usage: mpptbench [-h] {run,compare,oracle} ...\n"
            "  run               run one simulation, write trace.csv and metrics.txt\n"
            "  compare           run all three controllers, write comparison.txt\n"
            "  oracle            dump the P-V curve and the true MPP for one condition\n",
            "",
        )

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
        assert load_scenario(config).sim.initial_duty == 0.5  # auto, at a dark first row
        assert main(["run", "--config", str(config), "--quiet"]) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert len(rows) == 10
        assert float(rows[0]["g_w_m2"]) == 0.0 and float(rows[0]["d"]) == 0.5

    def test_dark_first_row_starts_inside_the_converters_duty_range(self, tmp_path):
        """The auto initial duty of a dark start is 0.5 clamped into [d_min, d_max]."""
        dark = tmp_path / "dark.csv"
        dark.write_text("time_s,irradiance_w_m2,temperature_c\n0.0,0,25\n0.5,800,25\n")
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "profile: builtin-table1", "converter:\n  d_max: 0.45\nprofile: dark.csv"
        ).replace("duration_s: 0.05", "duration_s: 1.0")
        assert main(["run", "--config", str(write_scenario(tmp_path, body)), "--quiet"]) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert len(rows) == 100
        assert float(rows[0]["d"]) == 0.45
        assert all(0.05 <= float(r["d"]) <= 0.45 for r in rows)

    @pytest.mark.parametrize("command", ["run", "compare", "oracle"])
    @pytest.mark.parametrize(
        "converter, message",
        [
            (
                "  d_max: 0.4\n",
                "scenario.yaml:5: converter.d_max: 0.4 gives panel voltages of 51.7351 V and "
                "above on a 34.4901 V bus, none below the array's open-circuit voltage at STC, "
                "43.5 V",
            ),
            (  # d_max is not in the file, so the error is at the converter section
                "  v_bus: 1000.0\n",
                "scenario.yaml:4: converter.d_max: 0.95 gives panel voltages of 52.6316 V and "
                "above on a 1000 V bus, none below the array's open-circuit voltage at STC, "
                "43.5 V",
            ),
        ],
        ids=["d_max_on_the_auto_bus", "numeric_v_bus"],
    )
    def test_a_duty_range_that_cannot_reach_the_curve_is_exit_1(
        self, tmp_path, capsys, command, converter, message
    ):
        """Its lowest panel voltage, v_bus*(1 - d_max)/d_max, is not below V_oc at STC.

        load_scenario rejects it, so oracle, which drives no converter, does too.
        """
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "profile:", f"converter:\n{converter}profile:"
        )
        assert main([command, "--config", str(write_scenario(tmp_path, body))]) == 1
        assert capsys.readouterr().err == f"config error: {tmp_path}/{message}\n"
        assert not (tmp_path / "out").exists()  # so no pv_curve.csv either

    @pytest.mark.parametrize("command", ["run", "compare", "oracle"])
    def test_the_cli_builds_one_array(self, tmp_path, monkeypatch, command):
        """The parent process builds one PVArray: load_scenario's, which the command runs on."""
        built = []
        init = PVArray.__init__

        def counting_init(self, *args, **kwargs):
            built.append(os.getpid())
            init(self, *args, **kwargs)

        monkeypatch.setattr(PVArray, "__init__", counting_init)
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main([command, "--config", str(config), "--quiet"]) == 0
        assert built == [os.getpid()]

    def test_a_negative_zero_irradiance_prints_its_sign(self, tmp_path):
        (tmp_path / "dark.csv").write_text(
            "time_s,irradiance_w_m2,temperature_c\n0.0,1000,25\n0.05,0,25\n0.1,-0,25\n"
        )
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "profile: builtin-table1", "profile: dark.csv"
        ).replace("duration_s: 0.05", "duration_s: 0.15")
        assert main(["run", "--config", str(write_scenario(tmp_path, body)), "--quiet"]) == 0
        rows = list(csv.DictReader((tmp_path / "out" / "trace.csv").read_text().splitlines()))
        assert [r["g_w_m2"] for r in rows] == ["1000.0"] * 5 + ["0.0"] * 5 + ["-0.0"] * 5

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

    @pytest.mark.parametrize("g", [1000.0, 1e-8])
    def test_oracle_prints_the_mpp_that_compare_scores_against(
        self, tmp_path, capsys, monkeypatch, g
    ):
        """The printed MPP is find_mpp's: the curve is swept once, for the dump, and
        the MPP solved from five samples.  In deep dark every sample solves to I_ph,
        so the power rises to V_oc; the printed voltage still lies within 2.5 samples
        of the explicit MPP voltage (the bracket is the window's top two samples)."""
        array_calls = []
        current_at = PVArray.current_at

        def counting_current_at(self, v, env):
            if not isinstance(v, float):
                array_calls.append(len(v))
            return current_at(self, v, env)

        monkeypatch.setattr(PVArray, "current_at", counting_current_at)
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        argv = ["oracle", "--config", str(config), "--g", repr(g), "--temp", "25", "--quiet"]
        assert main(argv) == 0
        # table1's 15 conditions at load (STC first, so the auto bus is a hit), then
        # the --g/--temp condition's window, then the curve
        assert array_calls == [5] * 16 + [GRID_POINTS]
        array = load_scenario(config).build_array()
        env = pvmodel.EnvCondition(g=g, t=298.15)
        mpp = oracle_module.find_mpp(array, env)
        assert capsys.readouterr().out == (
            f"v_mpp_v: {mpp.v_mpp:.6g}\ni_mpp_a: {mpp.i_mpp:.6g}\np_mpp_w: {mpp.p_mpp:.6g}\n"
        )
        step = array.open_circuit_voltage(env) / (GRID_POINTS - 1)
        assert abs(mpp.v_mpp - array.mpp_voltage(env)) <= 2.5 * step

    def test_oracle_zero_irradiance(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(
            ["oracle", "--config", str(config), "--g", "0", "--temp", "25", "--quiet"]
        ) == 0
        assert "p_mpp_w: 0" in capsys.readouterr().out
        curve = (tmp_path / "out" / "pv_curve.csv").read_bytes()
        assert curve == b"voltage_v,current_a,power_w\r\n"  # the header alone

    def test_run_prints_its_summary(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["run", "--config", str(config)]) == 0
        metrics = (tmp_path / "out" / "metrics.txt").read_text()
        assert capsys.readouterr().out == (
            f"revised-adaptive-bound: 5 steps -> {tmp_path / 'out' / 'trace.csv'}\n"
            + metrics.splitlines()[0] + "\n"
        )

    def test_compare_prints_its_report(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["compare", "--config", str(config)]) == 0
        assert capsys.readouterr().out == (tmp_path / "out" / "comparison.txt").read_text()

    def test_oracle_prints_the_mpp_then_the_curve_path(self, tmp_path, capsys):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["oracle", "--config", str(config)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.partition(": ")[0] for line in printed] == [
            "v_mpp_v", "i_mpp_a", "p_mpp_w", "curve"
        ]
        assert printed[-1] == f"curve: {tmp_path / 'out' / 'pv_curve.csv'}"

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
            ("1000", "-300", "--g 1000.0 --temp -300.0: temperature t = -26.850000000000023 K "
             "is outside (0, 1108) K, where the band gap is > 0"),
            ("1000", "900", "--g 1000.0 --temp 900.0: temperature t = 1173.15 K "
             "is outside (0, 1108) K, where the band gap is > 0"),
            ("1000", "-258.95",
             "--g 1000.0 --temp -258.95: saturation current 1.27e-313 A at "
             "T = 14.199999999999989 K is not a normal float"),
            ("inf", "25",
             "--g inf --temp 25.0: I_ph / I_0 overflows at g = inf W/m^2, T = 298.15 K"),
            ("1e308", "25",
             "--g 1e+308 --temp 25.0: I_ph / I_0 overflows at g = 1e+308 W/m^2, T = 298.15 K"),
            ("1e20", "500",
             "--g 1e+20 --temp 500.0: "
             "Newton did not converge (iterations=100, residual=2.561e+02 A)"),
        ],
        ids=["negative_g", "nan_g", "below_absolute_zero", "band_gap_not_positive",
             "saturation_current_underflows", "infinite_g", "photon_current_ratio_overflows",
             "mpp_does_not_solve"],
    )
    def test_invalid_environment_is_exit_1(self, tmp_path, capsys, g, temp, message):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        code = main(["oracle", "--config", str(config), "--g", g, "--temp", temp])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unsolved_curve_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        """At 1e9 W/m^2 some grid voltages near V_oc do not converge."""
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        code = main(["oracle", "--config", str(config), "--g", "1e9", "--temp", "25"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: Newton did not converge (iterations=100, residual=1.742e-08 A)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_temp_at_which_alpha_turns_the_photon_current_negative_is_exit_1(
        self, tmp_path, capsys
    ):
        # 1 + alpha*(T - T_ref) = 1 - 0.01*102.15 < 0; the builtin profile itself stays valid
        preset = tmp_path / "my_panel.yaml"
        preset.write_text(PANEL_FILE.replace("alpha_per_k: 0.0005", "alpha_per_k: -0.01"))
        body = MINIMAL.format(out=tmp_path / "out").replace("bp_sx150", str(preset))
        config = write_scenario(tmp_path, body)
        code = main(["oracle", "--config", str(config), "--temp", "127"])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: --g 1000.0 --temp 127.0: "
            "alpha = -0.01 gives I_ph < 0 at T = 400.15 K\n"
        )
        assert not (tmp_path / "out").exists()

    def test_module_entry_point_exits_with_mains_code(self, tmp_path):
        """python -m mpptbench.cli hands main()'s return value to the process's exit status."""

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "mpptbench.cli", *argv],
                env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                capture_output=True,
                text=True,
                timeout=60,
            )

        done = cli("--help")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: mpptbench ")
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        done = cli("oracle", "--config", str(config), "--g", "-5")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "config error: --g -5.0 --temp 25.0: irradiance g must be >= 0\n"


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
            # every shipped config starts at the auto duty: resolve it on the fresh oracle too
            auto = scenario.sim._replace(initial_duty="auto")
            d0 = resolve_initial_duty(auto, converter, oracle, env0)
            controller = scenario.build_controller(d0, kind)
            trace = run_simulation(
                array, converter, controller, scenario.profile, scenario.sim, oracle
            )
            write_trace_csv(trace, tmp_path / name)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
            block = f"== {kind} ==\n{format_metrics(compute_metrics(trace))}"
            assert block in report

    def test_every_kind_starts_at_the_loaded_initial_duty(self, tmp_path):
        config = REPO / "configs" / "table1_adaptive.yaml"
        assert main(["compare", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
        d0 = load_scenario(config).sim.initial_duty
        for name in cli_module._TRACE_FILES.values():
            rows = csv.DictReader((tmp_path / name).read_text().splitlines())
            assert float(next(rows)["d"]) == d0, name

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
        """`load_scenario` leaves nothing for the forked kinds to sweep, counted across processes."""
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

    def test_a_later_child_writing_after_the_failure_leaves_no_file(
        self, tmp_path, capsys, monkeypatch
    ):
        """Temporaries are removed only once every child has ended.

        Only the fixed-bound kind fails; the adaptive kind writes its
        temporary trace 0.3 s later, after the parent has read the failure.
        """
        revised_step = controllers.revised_step

        def failing_step(state, meas, params):
            if bound_of(params) == "fixed":
                raise ValueError("fixed bound failed")
            return revised_step(state, meas, params)

        def slow_write(trace, path):
            if "adaptive" in Path(path).name:
                time.sleep(0.3)
            write_trace_csv(trace, path)

        monkeypatch.setattr(controllers, "revised_step", failing_step)
        monkeypatch.setattr(cli_module, "write_trace_csv", slow_write)
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["compare", "--config", str(config), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: fixed bound failed\n"
        assert list((tmp_path / "out").iterdir()) == []
        assert no_child_is_left()

    def test_a_failed_compare_leaves_an_earlier_run_alone(self, tmp_path, monkeypatch):
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["compare", "--config", str(config), "--quiet"]) == 0
        before = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
        assert sorted(before) == [
            "comparison.txt",
            "trace_conventional.csv",
            "trace_revised_adaptive.csv",
            "trace_revised_fixed.csv",
        ]

        def failing_step(state, meas, params):
            raise ValueError("revised step failed")

        monkeypatch.setattr(controllers, "revised_step", failing_step)
        assert main(["compare", "--config", str(config), "--quiet"]) == 2
        after = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
        assert after == before  # no *.tmp left, every file byte-identical
        assert no_child_is_left()

    def test_a_failed_rename_leaves_no_temporary(self, tmp_path, capsys):
        """A directory where a trace belongs stops the renames; no temporary stays behind."""
        out = tmp_path / "out"
        (out / "trace_revised_fixed.csv").mkdir(parents=True)
        config = write_scenario(tmp_path, MINIMAL.format(out=out))
        assert main(["compare", "--config", str(config), "--quiet"]) == 2
        temporary = out / f".compare.{os.getpid()}" / "trace_revised_fixed.csv"
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: '{temporary}' -> '{out}/trace_revised_fixed.csv'\n"
        )
        assert sorted(path.name for path in out.iterdir()) == [
            "trace_conventional.csv",
            "trace_revised_fixed.csv",
        ]
        assert no_child_is_left()

    def test_a_failed_report_write_leaves_no_temporary(self, tmp_path, capsys):
        """A directory named comparison.txt stops the last rename; the traces are in place."""
        out = tmp_path / "out"
        (out / "comparison.txt").mkdir(parents=True)
        config = write_scenario(tmp_path, MINIMAL.format(out=out))
        assert main(["compare", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        temporary = out / f".compare.{os.getpid()}" / "comparison.txt"
        assert captured.err == (
            f"error: [Errno 21] Is a directory: '{temporary}' -> '{out}/comparison.txt'\n"
        )
        assert captured.out == ""
        assert sorted(path.name for path in out.iterdir()) == [
            "comparison.txt",
            "trace_conventional.csv",
            "trace_revised_adaptive.csv",
            "trace_revised_fixed.csv",
        ]
        assert no_child_is_left()

    def test_a_failed_comparison_write_leaves_an_earlier_run_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        """A full disk while comparison.txt is built leaves the earlier comparison.txt whole."""
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["compare", "--config", str(config), "--quiet"]) == 0
        before = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
        assert len(before) == 4
        copyfileobj = shutil.copyfileobj
        calls = []

        def copy_then_fill_the_disk(src, dst):
            calls.append(src)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            copyfileobj(src, dst)

        monkeypatch.setattr(shutil, "copyfileobj", copy_then_fill_the_disk)
        assert main(["compare", "--config", str(config), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert len(calls) == 2
        after = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
        assert after == before
        assert no_child_is_left()

    def test_a_work_directory_removed_after_the_renames_is_no_error(
        self, tmp_path, capsys, monkeypatch
    ):
        """A clean-up of directories that killed runs left can remove a live run's."""
        out = tmp_path / "out"
        config = write_scenario(tmp_path, MINIMAL.format(out=out))
        replace = os.replace
        renamed = []

        def replace_then_lose_the_directory(src, dst):
            replace(src, dst)
            renamed.append(dst)
            if len(renamed) == 4:  # comparison.txt, the last rename
                shutil.rmtree(Path(src).parent)

        monkeypatch.setattr(os, "replace", replace_then_lose_the_directory)
        assert main(["compare", "--config", str(config)]) == 0
        monkeypatch.undo()
        assert len(renamed) == 4
        raced = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(raced) == [
            "comparison.txt",
            "trace_conventional.csv",
            "trace_revised_adaptive.csv",
            "trace_revised_fixed.csv",
        ]
        assert capsys.readouterr().out == raced["comparison.txt"].decode()
        assert main(["compare", "--config", str(config), "--quiet"]) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == raced
        assert no_child_is_left()

    def test_only_figures_cross_the_pipe(self, tmp_path, monkeypatch):
        """Each child writes its report to a file; the parent receives three numbers."""
        received = []
        receive = cli_module._receive

        def recording_receive(r, kind):
            received.append(receive(r, kind))
            return received[-1]

        monkeypatch.setattr(cli_module, "_receive", recording_receive)
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert main(["compare", "--config", str(config), "--quiet"]) == 0
        assert len(received) == 3
        for result in received:
            assert result._fields == ("steps", "energy_deficit", "max_voltage_overshoot")
            assert all(isinstance(value, (int, float)) for value in result)

    def test_each_child_runs_on_a_frozen_heap_and_main_leaves_none(self, tmp_path, monkeypatch):
        """compare forks each child after gc.freeze and unfreezes once all are reaped, also
        when a child fails; run freezes nothing."""
        run_kind = cli_module._run_kind

        def recording_run_kind(scenario, kind, trace_path, report_path):
            (tmp_path / f"frozen.{kind}").write_text(str(gc.get_freeze_count()))
            return run_kind(scenario, kind, trace_path, report_path)

        def frozen_counts():
            counts = {path.name[7:]: int(path.read_text()) for path in tmp_path.glob("frozen.*")}
            for path in tmp_path.glob("frozen.*"):
                path.unlink()
            return counts

        monkeypatch.setattr(cli_module, "_run_kind", recording_run_kind)
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))
        assert gc.get_freeze_count() == 0
        assert main(["compare", "--config", str(config), "--quiet"]) == 0
        counts = frozen_counts()
        assert sorted(counts) == sorted(cli_module._TRACE_FILES)
        assert all(count > 0 for count in counts.values()), counts
        assert gc.get_freeze_count() == 0

        failing = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out").replace(
            "  kind: revised-adaptive-bound\n", "  delta_d_nominal: 1.0e-12\n"
        ))
        assert main(["compare", "--config", str(failing), "--quiet"]) == 1
        assert all(count > 0 for count in frozen_counts().values())
        assert gc.get_freeze_count() == 0

        assert main(["run", "--config", str(config), "--quiet"]) == 0
        assert frozen_counts() == {"revised-adaptive-bound": 0}
        assert gc.get_freeze_count() == 0
        assert no_child_is_left()


class TestOutputPathErrors:
    """An output path the filesystem refuses is exit 2 with one error line, not a traceback."""

    @pytest.mark.parametrize(
        "command, out, message",
        [
            ("run", "afile/x", "[Errno 20] Not a directory: '{tmp}/afile/x'"),
            ("compare", "afile", "[Errno 17] File exists: '{tmp}/afile'"),
            ("oracle", "afile", "[Errno 17] File exists: '{tmp}/afile'"),
        ],
        ids=["run", "compare", "oracle"],
    )
    def test_an_output_path_through_a_file_is_exit_2(
        self, tmp_path, capsys, command, out, message
    ):
        (tmp_path / "afile").write_text("")
        config = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "unused"))
        argv = [command, "--config", str(config), "--out", str(tmp_path / out), "--quiet"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(tmp=tmp_path)}\n"
        assert captured.out == ""
        # nothing written: no directory, no temporary trace
        assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "scenario.yaml"]
        assert (tmp_path / "afile").read_text() == ""
