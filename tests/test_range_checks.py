"""Every range check of the library rejects NaN, with the message it gives an out-of-range value."""

from __future__ import annotations

import copyreg
import inspect
import math

import numpy as np
import pytest

from mpptbench.config import PanelPreset, load_panel_preset
from mpptbench.controllers import ControllerParams, Measurement, initial_state
from mpptbench.converter import BuckBoost
from mpptbench.harness import SimConfig, SimRecord, compute_metrics
from mpptbench.profiles import EnvProfile, EnvSegment
from mpptbench.pvmodel import STC, ArrayConfig, CellParams, EnvCondition, PVArray, band_gap

NAN = math.nan
PRESET = load_panel_preset("bp_sx150")
CELL = PRESET.cell_params()
PANEL = PVArray(CELL, ArrayConfig(n_series=72, n_parallel=1))
RECORD = SimRecord(0.0, 1000.0, 298.0, 34.5, 4.4, 151.8, 0.5, 0.001, 0.01, 152.3, 34.5, 0.5, 0.0,
                   "held_at_mpp")


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: ControllerParams(delta_d_nominal=NAN),
            "need 0 < delta_d_nominal <= delta_d_max_initial < 1",
        ),
        (lambda: ControllerParams(epsilon=NAN), "epsilon must be > 0"),
        (lambda: ControllerParams(acc=NAN), "acc must be > 1"),
        (lambda: ControllerParams(deacc=NAN), r"deacc must be in \(0, 1\)"),
        (lambda: ControllerParams(d_min=NAN), "need 0 < d_min < d_max < 1"),
        (lambda: initial_state(NAN, ControllerParams()), r"initial duty must be in \(0, 1\)"),
        (lambda: SimConfig(control_interval_s=NAN), "control_interval_s must be > 0"),
        (lambda: SimConfig(duration_s=NAN), "duration_s must be >= control_interval_s"),
        (
            lambda: SimConfig(initial_duty=NAN),
            r'initial_duty must be a number in \(0, 1\) or "auto"',
        ),
        (
            lambda: SimConfig(initial_voltage_fraction=NAN),
            r"initial_voltage_fraction must be in \(0, 1.5\]",
        ),
        (lambda: SimConfig(noise_v=NAN), "noise_v must be >= 0"),
        (lambda: SimConfig(noise_i=NAN), "noise_i must be >= 0"),
        (
            lambda: compute_metrics([RECORD], control_interval=NAN),
            "control_interval must be > 0, got nan",
        ),
        (
            lambda: compute_metrics([RECORD._replace(t=t) for t in (0.0, 0.01, NAN)]),
            "not evenly spaced: record 2 is at t = nan",
        ),
        (lambda: BuckBoost(v_bus=NAN), "v_bus must be > 0"),
        (
            lambda: BuckBoost(v_bus=30.0, d_min=NAN),
            "duty clamps must satisfy 0 < d_min < d_max < 1",
        ),
        (lambda: BuckBoost(v_bus=30.0).duty_for_voltage(NAN), "v_target must be > 0"),
        (lambda: CELL._replace(i_sc_ref=NAN), "i_sc_ref must be > 0"),
        (lambda: CELL._replace(v_oc_ref=NAN), "v_oc_ref must be > 0"),
        (lambda: CELL._replace(alpha=NAN), "alpha must be finite"),
        (lambda: CELL._replace(n=NAN), "ideality factor n must be >= 1"),
        (lambda: CELL._replace(dv_di_oc=NAN), "dv_di_oc must be < 0"),
        (lambda: PRESET._replace(cells_in_series=NAN), "cells_in_series must be >= 1"),
        (lambda: ArrayConfig(n_series=NAN), "n_series and n_parallel must be >= 1"),
        (lambda: ArrayConfig(n_parallel=NAN), "n_series and n_parallel must be >= 1"),
        (lambda: EnvCondition(g=NAN, t=298.0), "irradiance g must be >= 0"),
        (lambda: band_gap(NAN), r"temperature t = nan K is outside \(0, 1108\) K"),
        (lambda: PANEL.current_at(NAN, STC), "cell voltage must be >= 0"),
        (lambda: PANEL.current_at(np.array([1.0, NAN]), STC), "cell voltage must be >= 0"),
        (lambda: EnvProfile((EnvSegment(0.0, STC),), NAN), "duration must be > 0"),
        (
            lambda: EnvProfile((EnvSegment(0.0, STC), EnvSegment(NAN, STC)), 1.0),
            "segment start times must be strictly increasing",
        ),
        (lambda: Measurement(NAN, 4.1).validate(), "measurement must be non-negative"),
        (lambda: Measurement(17.0, NAN).validate(), "measurement must be non-negative"),
    ],
    ids=[
        "ControllerParams.delta_d_nominal", "ControllerParams.epsilon", "ControllerParams.acc",
        "ControllerParams.deacc", "ControllerParams.d_min", "initial_state",
        "SimConfig.control_interval_s", "SimConfig.duration_s", "SimConfig.initial_duty",
        "SimConfig.initial_voltage_fraction", "SimConfig.noise_v", "SimConfig.noise_i",
        "compute_metrics.control_interval", "compute_metrics.record_t", "BuckBoost.v_bus",
        "BuckBoost.d_min", "BuckBoost.duty_for_voltage", "CellParams.i_sc_ref",
        "CellParams.v_oc_ref", "CellParams.alpha", "CellParams.n", "CellParams.dv_di_oc",
        "PanelPreset.cells_in_series", "ArrayConfig.n_series", "ArrayConfig.n_parallel",
        "EnvCondition.g", "band_gap", "PVArray.current_at.scalar",
        "PVArray.current_at.vector", "EnvProfile.duration", "EnvProfile.start_times",
        "Measurement.v", "Measurement.i",
    ],
)
def test_nan_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "record, name, message",
    [
        (CELL, "alpha", "alpha must be finite"),
        (PRESET, "cells_in_series", "cells_in_series must be >= 1"),
        (ArrayConfig(), "n_parallel", "n_series and n_parallel must be >= 1"),
        (STC, "g", "irradiance g must be >= 0"),
        (ControllerParams(), "acc", "acc must be > 1"),
        (SimConfig(), "noise_i", "noise_i must be >= 0"),
    ],
    ids=["CellParams", "PanelPreset", "ArrayConfig", "EnvCondition", "ControllerParams", "SimConfig"],
)
def test_no_path_builds_a_record_past_its_check(record, name, message):
    """The constructor, __new__, _make, _replace, copy and pickle all give the check's own error."""
    cls = type(record)
    values = [NAN if field == name else value for field, value in zip(cls._fields, record)]
    # pickle.loads and copy.copy rebuild a record through copyreg.__newobj__
    assert record.__reduce_ex__(2)[0] is copyreg.__newobj__
    for build in (
        lambda: cls(*values),
        lambda: cls(**dict(zip(cls._fields, values))),
        lambda: cls.__new__(cls, *values),
        lambda: cls._make(values),
        lambda: record._replace(**{name: NAN}),
        lambda: copyreg.__newobj__(cls, *values),
    ):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize(
    "cls", [CellParams, PanelPreset, ArrayConfig, EnvCondition, ControllerParams, SimConfig],
    ids=lambda cls: cls.__name__,
)
def test_the_signature_lists_the_fields(cls):
    assert tuple(inspect.signature(cls).parameters) == cls._fields
