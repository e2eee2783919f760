"""Every range check of the library rejects NaN, with the message it gives an out-of-range value."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from mpptbench.config import load_panel_preset
from mpptbench.controllers import ControllerParams, Measurement
from mpptbench.converter import BuckBoost
from mpptbench.harness import SimConfig, SimRecord, compute_metrics
from mpptbench.profiles import EnvProfile, EnvSegment
from mpptbench.pvmodel import STC, ArrayConfig, PVArray

NAN = math.nan
CELL = load_panel_preset("bp_sx150").cell_params()
PANEL = PVArray(CELL, ArrayConfig(n_series=72, n_parallel=1))
RECORD = SimRecord(0.0, 1000.0, 298.0, 34.5, 4.4, 151.8, 0.5, 0.001, 0.01, 152.3, 34.5, 0.5, 0.0,
                   "held_at_mpp")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ControllerParams(epsilon=NAN), "epsilon must be > 0"),
        (lambda: ControllerParams(acc=NAN), "acc must be > 1"),
        (lambda: SimConfig(control_interval_s=NAN), "control_interval_s must be > 0"),
        (lambda: SimConfig(duration_s=NAN), "duration_s must be >= control_interval_s"),
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
        (lambda: BuckBoost(v_bus=30.0).duty_for_voltage(NAN), "v_target must be > 0"),
        (lambda: dataclasses.replace(CELL, i_sc_ref=NAN), "i_sc_ref must be > 0"),
        (lambda: dataclasses.replace(CELL, v_oc_ref=NAN), "v_oc_ref must be > 0"),
        (lambda: dataclasses.replace(CELL, alpha=NAN), "alpha must be finite"),
        (lambda: dataclasses.replace(CELL, n=NAN), "ideality factor n must be >= 1"),
        (lambda: dataclasses.replace(CELL, dv_di_oc=NAN), "dv_di_oc must be < 0"),
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
        "ControllerParams.epsilon", "ControllerParams.acc", "SimConfig.control_interval_s",
        "SimConfig.duration_s", "SimConfig.noise_v", "SimConfig.noise_i",
        "compute_metrics.control_interval", "compute_metrics.record_t", "BuckBoost.v_bus",
        "BuckBoost.duty_for_voltage", "CellParams.i_sc_ref", "CellParams.v_oc_ref",
        "CellParams.alpha", "CellParams.n", "CellParams.dv_di_oc", "PVArray.current_at.scalar",
        "PVArray.current_at.vector", "EnvProfile.duration", "EnvProfile.start_times",
        "Measurement.v", "Measurement.i",
    ],
)
def test_nan_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
