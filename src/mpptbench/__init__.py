"""Desk-scale MPPT simulator and benchmark harness.

Physics-based single-diode PV model, an idealized buck-boost stage, two
incremental-conductance MPPT controllers (fixed-step and adaptive-step),
a brute-force MPP oracle for ground truth, and a closed-loop simulation
harness with tracking metrics.
"""

from .controllers import (
    ControllerParams,
    ControllerState,
    DegenerateSampleError,
    Measurement,
    MpptController,
    StepAction,
    StepOutcome,
    conventional_step,
    initial_state,
    revised_step,
    slope_term,
)
from .converter import BuckBoost
from .harness import (
    SegmentMetrics,
    SimConfig,
    SimRecord,
    SimulationError,
    TrackingMetrics,
    compute_metrics,
    run_simulation,
    write_metrics_report,
    write_trace_csv,
)
from .oracle import MppOracle, MppResult, find_mpp
from .profiles import EnvProfile, EnvSegment, builtin_table1_profile, load_profile_csv
from .pvmodel import (
    STC,
    ArrayConfig,
    CellParams,
    ConvergenceError,
    DatasheetError,
    EnvCondition,
    ModelError,
    NumericRangeError,
    PhysicalConstants,
    PVArray,
    band_gap,
    derive_series_resistance,
    open_circuit_voltage,
    photon_current,
    saturation_current,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "BuckBoost",
    "CellParams",
    "ControllerParams",
    "ControllerState",
    "ConvergenceError",
    "DatasheetError",
    "DegenerateSampleError",
    "EnvCondition",
    "EnvProfile",
    "EnvSegment",
    "Measurement",
    "ModelError",
    "MppOracle",
    "MppResult",
    "MpptController",
    "NumericRangeError",
    "PVArray",
    "PhysicalConstants",
    "STC",
    "SegmentMetrics",
    "SimConfig",
    "SimRecord",
    "SimulationError",
    "StepAction",
    "StepOutcome",
    "TrackingMetrics",
    "band_gap",
    "builtin_table1_profile",
    "compute_metrics",
    "conventional_step",
    "derive_series_resistance",
    "find_mpp",
    "initial_state",
    "load_profile_csv",
    "open_circuit_voltage",
    "photon_current",
    "revised_step",
    "run_simulation",
    "saturation_current",
    "slope_term",
    "write_metrics_report",
    "write_trace_csv",
]
