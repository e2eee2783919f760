"""Desk-scale MPPT simulator and benchmark harness.

Physics-based single-diode PV model, an idealized buck-boost stage, two
incremental-conductance MPPT controllers (fixed-step and adaptive-step),
a brute-force MPP oracle for ground truth, and a closed-loop simulation
harness with tracking metrics.  The names below cover a simulation run;
the rest of the API lives in the submodules.
"""

from .controllers import ControllerParams, MpptController
from .converter import BuckBoost
from .harness import SimConfig, compute_metrics, run_simulation
from .oracle import MppOracle
from .profiles import builtin_table1_profile
from .pvmodel import STC

__version__ = "0.1.0"

__all__ = [
    "BuckBoost",
    "ControllerParams",
    "MppOracle",
    "MpptController",
    "STC",
    "SimConfig",
    "builtin_table1_profile",
    "compute_metrics",
    "run_simulation",
]
