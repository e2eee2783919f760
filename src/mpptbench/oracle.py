"""Brute-force maximum power point finder used as ground truth.

Sweeps the array P-V curve on a uniform voltage grid and refines the
best bracket by golden-section search.  Valid under uniform insolation,
where the P-V curve has a single maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pvmodel import EnvCondition, PVArray

__all__ = ["GRID_POINTS", "MppResult", "pv_curve", "refine_mpp", "find_mpp", "MppOracle"]

# Voltage samples in the sweep from 0 to V_oc.
GRID_POINTS = 2000

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section search stops once the MPP bracket is narrower than this (V).
_REFINE_TOLERANCE_V = 1e-6


@dataclass(frozen=True)
class MppResult:
    """True maximum power point for one environment condition."""

    v_mpp: float
    i_mpp: float
    p_mpp: float


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Maximize a unimodal f on [a, b] until the interval is below tol."""
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def pv_curve(array: PVArray, env: EnvCondition) -> tuple[np.ndarray, np.ndarray]:
    """The array's (voltage, current) at GRID_POINTS voltages from 0 to V_oc.

    Zero irradiance has V_oc = 0, so every sample is V = 0, I = 0.
    """
    voltage = np.linspace(0.0, array.open_circuit_voltage(env), GRID_POINTS)
    return voltage, array.current_at(voltage, env)


def refine_mpp(
    array: PVArray, env: EnvCondition, voltage: np.ndarray, current: np.ndarray
) -> MppResult:
    """Locate the MPP from a pv_curve sweep by golden-section refinement.

    P(V) is strictly concave on [0, V_oc], so the grid neighbours of the
    best sample bracket the maximum and golden-section search lands
    within _REFINE_TOLERANCE_V of it.  Zero irradiance gives
    (0.0, 0.0, 0.0).
    Deterministic: identical inputs give bit-identical results.
    """
    best = int(np.argmax(voltage * current))

    def p_of(v: float) -> float:
        return v * float(array.current_at(v, env))

    lo = float(voltage[max(0, best - 1)])
    hi = float(voltage[min(GRID_POINTS - 1, best + 1)])
    v_mpp, _ = _golden_max(p_of, lo, hi, _REFINE_TOLERANCE_V)
    i_mpp = float(array.current_at(v_mpp, env))
    return MppResult(v_mpp=v_mpp, i_mpp=i_mpp, p_mpp=v_mpp * i_mpp)


def find_mpp(array: PVArray, env: EnvCondition) -> MppResult:
    """The MPP of one condition: refine_mpp on a fresh pv_curve sweep."""
    return refine_mpp(array, env, *pv_curve(array, env))


class MppOracle:
    """find_mpp with a per-(g, t) result cache.

    Piecewise-constant profiles revisit the same handful of conditions,
    so each distinct environment is swept once; `compare` warms one
    oracle, and its three forked controllers inherit the cache.  The
    cache is a plain dict; confine an instance to one thread or guard it
    externally.
    """

    def __init__(self, array: PVArray):
        self.array = array
        self._cache: dict[tuple[float, float], MppResult] = {}

    def find(self, env: EnvCondition) -> MppResult:
        key = (env.g, env.t)
        hit = self._cache.get(key)
        if hit is None:
            hit = find_mpp(self.array, env)
            self._cache[key] = hit
        return hit
