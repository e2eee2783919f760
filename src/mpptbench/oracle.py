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

__all__ = ["MppResult", "find_mpp", "MppOracle"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section search stops once the MPP bracket is narrower than this (V).
_REFINE_TOLERANCE_V = 1e-6


@dataclass(frozen=True)
class MppResult:
    """True maximum power point for one environment condition."""

    v_mpp: float
    i_mpp: float
    p_mpp: float
    env: EnvCondition


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


def find_mpp(array: PVArray, env: EnvCondition, grid_points: int = 2000) -> MppResult:
    """Locate the MPP by grid sweep plus golden-section refinement.

    P(V) is strictly concave on [0, V_oc], so the grid neighbours of the
    best sample bracket the maximum and golden-section search lands
    within _REFINE_TOLERANCE_V of it.  Zero irradiance yields the
    degenerate result (0, 0, 0).  Deterministic: identical inputs
    give bit-identical results.
    """
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")
    if env.g <= 0:
        return MppResult(v_mpp=0.0, i_mpp=0.0, p_mpp=0.0, env=env)

    v_oc = array.open_circuit_voltage(env)
    grid = np.linspace(0.0, v_oc, grid_points)
    power = grid * array.current_at(grid, env)
    best = int(np.argmax(power))

    def p_of(v: float) -> float:
        return v * float(array.current_at(v, env))

    lo = float(grid[max(0, best - 1)])
    hi = float(grid[min(grid_points - 1, best + 1)])
    v_mpp, _ = _golden_max(p_of, lo, hi, _REFINE_TOLERANCE_V)
    i_mpp = float(array.current_at(v_mpp, env))
    return MppResult(v_mpp=v_mpp, i_mpp=i_mpp, p_mpp=v_mpp * i_mpp, env=env)


class MppOracle:
    """find_mpp with a per-(g, t) result cache.

    Piecewise-constant profiles revisit the same handful of conditions,
    so each distinct environment is swept once; `compare` shares one
    oracle across its three controllers.  The cache is a plain dict;
    confine an instance to one thread or guard it externally.
    """

    def __init__(self, array: PVArray, grid_points: int = 2000):
        self.array = array
        self.grid_points = grid_points
        self._cache: dict[tuple[float, float], MppResult] = {}

    def find(self, env: EnvCondition) -> MppResult:
        key = (env.g, env.t)
        hit = self._cache.get(key)
        if hit is None:
            hit = find_mpp(self.array, env, self.grid_points)
            self._cache[key] = hit
        return hit
