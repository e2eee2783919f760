"""Maximum power point finder used as ground truth.

find_mpp, the package's one MPP computation, solves the five samples of
a uniform voltage grid centred on the explicit MPP voltage; the best of
them brackets the MPP, which golden-section search refines.  Valid under
uniform insolation, where the P-V curve has a single maximum.  The grid
is built in floats, each sample where np.linspace puts it; numpy is left
only in the cell solve's transcendentals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pvmodel import EnvCondition, PVArray

__all__ = ["GRID_POINTS", "MppResult", "pv_curve", "find_mpp", "MppOracle"]

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


def _golden_max(f, a: float, b: float) -> tuple[float, float]:
    """Maximize a unimodal f on [a, b] until the interval is below _REFINE_TOLERANCE_V."""
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = f(c), f(d)
    while b - a > _REFINE_TOLERANCE_V:
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


def _grid(v_oc: float, first: int, stop: int) -> list[float]:
    """Samples first..stop-1 of np.linspace(0.0, v_oc, GRID_POINTS), bit for bit.

    numpy's branch for a zero step is met only at v_oc = 0, where both give
    0.0: PVArray's V_oc is 0.0 or above about 1e-18 V.
    """
    step = v_oc / (GRID_POINTS - 1)
    return [v_oc if k == GRID_POINTS - 1 else k * step for k in range(first, stop)]


def pv_curve(array: PVArray, env: EnvCondition) -> tuple[list[float], list[float]]:
    """The array's (voltage, current) at GRID_POINTS voltages from 0 to V_oc.

    Zero irradiance has V_oc = 0, so every sample is V = 0, I = 0.
    """
    voltage = _grid(array.open_circuit_voltage(env), 0, GRID_POINTS)
    return voltage, array.current_at(voltage, env)


def find_mpp(array: PVArray, env: EnvCondition) -> MppResult:
    """The MPP, refined from the five pv_curve samples centred on the explicit MPP voltage.

    P(V) is strictly concave on [0, V_oc], so the grid neighbours of the best
    sample (the first, among equal powers) bracket the maximum, and golden-section
    search lands within _REFINE_TOLERANCE_V of it.  That is the whole sweep's
    result, except below about 6e-6 W/m^2, where the solver's 1e-9 A tolerance
    outweighs the power between samples, and above about 775 K, where the MPP lies
    within a few float steps of open circuit.  Zero irradiance gives (0, 0, 0).
    """
    v_oc = array.open_circuit_voltage(env)
    v_star = array.mpp_voltage(env)
    # v_star's rounded index is within one of the nearest sample's; clamped, as a hot
    # cell's v_star can fall below 0 or above V_oc, and at V_oc = 0 every sample is 0.0
    k = round(v_star / v_oc * (GRID_POINTS - 1)) if v_oc > 0 else 0
    k = min(max(k, 1), GRID_POINTS - 2)
    near = _grid(v_oc, k - 1, k + 2)
    # the first of two equally near samples, as argmin picks
    nearest = k - 1 + min(range(3), key=lambda j: abs(near[j] - v_star))
    window = _grid(v_oc, max(0, nearest - 2), min(nearest + 3, GRID_POINTS))
    current = array.current_at(window, env)
    best = max(range(len(window)), key=lambda j: window[j] * current[j])

    def p_of(v: float) -> float:
        return v * array.current_at(v, env)

    lo = window[max(0, best - 1)]
    hi = window[min(len(window) - 1, best + 1)]
    v_mpp, _ = _golden_max(p_of, lo, hi)
    i_mpp = array.current_at(v_mpp, env)
    return MppResult(v_mpp=v_mpp, i_mpp=i_mpp, p_mpp=v_mpp * i_mpp)


class MppOracle:
    """find_mpp with a per-(g, t) result cache.

    Piecewise-constant profiles revisit the same handful of conditions,
    so each distinct environment is solved once; `compare` warms one
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
