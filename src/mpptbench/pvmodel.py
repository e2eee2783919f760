"""Single-diode solar cell model with temperature and irradiance dependence.

The cell is the usual equivalent circuit: a photon current source in
parallel with a diode, a series resistance R_s, and an optional shunt
resistance R_p (neglected by default, i.e. infinite).  The terminal
current solves the implicit equation

    I = I_ph - I_0 * (exp(q*(V + I*R_s)/(n*k*T)) - 1) - (V + I*R_s)/R_p

which is solved by Newton's method started at I = I_ph.  With R_s >= 0
the iteration converges monotonically (see _solve_current), so it needs
no damping; a bisection fallback takes any voltage that runs out of
iterations, such as one far above open circuit.
Arrays of identical, identically illuminated cells scale linearly in
series (voltage) and parallel (current).

The control loop and the MPP oracle's refinement solve one voltage at a
time, so a scalar voltage takes a plain-float copy of the numpy Newton
solve, and PVArray memoizes the per-condition constants (I_ph, I_0,
V_t) instead of rebuilding them on every call.  Both paths return the
same floats; voltage grids stay on numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "CellParams",
    "ArrayConfig",
    "EnvCondition",
    "STC",
    "ModelError",
    "NumericRangeError",
    "ConvergenceError",
    "DatasheetError",
    "band_gap",
    "photon_current",
    "reference_saturation_current",
    "saturation_current",
    "derive_series_resistance",
    "open_circuit_voltage",
    "PVArray",
]

# Guard for exp() arguments; beyond this the result is not representable.
MAX_EXP_ARGUMENT = 700.0


class ModelError(Exception):
    """Base class for cell-model failures."""


class NumericRangeError(ModelError):
    """An intermediate quantity left the representable/valid range."""


class ConvergenceError(ModelError):
    """The implicit-current solver did not reach the residual tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e} A)")
        self.iterations = iterations
        self.residual = residual


class DatasheetError(ModelError):
    """Datasheet-derived parameters are mutually inconsistent."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Elementary charge (C) and Boltzmann constant (J/K)."""

    q: float = 1.602e-19
    k: float = 1.38e-23


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class CellParams:
    """Datasheet-level electrical parameters of one solar cell.

    Voltages and the open-circuit slope are per cell; divide panel-level
    datasheet numbers by the cell count before constructing this.

    i_sc_ref: short-circuit current at reference conditions, A
    v_oc_ref: open-circuit voltage at reference conditions, V
    alpha: temperature coefficient of short-circuit current, 1/K
    n: diode ideality factor
    dv_di_oc: I-V slope dV/dI at open circuit, ohms (negative)
    r_p: shunt resistance, ohms; None means neglected (infinite)
    """

    i_sc_ref: float
    v_oc_ref: float
    alpha: float
    n: float
    dv_di_oc: float
    r_p: float | None = None
    t_ref: float = 298.0
    g_ref: float = 1000.0

    def __post_init__(self):
        if self.i_sc_ref <= 0:
            raise ValueError("i_sc_ref must be > 0")
        if self.v_oc_ref <= 0:
            raise ValueError("v_oc_ref must be > 0")
        if self.n < 1.0:
            raise ValueError("ideality factor n must be >= 1")
        if self.dv_di_oc >= 0:
            raise ValueError("dv_di_oc must be < 0 (I-V curve falls through open circuit)")
        if self.r_p is not None and self.r_p <= 0:
            raise ValueError("r_p must be > 0 when finite")
        if self.t_ref <= 0:
            raise ValueError("t_ref must be > 0")
        if self.g_ref <= 0:
            raise ValueError("g_ref must be > 0")


@dataclass(frozen=True)
class ArrayConfig:
    """Cells in series per string, and parallel strings."""

    n_series: int = 1
    n_parallel: int = 1

    def __post_init__(self):
        if self.n_series < 1 or self.n_parallel < 1:
            raise ValueError("n_series and n_parallel must be >= 1")


@dataclass(frozen=True)
class EnvCondition:
    """Irradiance g (W/m^2) and cell temperature t (K)."""

    g: float
    t: float

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("irradiance g must be >= 0")
        if self.t <= 0:
            raise ValueError("temperature t must be > 0 K")


# Standard test conditions (1000 W/m^2, 25 degC taken as 298 K).
STC = EnvCondition(g=1000.0, t=298.0)


def band_gap(t: float, denominator_sign: int = -1) -> float:
    """Band-gap energy (eV) as a function of temperature.

    E_g = 1.16 - 0.000702 * T^2 / (T + denominator_sign * 1108)

    The default denominator_sign=-1 keeps the literal (T - 1108) form;
    +1 selects the standard Varshni form for sensitivity studies.
    """
    if t <= 0:
        raise ValueError("temperature must be > 0 K")
    denom = t + denominator_sign * 1108.0
    if denom == 0.0:
        raise NumericRangeError("band-gap denominator vanishes at this temperature")
    return 1.16 - 0.000702 * t * t / denom


def photon_current(params: CellParams, env: EnvCondition) -> float:
    """Light-generated current (A): linear in irradiance, linear temperature correction."""
    base = params.i_sc_ref * (1.0 + params.alpha * (env.t - params.t_ref))
    # irradiance scaling applied last so the linearity in g is exact in floats
    return (env.g / params.g_ref) * base


def _thermal_voltage(params: CellParams, t: float, constants: PhysicalConstants) -> float:
    return params.n * constants.k * t / constants.q


def reference_saturation_current(
    params: CellParams, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Diode reverse saturation current at reference temperature (A)."""
    x = params.v_oc_ref / _thermal_voltage(params, params.t_ref, constants)
    if x > MAX_EXP_ARGUMENT:
        raise NumericRangeError(f"saturation-current exponent {x:.1f} exceeds {MAX_EXP_ARGUMENT}")
    return params.i_sc_ref / (math.exp(x) - 1.0)


def saturation_current(
    params: CellParams,
    env: EnvCondition,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    band_gap_denominator_sign: int = -1,
) -> float:
    """Saturation current at the given temperature (A).

    The reference value is scaled by (T/T_ref)^3 and the band-gap
    exponential; E_g is evaluated at the cell temperature.
    """
    i0_ref = reference_saturation_current(params, constants)
    eg = band_gap(env.t, band_gap_denominator_sign)
    x = -constants.q * eg / (params.n * constants.k) * (1.0 / env.t - 1.0 / params.t_ref)
    if abs(x) > MAX_EXP_ARGUMENT:
        raise NumericRangeError(f"saturation-current exponent {x:.1f} exceeds {MAX_EXP_ARGUMENT}")
    return i0_ref * (env.t / params.t_ref) ** 3 * math.exp(x)


def derive_series_resistance(
    params: CellParams, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Series resistance (ohms) from the open-circuit I-V slope.

    R_s = -dV/dI|oc - n*k*T_ref / (I_0ref * q * exp(q*V_oc/(n*k*T_ref)))
    """
    i0_ref = reference_saturation_current(params, constants)
    vt = _thermal_voltage(params, params.t_ref, constants)
    diode_term = vt / (i0_ref * math.exp(params.v_oc_ref / vt))
    r_s = -params.dv_di_oc - diode_term
    if r_s < 0:
        raise DatasheetError(
            f"derived series resistance is negative ({r_s:.3e} ohm): the open-circuit "
            f"slope |dV/dI|={-params.dv_di_oc:.3e} is smaller than the diode term "
            f"{diode_term:.3e}"
        )
    return r_s


def _solve_current(
    v: np.ndarray,
    i_ph: float,
    i_0: float,
    vt: float,
    r_s: float,
    g_p: float,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """Newton on the single-diode residual, bisection fallback.

    For R_s >= 0 the residual
    f(I) = I_ph - I_0*expm1((V+I*R_s)/vt) - (V+I*R_s)*g_p - I
    is strictly decreasing and concave in I, and f(I_ph) <= 0 whenever
    V + I_ph*R_s >= 0 (V >= 0, I_ph >= 0).  Newton started at I_ph, right
    of the root, therefore moves left without passing the root: each
    step lowers I and |f|, and the diode exponent never rises above its
    value at I_ph, which the overflow guard checks.  Lanes that are
    still unconverged after max_iter steps (the exponent falls by about
    one per step far above open circuit) are solved by bisection.
    """
    x0 = (v + i_ph * r_s) / vt
    if np.any(x0 > MAX_EXP_ARGUMENT):
        raise NumericRangeError("diode exponent exceeds the overflow guard; check V and params")

    def residual(i):
        vd = v + i * r_s
        return i_ph - i_0 * np.expm1(vd / vt) - vd * g_p - i

    i = np.full_like(v, i_ph, dtype=float)
    f = residual(i)
    for _ in range(max_iter):
        converged = np.abs(f) < tol
        if converged.all():
            return i
        e = np.exp((v + i * r_s) / vt)
        df = -i_0 * e * r_s / vt - r_s * g_p - 1.0
        i_new = i - f / df
        f_new = residual(i_new)
        i = np.where(converged, i, i_new)
        f = np.where(converged, f, f_new)

    # bisection for the lanes Newton left over; lo doubles until the bracket holds the root
    out = i.copy()
    for idx in np.flatnonzero(~(np.abs(f) < tol)):
        vi = float(v[idx])

        def fr(ii):
            vd = vi + ii * r_s
            return i_ph - i_0 * math.expm1(vd / vt) - vd * g_p - ii

        lo, hi = -0.1 * i_ph, 1.2 * i_ph
        expand = 0
        while fr(lo) * fr(hi) > 0 and expand < 64:
            lo = lo - max(abs(lo), 0.1 * i_ph + 1e-6)
            expand += 1
        if fr(lo) * fr(hi) > 0:
            raise ConvergenceError(
                "no bracket for the single-diode residual", max_iter, float(abs(f[idx]))
            )
        flo = fr(lo)
        root = 0.5 * (lo + hi)
        for it in range(200):
            root = 0.5 * (lo + hi)
            fm = fr(root)
            if abs(fm) < tol:
                break
            if flo * fm <= 0:
                hi = root
            else:
                lo, flo = root, fm
        else:
            raise ConvergenceError("bisection fallback stalled", max_iter + 200, abs(fr(root)))
        out[idx] = root
    return out


def _solve_current_scalar(
    v: float,
    i_ph: float,
    i_0: float,
    vt: float,
    r_s: float,
    g_p: float,
    tol: float,
    max_iter: int,
) -> float:
    """_solve_current for one voltage, in Python floats.

    Follows _solve_current expression by expression, so it returns the
    same float.  The transcendentals stay np.exp/np.expm1: math.exp and
    math.expm1 can differ from numpy in the last bit.  If Newton leaves
    the voltage unconverged, it goes to _solve_current, which owns the
    bisection fallback.
    """
    if (v + i_ph * r_s) / vt > MAX_EXP_ARGUMENT:
        raise NumericRangeError("diode exponent exceeds the overflow guard; check V and params")

    def residual(i):
        vd = v + i * r_s
        return i_ph - i_0 * float(np.expm1(vd / vt)) - vd * g_p - i

    i = i_ph
    f = residual(i)
    for _ in range(max_iter):
        if abs(f) < tol:
            return i
        e = float(np.exp((v + i * r_s) / vt))
        df = -i_0 * e * r_s / vt - r_s * g_p - 1.0
        i = i - f / df
        f = residual(i)
    if abs(f) < tol:
        return i
    return float(_solve_current(np.array([v]), i_ph, i_0, vt, r_s, g_p, tol, max_iter)[0])


def open_circuit_voltage(
    params: CellParams,
    env: EnvCondition,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    band_gap_denominator_sign: int = -1,
) -> float:
    """Per-cell open-circuit voltage (V) at the given conditions.

    Root of the terminal equation at I = 0; closed form when the shunt
    is neglected, otherwise a short bisection. Zero irradiance gives 0.
    """
    i_ph = photon_current(params, env)
    if i_ph <= 0:
        return 0.0
    i_0 = saturation_current(params, env, constants, band_gap_denominator_sign)
    vt = _thermal_voltage(params, env.t, constants)
    v_diode = vt * math.log(i_ph / i_0 + 1.0)
    if params.r_p is None:
        return v_diode

    def h(v):  # current balance at open circuit; strictly decreasing in v
        return i_ph - i_0 * math.expm1(v / vt) - v / params.r_p

    lo, hi = 0.0, v_diode
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


class PVArray:
    """A uniform array of one cell type with a fixed series/parallel layout.

    Bundles the cell parameters, derived series resistance, and solver
    settings so callers can evaluate the array I-V curve with one object.

    The solver constants of each environment (I_ph, I_0, V_t and the
    shunt conductance) are memoized per (g, t), so the memo grows by one
    entry per distinct condition, as MppOracle's cache does.  A scalar
    voltage is solved in Python floats, an array in numpy; both give
    the same floats.  Results are pure functions of the arguments:
    concurrent threads can at worst compute one memo entry twice, with
    the same value, so instances are safe to share across threads.
    Treat the attributes as read-only; the memo does not see changes.
    """

    def __init__(
        self,
        cell: CellParams,
        layout: ArrayConfig = ArrayConfig(),
        constants: PhysicalConstants = DEFAULT_CONSTANTS,
        r_s: float | None = None,
        solver_tol: float = 1e-9,
        solver_max_iter: int = 100,
        band_gap_denominator_sign: int = -1,
    ):
        self.cell = cell
        self.layout = layout
        self.constants = constants
        self.band_gap_denominator_sign = band_gap_denominator_sign
        self.solver_tol = solver_tol
        self.solver_max_iter = solver_max_iter
        self.r_s = derive_series_resistance(cell, constants) if r_s is None else r_s
        if self.r_s < 0:
            raise ValueError("r_s must be >= 0")  # the Newton solve needs it
        self._solver_constants: dict[tuple[float, float], tuple[float, float, float, float]] = {}

    def _constants_at(self, env: EnvCondition) -> tuple[float, float, float, float]:
        """(i_ph, i_0, vt, g_p) of the cell at env, memoized per (g, t)."""
        key = (env.g, env.t)
        found = self._solver_constants.get(key)
        if found is None:
            cell = self.cell
            found = (
                photon_current(cell, env),
                saturation_current(cell, env, self.constants, self.band_gap_denominator_sign),
                _thermal_voltage(cell, env.t, self.constants),
                0.0 if cell.r_p is None else 1.0 / cell.r_p,
            )
            self._solver_constants[key] = found
        return found

    def current_at(self, v_array, env: EnvCondition):
        """Array current (A) at terminal voltage v_array (scalar or array)."""
        if isinstance(v_array, float) or np.ndim(v_array) == 0:
            v_cell = float(v_array) / self.layout.n_series
            if v_cell < 0:
                raise ValueError("cell voltage must be >= 0")
            solve = _solve_current_scalar
        else:
            v_cell = np.asarray(v_array, dtype=float) / self.layout.n_series
            if np.any(v_cell < 0):
                raise ValueError("cell voltage must be >= 0")
            solve = _solve_current
        i_ph, i_0, vt, g_p = self._constants_at(env)
        i_cell = solve(
            v_cell, i_ph, i_0, vt, self.r_s, g_p, self.solver_tol, self.solver_max_iter
        )
        return self.layout.n_parallel * i_cell

    def open_circuit_voltage(self, env: EnvCondition) -> float:
        """Array-level open-circuit voltage (V)."""
        v_cell = open_circuit_voltage(
            self.cell, env, self.constants, self.band_gap_denominator_sign
        )
        return v_cell * self.layout.n_series
