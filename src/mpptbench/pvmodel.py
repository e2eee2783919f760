"""Single-diode solar cell model with temperature and irradiance dependence.

The cell is the usual equivalent circuit: a photon current source in
parallel with a diode, a series resistance R_s, and an optional shunt
resistance R_p (neglected by default, i.e. infinite).  The terminal
current solves the implicit equation

    I = I_ph - I_0 * (exp(q*(V + I*R_s)/(n*k*T)) - 1) - (V + I*R_s)/R_p

which is solved by Newton's method started at min(I_ph, I_cap), where
I_cap follows from an upper bound on the diode voltage at the root.
With R_s > 0 the iteration converges monotonically from there (see
_solve_current), so it needs no damping and no fallback: every valid
input takes a few steps, however far above open circuit.  It stops at
the residual tolerance or where the step reaches the float spacing of
I; R_s = 0 has a closed form.  A solve that exhausts its iterations
raises ConvergenceError.
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
    """Newton on the single-diode residual from a start right of the root.

    For R_s > 0 the residual
    f(I) = I_ph - I_0*expm1((V+I*R_s)/vt) - (V+I*R_s)*g_p - I
    is strictly decreasing and concave in I.  f(-V/R_s) >= 0 and
    f(I_ph) <= 0, so the root's diode voltage x = V + I*R_s is >= 0 and
    I <= I_ph.  There I_0*expm1(x/vt) = I_ph - x*g_p - I <= I_ph + V/R_s,
    so x <= x_cap = vt*log1p((I_ph + V/R_s)/I_0) and I <= I_cap =
    (x_cap - V)/R_s.  Newton started at min(I_ph, I_cap), right of the
    root, therefore moves left without passing it: each step lowers I
    and |f|, and exp(x/vt) stays at most 1 + (I_ph + V/R_s)/I_0, so it
    cannot overflow.  Far above open circuit, where a start at I_ph
    lowers the exponent by only about one per step, the cap starts
    within a few steps of the root.

    A lane stops at |f| < tol, or where the step falls to 8 ulps of I:
    there the rounding of f can flip its sign, and a current of
    thousands of amperes cannot meet an absolute tolerance of 1e-9 A.
    Lanes still unconverged after max_iter steps raise ConvergenceError.
    R_s = 0 has the closed form I_ph - I_0*expm1(V/vt) - V*g_p, guarded
    against overflow, which would otherwise give -inf.
    """
    if r_s == 0.0:
        if np.any(v / vt > MAX_EXP_ARGUMENT):
            raise NumericRangeError("diode exponent exceeds the overflow guard; check V and params")
        return i_ph - i_0 * np.expm1(v / vt) - v * g_p

    i = np.minimum(i_ph, (vt * np.log1p((i_ph + v / r_s) / i_0) - v) / r_s)
    for _ in range(max_iter + 1):
        vd = v + i * r_s
        f = i_ph - i_0 * np.expm1(vd / vt) - vd * g_p - i
        step = f / (-i_0 * np.exp(vd / vt) * r_s / vt - r_s * g_p - 1.0)
        done = (np.abs(f) < tol) | (np.abs(step) <= 8 * np.spacing(np.abs(i)))
        if done.all():
            return i
        i = np.where(done, i, i - step)
    raise ConvergenceError("Newton did not converge", max_iter, float(np.abs(f[~done]).max()))


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
    same float and raises the same errors.  The transcendentals stay
    np.exp/np.expm1/np.log1p: their math counterparts can differ from
    numpy in the last bit.  math.ulp makes the same stop decision as
    np.spacing at a fraction of its cost on a float, and the step is
    only computed when the residual is not yet met.
    """
    if r_s == 0.0:
        if v / vt > MAX_EXP_ARGUMENT:
            raise NumericRangeError("diode exponent exceeds the overflow guard; check V and params")
        return i_ph - i_0 * float(np.expm1(v / vt)) - v * g_p

    i = min(i_ph, (vt * float(np.log1p((i_ph + v / r_s) / i_0)) - v) / r_s)
    for _ in range(max_iter + 1):
        vd = v + i * r_s
        f = i_ph - i_0 * float(np.expm1(vd / vt)) - vd * g_p - i
        if abs(f) < tol:
            return i
        step = f / (-i_0 * float(np.exp(vd / vt)) * r_s / vt - r_s * g_p - 1.0)
        if abs(step) <= 8 * math.ulp(i):
            return i
        i = i - step
    raise ConvergenceError("Newton did not converge", max_iter, abs(f))


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
