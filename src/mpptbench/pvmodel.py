"""Single-diode solar cell model with temperature and irradiance dependence.

The cell is a photon current source in parallel with a diode, behind a
series resistance R_s.  The terminal current solves the implicit equation

    I = I_ph - I_0 * (exp(q*(V + I*R_s)/(n*k*T)) - 1)

which one Newton solve in Python floats solves for each voltage (a float
gives a float, a sequence a list); numpy gives only its log1p, expm1 and
exp, the package's only numpy use (the oracle builds its voltage grid in
floats).  R_s, derived from the open-circuit slope alone, must be > 0; the
iteration then converges monotonically, with no damping and no fallback,
up to about 1e8 W/m^2 for bp_sx150 at 298 K.  A colder cell stops sooner:
from 273 K down to 120 K some grid voltages near V_oc fail at 1e8 W/m^2,
at 223 K and 120 K already at 3e7, and all solve at 1e7
(_solve_current_scalar gives the argument and the stop rule).  q and k
(Q, K), both solver limits and the (T - 1108) band gap are constants, not
arguments.  Arrays of identical, identically illuminated cells scale
linearly in series (voltage) and parallel (current).  The datasheet
values are taken at STC, which is also the reference (T_ref, G_ref) of
the temperature and irradiance scaling.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Q",
    "K",
    "SOLVER_TOL_A",
    "SOLVER_MAX_ITER",
    "CellParams",
    "ArrayConfig",
    "EnvCondition",
    "STC",
    "band_gap",
    "photon_current",
    "reference_saturation_current",
    "saturation_current",
    "derive_series_resistance",
    "PVArray",
]

Q = 1.602e-19  # elementary charge, C
K = 1.38e-23  # Boltzmann constant, J/K

# Newton stops once the residual of the cell current is below this.
SOLVER_TOL_A = 1e-9
SOLVER_MAX_ITER = 100  # Newton steps before an unconverged solve raises

# Guard for exp() arguments; beyond this the result is not representable.
MAX_EXP_ARGUMENT = 700.0


@dataclass(frozen=True)
class CellParams:
    """Datasheet-level electrical parameters of one solar cell.

    Voltages and the open-circuit slope are per cell; divide panel-level
    datasheet numbers by the cell count before constructing this.

    i_sc_ref: short-circuit current at STC, A
    v_oc_ref: open-circuit voltage at STC, V
    alpha: temperature coefficient of short-circuit current, 1/K
    n: diode ideality factor
    dv_di_oc: I-V slope dV/dI at open circuit, ohms (negative)
    """

    i_sc_ref: float
    v_oc_ref: float
    alpha: float
    n: float
    dv_di_oc: float

    def __post_init__(self):
        if not self.i_sc_ref > 0:  # written so that NaN fails
            raise ValueError("i_sc_ref must be > 0")
        if not self.v_oc_ref > 0:
            raise ValueError("v_oc_ref must be > 0")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if not self.n >= 1.0:
            raise ValueError("ideality factor n must be >= 1")
        if not self.dv_di_oc < 0:
            raise ValueError("dv_di_oc must be < 0 (I-V curve falls through open circuit)")


@dataclass(frozen=True)
class ArrayConfig:
    """Cells in series per string, and parallel strings."""

    n_series: int = 1
    n_parallel: int = 1

    def __post_init__(self):
        if not (self.n_series >= 1 and self.n_parallel >= 1):  # written so that NaN fails
            raise ValueError("n_series and n_parallel must be >= 1")


def band_gap(t: float) -> float:
    """Band-gap energy (eV) as a function of temperature.

    E_g = 1.16 - 0.000702 * T^2 / (T - 1108)

    This literal form is > 0 exactly on 0 < T < 1108 K: E_g > 1.16 below
    1108 K, E_g <= 1.16 - 0.000702 * 4432 above it.  Any other T, NaN too, raises.
    """
    if not 0.0 < t < 1108.0:  # written so that NaN fails
        raise ValueError(f"temperature t = {t} K is outside (0, 1108) K, where the band gap is > 0")
    return 1.16 - 0.000702 * t * t / (t - 1108.0)


@dataclass(frozen=True)
class EnvCondition:
    """Irradiance g (W/m^2) and cell temperature t (K)."""

    g: float
    t: float

    def __post_init__(self):
        if not self.g >= 0:  # written so that NaN fails
            raise ValueError("irradiance g must be >= 0")
        band_gap(self.t)  # raises unless 0 < t < 1108 K


# Standard test conditions (1000 W/m^2, 25 degC taken as 298 K): the
# reference condition of the datasheet values in CellParams.
STC = EnvCondition(g=1000.0, t=298.0)


def photon_current(params: CellParams, env: EnvCondition) -> float:
    """Light-generated current (A): linear in irradiance, linear temperature correction."""
    base = params.i_sc_ref * (1.0 + params.alpha * (env.t - STC.t))
    # irradiance scaling applied last so the linearity in g is exact in floats
    return (env.g / STC.g) * base


def _thermal_voltage(params: CellParams, t: float) -> float:
    return params.n * K * t / Q


def reference_saturation_current(params: CellParams) -> float:
    """Diode reverse saturation current at the STC temperature (A)."""
    x = params.v_oc_ref / _thermal_voltage(params, STC.t)
    if x > MAX_EXP_ARGUMENT:
        raise ValueError(f"saturation-current exponent {x:.1f} exceeds {MAX_EXP_ARGUMENT}")
    return params.i_sc_ref / (math.exp(x) - 1.0)


def saturation_current(params: CellParams, env: EnvCondition) -> float:
    """Saturation current at the given temperature (A).

    The reference value is scaled by (T/T_ref)^3 and the band-gap
    exponential; E_g is evaluated at the cell temperature.  An I_0 below
    the smallest normal float (a subnormal or 0.0, at a few kelvin)
    would leave V_oc infinite or divide by zero, so it raises.
    """
    i0_ref = reference_saturation_current(params)
    eg = band_gap(env.t)
    x = -Q * eg / (params.n * K) * (1.0 / env.t - 1.0 / STC.t)
    if abs(x) > MAX_EXP_ARGUMENT:
        raise ValueError(f"saturation-current exponent {x:.1f} exceeds {MAX_EXP_ARGUMENT}")
    i_0 = i0_ref * (env.t / STC.t) ** 3 * math.exp(x)
    if not i_0 >= sys.float_info.min:
        raise ValueError(f"saturation current {i_0:.3g} A at T = {env.t} K is not a normal float")
    return i_0


def derive_series_resistance(params: CellParams) -> float:
    """Series resistance (ohms) from the open-circuit I-V slope.

    R_s = -dV/dI|oc - n*k*T_ref / (I_0ref * q * exp(q*V_oc/(n*k*T_ref)))
    """
    i0_ref = reference_saturation_current(params)
    vt = _thermal_voltage(params, STC.t)
    diode_term = vt / (i0_ref * math.exp(params.v_oc_ref / vt))
    r_s = -params.dv_di_oc - diode_term
    if not r_s > 0:
        raise ValueError(
            f"derived series resistance is {r_s:.3e} ohm, not > 0: the open-circuit "
            f"slope |dV/dI|={-params.dv_di_oc:.3e} ohm is not larger than the diode term "
            f"{diode_term:.3e} ohm"
        )
    return r_s


def _solve_current_scalar(v: float, i_ph: float, i_0: float, vt: float, r_s: float) -> float:
    """Newton on the single-diode residual from a start right of the root.

    With R_s > 0 the residual
    f(I) = I_ph - I_0*expm1((V+I*R_s)/vt) - I
    is strictly decreasing and concave in I.  f(-V/R_s) >= 0 and
    f(I_ph) <= 0, so the root's diode voltage x = V + I*R_s is >= 0 and
    I <= I_ph.  There I_0*expm1(x/vt) = I_ph - I <= I_ph + V/R_s,
    so x <= x_cap = vt*log1p((I_ph + V/R_s)/I_0) and I <= I_cap =
    (x_cap - V)/R_s.  Newton started at min(I_ph, I_cap), right of the
    root, therefore moves left without passing it: each step lowers I
    and |f|, and exp(x/vt) stays at most 1 + (I_ph + V/R_s)/I_0, so it
    cannot overflow.  Far above open circuit, where a start at I_ph
    lowers the exponent by only about one per step, the cap starts
    within a few steps of the root.

    The solve stops at |f| < SOLVER_TOL_A, or where the step falls to 8 ulps of I:
    there the rounding of f can flip its sign, and a current of
    thousands of amperes cannot meet an absolute tolerance of 1e-9 A.
    A solve still unconverged after SOLVER_MAX_ITER steps raises ValueError.  That
    happens near V_oc at extreme irradiance: x moves in whole ulps, so |f|
    stays near I_0*exp(x/vt)*ulp(x)/vt > SOLVER_TOL_A while I alternates
    between two values just over 8 ulps apart.  For the bp_sx150 cell at
    298 K, all of 2,000 voltages from 0 to V_oc solve at g = 1e8 W/m^2;
    69 raise at 1.5e8 and 82 at 1e9 W/m^2 (62.6 to 76.7 V on the panel).
    The transcendentals stay numpy's, whose last bits the pinned outputs
    record; math's can differ in the last bit.
    """
    i = min(i_ph, (vt * float(np.log1p((i_ph + v / r_s) / i_0)) - v) / r_s)
    for _ in range(SOLVER_MAX_ITER + 1):
        vd = v + i * r_s
        f = i_ph - i_0 * float(np.expm1(vd / vt)) - i
        if abs(f) < SOLVER_TOL_A:
            return i
        step = f / (-i_0 * float(np.exp(vd / vt)) * r_s / vt - 1.0)
        if abs(step) <= 8 * math.ulp(i):
            return i
        i = i - step
    raise ValueError(
        f"Newton did not converge (iterations={SOLVER_MAX_ITER}, residual={abs(f):.3e} A)"
    )


class PVArray:
    """A uniform array of one cell type with a fixed series/parallel layout.

    Bundles the cell parameters and the series resistance derived from
    their open-circuit slope; the layout is the only setting.  constants,
    r_s, solver_tol, solver_max_iter and band_gap_denominator_sign accept
    only the model's own (Q, K), R_s (or None), SOLVER_TOL_A,
    SOLVER_MAX_ITER and -1, and raise ValueError at any other value.

    The solver constants of each environment (I_ph, I_0 and V_t) are
    memoized per (g, t), so the memo grows by one entry per distinct
    condition, as MppOracle's cache does.  Results are pure functions
    of the arguments: concurrent threads can at worst compute one memo
    entry twice, with the same value, so instances are safe to share
    across threads.
    Treat the attributes as read-only; the memo does not see changes.
    """

    def __init__(
        self,
        cell: CellParams,
        layout: ArrayConfig = ArrayConfig(),
        constants: tuple[float, float] = (Q, K),
        r_s: float | None = None,
        solver_tol: float = SOLVER_TOL_A,
        solver_max_iter: int = SOLVER_MAX_ITER,
        band_gap_denominator_sign: int = -1,
    ):
        self.r_s = derive_series_resistance(cell)
        for name, value, fixed in (
            ("constants", constants, (Q, K)),
            ("r_s", self.r_s if r_s is None else r_s, self.r_s),
            ("solver_tol", solver_tol, SOLVER_TOL_A),
            ("solver_max_iter", solver_max_iter, SOLVER_MAX_ITER),
            ("band_gap_denominator_sign", band_gap_denominator_sign, -1),
        ):
            if value != fixed:
                raise ValueError(f"{name} must be {fixed!r}: the cell model has one set of physics")
        self.cell = cell
        self.layout = layout
        self.constants = (Q, K)
        self.band_gap_denominator_sign = -1
        self.solver_tol = SOLVER_TOL_A
        self.solver_max_iter = SOLVER_MAX_ITER
        self._solver_constants: dict[tuple[float, float], tuple[float, float, float]] = {}

    def _constants_at(self, env: EnvCondition) -> tuple[float, float, float]:
        """(i_ph, i_0, vt) of the cell at env, memoized per (g, t)."""
        key = (env.g, env.t)
        found = self._solver_constants.get(key)
        if found is None:
            cell = self.cell
            i_ph = photon_current(cell, env)
            if i_ph < 0:  # alpha*(T - T_ref) < -1 leaves no I-V curve
                raise ValueError(f"alpha = {cell.alpha} gives I_ph < 0 at T = {env.t} K")
            i_0 = saturation_current(cell, env)
            if not math.isfinite(i_ph / i_0):  # no finite V_oc (bp_sx150, 298 K: g > 2.5e303 W/m^2)
                raise ValueError(f"I_ph / I_0 overflows at g = {env.g} W/m^2, T = {env.t} K")
            found = (i_ph, i_0, _thermal_voltage(cell, env.t))
            self._solver_constants[key] = found
        return found

    def current_at(self, v_array, env: EnvCondition):
        """Array current (A) at v_array (V): a float, or a list of floats for a sequence."""
        if isinstance(v_array, (float, int)):
            v_cell = float(v_array) / self.layout.n_series
            if not v_cell >= 0:  # written so that NaN fails
                raise ValueError("cell voltage must be >= 0")
            return self.layout.n_parallel * _solve_current_scalar(
                v_cell, *self._constants_at(env), self.r_s
            )
        # each element through PVArray's own float branch: an override sees one call per request
        return [PVArray.current_at(self, float(v), env) for v in v_array]

    def open_circuit_voltage(self, env: EnvCondition) -> float:
        """Array-level open-circuit voltage (V), the root at I = 0: +0.0 at g = 0.0 or -0.0.

        log(. + 1), whose bits the pinned outputs record, not mpp_voltage's log1p: it is 0.0
        once I_ph/I_0 < 2**-53 (from 814 K at 1000 W/m^2), and 8.6% low at 1e-20 W/m^2, 298 K.
        """
        i_ph, i_0, vt = self._constants_at(env)
        return vt * math.log(i_ph / i_0 + 1.0) * self.layout.n_series

    def mpp_voltage(self, env: EnvCondition) -> float:
        """Array-level MPP voltage (V), on the curve made explicit by the diode voltage x.

        I(x) = I_ph - I_0*expm1(x/vt) and V(x) = x - R_s*I(x) rises with x, so
        dP/dx = I*(1 + R_s*e) - V*e, with e = I_0*exp(x/vt)/vt, is > 0 where V <= 0
        and changes sign once on [0, x_oc]; bisection finds that x to float precision.
        """
        i_ph, i_0, vt = self._constants_at(env)
        r_s = self.r_s
        # x_oc by log1p: open_circuit_voltage's log(. + 1) took find_mpp off the sweep from 625 K
        lo, hi = 0.0, vt * math.log1p(i_ph / i_0)
        x = 0.5 * (lo + hi)
        while lo < x < hi:
            i = i_ph - i_0 * math.expm1(x / vt)
            e = i_0 * math.exp(x / vt) / vt
            if i * (1.0 + r_s * e) > (x - r_s * i) * e:
                lo = x
            else:
                hi = x
            x = 0.5 * (lo + hi)
        return (x - r_s * (i_ph - i_0 * math.expm1(x / vt))) * self.layout.n_series
