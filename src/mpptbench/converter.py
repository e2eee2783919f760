"""Idealized buck-boost stage between the array and a stiff dc bus.

Lossless continuous-conduction steady state with a constant-voltage
output bus: the panel-side voltage is v_bus*(1-d)/d, strictly decreasing
in the duty ratio d.  Stateless; the operating point settles within one
control interval.
"""

from __future__ import annotations

__all__ = ["BuckBoost"]


class BuckBoost:
    """Buck-boost converter feeding a stiff bus of voltage v_bus.

    The class attributes give the default duty clamps and the topology's
    sign of dV_panel/dd, the one value the constructor accepts for it.
    Treat an instance as read-only.
    """

    d_min = 0.05
    d_max = 0.95
    # Sign of dV_panel/dd for this topology; raising d lowers the panel voltage.
    sign_of_dv_dd = -1

    def __init__(
        self,
        v_bus: float,
        d_min: float = d_min,
        d_max: float = d_max,
        sign_of_dv_dd: int = sign_of_dv_dd,
    ):
        if not v_bus > 0:  # written so that NaN fails
            raise ValueError("v_bus must be > 0")
        if not (0.0 < d_min < d_max < 1.0):
            raise ValueError("duty clamps must satisfy 0 < d_min < d_max < 1")
        if sign_of_dv_dd != -1:  # terminal_voltage and the controllers assume -1
            raise ValueError("sign_of_dv_dd must be -1: raising d lowers the panel voltage")
        self.v_bus = v_bus
        self.d_min = d_min
        self.d_max = d_max

    def clamp_duty(self, d: float) -> float:
        """d clamped into [d_min, d_max]."""
        if d < self.d_min:
            return self.d_min
        if d > self.d_max:
            return self.d_max
        return d

    def terminal_voltage(self, d: float) -> float:
        """Panel-side voltage for duty d (clamped first)."""
        d_c = self.clamp_duty(d)
        return self.v_bus * (1.0 - d_c) / d_c

    def duty_for_voltage(self, v_target: float) -> float:
        """Duty ratio that places the panel at v_target, clamped into range.

        Inverse of terminal_voltage on the interior of the clamp range.
        """
        if not v_target > 0:  # written so that NaN fails
            raise ValueError("v_target must be > 0")
        return self.clamp_duty(self.v_bus / (self.v_bus + v_target))
