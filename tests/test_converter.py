"""Buck-boost stage tests: conversion law, clamps, inverse identity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpptbench.converter import BuckBoost


@pytest.fixture()
def conv() -> BuckBoost:
    return BuckBoost(v_bus=34.5)


def test_midpoint_duty_gives_bus_voltage(conv):
    assert conv.terminal_voltage(0.5) == conv.v_bus


def test_quarter_duty(conv):
    assert conv.terminal_voltage(0.25) == pytest.approx(103.5, rel=1e-15)
    assert conv.clamp_duty(0.25) == 0.25


def test_clamp_low(conv):
    assert conv.terminal_voltage(0.01) == conv.terminal_voltage(conv.d_min)
    assert conv.clamp_duty(0.01) == conv.d_min == conv.clamp_duty(conv.d_min)


def test_clamp_high(conv):
    assert conv.terminal_voltage(0.99) == conv.terminal_voltage(conv.d_max)


def test_duty_for_bus_voltage(conv):
    assert conv.duty_for_voltage(conv.v_bus) == 0.5


def test_duty_for_huge_voltage_hits_lower_clamp(conv):
    assert conv.duty_for_voltage(1e12) == conv.d_min


def test_duty_for_nonpositive_voltage(conv):
    with pytest.raises(ValueError):
        conv.duty_for_voltage(0.0)


@given(d=st.floats(min_value=0.06, max_value=0.94))
@settings(max_examples=200, deadline=None)
def test_inverse_identity(d):
    conv = BuckBoost(v_bus=34.5)
    v = conv.terminal_voltage(d)
    assert conv.duty_for_voltage(v) == pytest.approx(d, rel=1e-12)
    assert conv.terminal_voltage(conv.duty_for_voltage(v)) == pytest.approx(
        v, rel=1e-12
    )


@given(
    d1=st.floats(min_value=0.05, max_value=0.95),
    d2=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=200, deadline=None)
def test_strictly_decreasing_in_duty(d1, d2):
    conv = BuckBoost(v_bus=48.0)
    if d1 == d2:
        return
    lo, hi = min(d1, d2), max(d1, d2)
    assert conv.terminal_voltage(lo) > conv.terminal_voltage(hi)


def test_validation():
    with pytest.raises(ValueError):
        BuckBoost(v_bus=-1.0)
    with pytest.raises(ValueError):
        BuckBoost(v_bus=34.5, d_min=0.5, d_max=0.4)
    with pytest.raises(ValueError):
        BuckBoost(v_bus=34.5, d_min=0.0, d_max=0.95)


def test_polarity_constant():
    assert BuckBoost(v_bus=34.5).sign_of_dv_dd == -1


@pytest.mark.parametrize("sign", [1, 0, 7])
def test_any_other_polarity_is_rejected(sign):
    with pytest.raises(ValueError, match="sign_of_dv_dd must be -1"):
        BuckBoost(30.0, 0.05, 0.95, sign)
