"""Tests for curve roots and the differential-equation coefficient."""

import cmath
import math
import random

import pytest

from fuchsian.curves import (
    HyperellipticCurve,
    fde_coefficient,
    roots,
)


def test_curve_validation():
    c = HyperellipticCurve(2, -1)
    assert c.degree == 5
    with pytest.raises(ValueError):
        HyperellipticCurve(0, 1)
    with pytest.raises(ValueError):
        HyperellipticCurve(2, 2)


def test_roots_solve_the_defining_equation():
    for g in range(1, 7):
        for sign in (1, -1):
            curve = HyperellipticCurve(g, sign)
            rs = roots(curve)
            n = curve.degree
            assert len(rs) == n
            for z in rs:
                assert abs(z**n + sign) < 1e-12
                assert abs(abs(z) - 1.0) < 1e-15


def test_roots_are_angle_ordered_in_half_open_turn():
    # ordering key is the angle in (0, 2*pi]: the root at angle 2*pi
    # (the point 1) comes last for sign -1
    rs = roots(HyperellipticCurve(2, -1))
    want = [
        cmath.exp(2j * math.pi * k / 5) for k in (1, 2, 3, 4)
    ] + [cmath.exp(2j * math.pi)]
    for got, expect in zip(rs, want):
        assert abs(got - expect) < 1e-15
    assert abs(rs[-1] - 1.0) < 1e-15

    rs_plus = roots(HyperellipticCurve(2, 1))
    want_plus = [cmath.exp(1j * math.pi * (2 * k + 1) / 5) for k in range(5)]
    for got, expect in zip(rs_plus, want_plus):
        assert abs(got - expect) < 1e-15


def test_fde_coefficient_frozen_value():
    # g=2, sign +1 at z=1: f=2, f'=5, f''=20 gives
    # (3/16)(25/4 - (6/5)*10) = -1.078125
    curve = HyperellipticCurve(2, 1)
    got = fde_coefficient(curve, 1.0)
    assert abs(got - (-1.078125)) < 1e-13


def test_fde_coefficient_matches_expanded_form():
    curve = HyperellipticCurve(2, 1)
    rng = random.Random(31)
    checked = 0
    while checked < 50:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) > 2 or abs(z**5 + 1) < 1e-3:
            continue
        checked += 1
        expanded = (3.0 / 16.0) * (
            25 * z**8 / (1 + z**5) ** 2 - 24 * z**3 / (1 + z**5)
        )
        assert abs(fde_coefficient(curve, z) - expanded) < 1e-12


def test_fde_coefficient_pole_at_root():
    curve = HyperellipticCurve(2, -1)
    with pytest.raises(ValueError):
        fde_coefficient(curve, 1.0)
