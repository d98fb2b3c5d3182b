"""Tests for the boundary group, surface subgroup, and fundamental polygon."""

import cmath
import math

import pytest

from fuchsian.curves import HyperellipticCurve, roots
from fuchsian.group_builder import (
    FuchsianGroupSpec,
    NonHyperbolicProductError,
    boundary_generators,
    subgroup_generators,
    verify_group,
)
from fuchsian.disk_geometry import fundamental_polygon, polygon_area
from fuchsian.moebius import MapClass, MoebiusMap, classify, compose, normalize


def test_boundary_generators_frozen_genus_two():
    base = boundary_generators(HyperellipticCurve(2, -1))
    assert base.kind == "boundary"
    assert len(base.generators) == 5
    t1, t2 = base.generators[0], base.generators[1]
    assert abs(t1.a - 1.7013016167j) < 1e-9
    assert abs(t1.b - (1.3090169944 + 0.4253254042j)) < 1e-9
    assert abs(t1.c - (1.3090169944 - 0.4253254042j)) < 1e-9
    assert abs(t1.d + 1.7013016167j) < 1e-9
    assert abs(t2.a + 1.7013016167j) < 1e-9
    assert abs(t2.b + 1.3763819205j) < 1e-9
    assert abs(t2.c - 1.3763819205j) < 1e-9
    assert abs(t2.d - 1.7013016167j) < 1e-9


def test_boundary_generators_swap_adjacent_roots():
    from fuchsian.moebius import apply

    for g in (1, 2, 3):
        for sign in (1, -1):
            curve = HyperellipticCurve(g, sign)
            rs = roots(curve)
            n = len(rs)
            base = boundary_generators(curve)
            for j, gen in enumerate(base.generators):
                z1, z2 = rs[j], rs[(j + 1) % n]
                assert abs(apply(gen, z1) - z2) < 1e-9
                assert abs(apply(gen, z2) - z1) < 1e-9


def test_boundary_group_contract_across_family():
    for g in range(1, 7):
        for sign in (1, -1):
            base = boundary_generators(HyperellipticCurve(g, sign))
            assert len(base.generators) == 2 * g + 1
            for gen in base.generators:
                assert abs(gen.det - 1.0) <= 1e-9
                assert abs(gen.trace) <= 1e-8
                assert classify(gen) is MapClass.ELLIPTIC
            report = verify_group(base)
            assert report.passed
            assert len(report.entries) == 2 * g + 1
            assert all(e.map_class == "elliptic" for e in report.entries)


def test_subgroup_products_frozen_traces_and_order():
    base = boundary_generators(HyperellipticCurve(2, -1))
    sub = subgroup_generators(base)
    assert sub.kind == "surface"
    assert sub.fixed_index == 1
    assert len(sub.generators) == 4
    want = (4.6180339887, 8.8541019662, 8.8541019662, 4.6180339887)
    for prod, expect in zip(sub.generators, want):
        assert classify(prod) is MapClass.HYPERBOLIC
        assert abs(abs(prod.trace) - expect) < 1e-8
    # first product is the fixed map times generator 2, in that order
    direct = normalize(compose(base.generators[0], base.generators[1]))
    first = sub.generators[0]
    assert max(abs(first.a - direct.a), abs(first.b - direct.b),
               abs(first.c - direct.c), abs(first.d - direct.d)) < 1e-12


def test_subgroup_with_other_fixed_indices():
    base = boundary_generators(HyperellipticCurve(2, -1))
    for k in range(1, 6):
        sub = subgroup_generators(base, k)
        assert sub.fixed_index == k
        assert len(sub.generators) == 4
        assert verify_group(sub).passed
    direct = normalize(compose(base.generators[2], base.generators[0]))
    first_of_k3 = subgroup_generators(base, 3).generators[0]
    assert abs(first_of_k3.a - direct.a) < 1e-12


def test_subgroup_argument_validation():
    base = boundary_generators(HyperellipticCurve(2, -1))
    with pytest.raises(ValueError):
        subgroup_generators(base, 0)
    with pytest.raises(ValueError):
        subgroup_generators(base, 6)
    sub = subgroup_generators(base)
    with pytest.raises(ValueError):
        subgroup_generators(sub)


def test_non_hyperbolic_product_is_detected():
    base = boundary_generators(HyperellipticCurve(2, -1))
    t1 = base.generators[0]
    # pairing a side map with itself gives an involution squared: -I,
    # which is parabolic-classified, never hyperbolic
    rigged = FuchsianGroupSpec("boundary", (t1, t1), base.curve)
    with pytest.raises(NonHyperbolicProductError):
        subgroup_generators(rigged)


def test_fundamental_polygon_shape():
    for g in range(1, 5):
        curve = HyperellipticCurve(g, -1)
        poly = fundamental_polygon(curve)
        assert len(poly.vertices) == 4 * g
        assert all(poly.ideal)
        for v in poly.vertices:
            assert abs(abs(v) - 1.0) < 1e-12
        assert len(set((round(v.real, 9), round(v.imag, 9)) for v in poly.vertices)) == 4 * g
        assert polygon_area(poly) == (4 * g - 2) * math.pi


def test_fundamental_polygon_vertices_genus_two():
    curve = HyperellipticCurve(2, -1)
    rs = roots(curve)
    poly = fundamental_polygon(curve)
    assert abs(poly.vertices[0] - rs[0]) < 1e-15
    for got, expect in zip(poly.vertices[4:], rs[1:]):
        assert abs(got - expect) < 1e-15
    # reflected copies of roots 3..5 across the first side, computed here
    # by circle inversion in the side's own circle
    from fuchsian.disk_geometry import geodesic_between

    side = geodesic_between(rs[0], rs[1])
    c, r = side.center, side.radius

    def invert(z: complex) -> complex:
        return c + r * r / (z - c).conjugate()

    want = [invert(rs[4]), invert(rs[3]), invert(rs[2])]
    for got, expect in zip(poly.vertices[1:4], want):
        assert abs(got - expect) < 1e-12
    # angles increase monotonically around the circle
    angles = [cmath.phase(v) % (2 * math.pi) for v in poly.vertices]
    assert all(a < b for a, b in zip(angles, angles[1:]))


def test_verify_group_flags_a_bent_generator():
    base = boundary_generators(HyperellipticCurve(2, -1))
    t1 = base.generators[0]
    bent = MoebiusMap(t1.a + 1e-3, t1.b, t1.c, t1.d)
    rigged = FuchsianGroupSpec("boundary", (bent,) + base.generators[1:], base.curve)
    report = verify_group(rigged)
    assert not report.passed
    assert not report.entries[0].passed
    assert all(e.passed for e in report.entries[1:])
    assert report.entries[0].label == "boundary[1]"


def test_verify_group_checks_hyperbolicity_of_products():
    base = boundary_generators(HyperellipticCurve(2, -1))
    elliptic_posing_as_product = FuchsianGroupSpec(
        "surface", (base.generators[0],), base.curve, fixed_index=1
    )
    report = verify_group(elliptic_posing_as_product)
    assert not report.passed
    assert report.entries[0].map_class == "elliptic"
