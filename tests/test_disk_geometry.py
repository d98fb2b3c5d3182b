"""Tests for Poincare disk geodesics, side pairings, and areas."""

import cmath
import math
import random
import sys
import threading
import time

import pytest

from fuchsian import cli, disk_geometry
from fuchsian.curves import HyperellipticCurve
from fuchsian.disk_geometry import (
    GeodesicArc,
    HyperbolicPolygon,
    fundamental_polygon,
    geodesic_apex,
    geodesic_between,
    interior_angles,
    point_on_geodesic,
    polygon_area,
    root_polygon,
)
from fuchsian.group_builder import boundary_generators, side_pairing_elliptic
from fuchsian.moebius import INFINITY, MoebiusMap, apply, compose, cross_ratio
from oracles import polygon_from_vertices


def disk_point(rng: random.Random, rmax: float = 0.95) -> complex:
    r = rmax * math.sqrt(rng.random())
    t = rng.uniform(0, 2 * math.pi)
    return r * cmath.exp(1j * t)


def ideal_point(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0, 2 * math.pi))


# --- cross-ratio (moebius) -----------------------------------------------


def test_cross_ratio_matches_direct_formula():
    z1, z2, z3, z4 = 1 + 1j, 2, -1j, 0.5 - 0.5j
    want = (z1 - z2) * (z3 - z4) / ((z2 - z3) * (z4 - z1))
    assert abs(cross_ratio(z1, z2, z3, z4) - want) < 1e-14


def test_cross_ratio_infinity_cases_match_finite_limits():
    rng = random.Random(21)
    big = 1e9
    for slot in range(4):
        pts_fin = [disk_point(rng) for _ in range(4)]
        pts_inf = list(pts_fin)
        pts_fin[slot] = complex(big, big / 3)
        pts_inf[slot] = INFINITY
        limit = cross_ratio(*pts_fin)
        exact = cross_ratio(*pts_inf)
        assert abs(limit - exact) < 1e-6


def test_cross_ratio_rejects_coincident_points():
    with pytest.raises(ValueError):
        cross_ratio(1, 1, 2, 3)
    with pytest.raises(ValueError):
        cross_ratio(INFINITY, INFINITY, 2, 3)
    # every pair of slots, with all points finite and with INFINITY in
    # each other slot
    for i in range(4):
        for j in range(i + 1, 4):
            pts = [1, 2j, -1, 0.5]
            pts[j] = pts[i]
            variants = [pts] + [
                pts[:k] + [INFINITY] + pts[k + 1 :] for k in range(4) if k not in (i, j)
            ]
            for args in variants:
                with pytest.raises(ValueError, match="coincident"):
                    cross_ratio(*args)


def test_cross_ratio_moebius_invariance():
    rng = random.Random(22)
    for _ in range(40):
        pts = [disk_point(rng) for _ in range(4)]
        if len(set(pts)) < 4:
            continue
        base = cross_ratio(*pts)
        m = MoebiusMap(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        ) if rng.random() > 0.5 else MoebiusMap(1, 0.3, 0.3, 1)
        if abs(m.det) < 1e-3:
            continue
        moved = [apply(m, z) for z in pts]
        if any(z is INFINITY for z in moved):
            continue
        assert abs(cross_ratio(*moved) - base) < 1e-7


# --- geodesics -----------------------------------------------------------


def test_arc_orthogonality_and_incidence():
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        z1, z2 = ideal_point(rng), ideal_point(rng)
        if abs((z1.conjugate() * z2).imag) < 1e-3:
            continue
        g = geodesic_between(z1, z2)
        assert abs(abs(g.center) ** 2 - g.radius**2 - 1.0) < 1e-9
        assert abs(abs(z1 - g.center) - g.radius) < 1e-9
        assert abs(abs(z2 - g.center) - g.radius) < 1e-9
        checked += 1


def test_geodesic_rejects_bad_input():
    with pytest.raises(ValueError, match="coincident"):
        geodesic_between(1j, 1j)
    # outside the disk, inside it, and two interior points 3e-6 apart at
    # |z| = 1 - 1e-8, where a 2x2 solve for the center cancels
    near = 0.955336479572241 + 0.29552020370613746j
    for z1, z2 in ((1.5, 1j), (1j, 0.5), (near, 0.955335593007331 + 0.29552306971424636j),
                   (complex("nan"), 1j)):
        with pytest.raises(ValueError, match="not an ideal point"):
            geodesic_between(z1, z2)
    # two ideal points on a diameter, exactly and within COLLINEAR_TOL
    for z2 in (-1, cmath.exp(1j * (math.pi + 5e-10))):
        with pytest.raises(ValueError, match="collinear with the origin"):
            geodesic_between(1, z2)


def test_apex_closed_form_for_ideal_endpoints():
    rng = random.Random(24)
    for _ in range(40):
        t1 = rng.uniform(0, 2 * math.pi)
        dt = rng.uniform(0.2, math.pi - 0.2)
        t2 = t1 + dt
        z1, z2 = cmath.exp(1j * t1), cmath.exp(1j * t2)
        half = dt / 2.0
        want = ((1 - math.sin(half)) / math.cos(half)) * cmath.exp(
            1j * (t1 + t2) / 2.0
        )
        assert abs(geodesic_apex(z1, z2) - want) < 1e-12


def test_apex_is_the_minimum_modulus_point():
    z1, z2 = cmath.exp(0.4j), cmath.exp(1.9j)
    g = geodesic_between(z1, z2)
    apex = geodesic_apex(z1, z2)
    assert point_on_geodesic(apex, g) < 1e-12
    # walk the arc: no sampled point comes closer to the origin
    a1 = cmath.phase(z1 - g.center)
    a2 = cmath.phase(z2 - g.center)
    lo, hi = min(a1, a2), max(a1, a2)
    if hi - lo > math.pi:
        lo, hi = hi, lo + 2 * math.pi
    for i in range(101):
        t = lo + (hi - lo) * i / 100.0
        on_arc = g.center + g.radius * cmath.exp(1j * t)
        assert abs(on_arc) >= abs(apex) - 1e-12


# --- side pairings (group_builder) ---------------------------------------


def test_side_pairing_swaps_endpoints_and_fixes_apex():
    rng = random.Random(25)
    checked = 0
    while checked < 40:
        z1, z2 = ideal_point(rng), ideal_point(rng)
        if abs(z1 - z2) < 0.1 or abs((z1.conjugate() * z2).imag) < 1e-3:
            continue
        m = geodesic_apex(z1, z2)
        t = side_pairing_elliptic(z1, z2, m)
        assert abs(apply(t, z1) - z2) < 1e-9
        assert abs(apply(t, z2) - z1) < 1e-9
        assert abs(apply(t, m) - m) < 1e-9
        assert t.trace == 0
        assert abs(t.det - 1.0) < 1e-12
        checked += 1


def test_side_pairing_is_an_involution():
    z1, z2 = cmath.exp(2j * math.pi / 5), cmath.exp(4j * math.pi / 5)
    t = side_pairing_elliptic(z1, z2, geodesic_apex(z1, z2))
    sq = compose(t, t)
    assert max(abs(sq.a + 1), abs(sq.b), abs(sq.c), abs(sq.d + 1)) < 1e-12


def test_side_pairing_requires_fixed_point_on_geodesic():
    z1, z2 = cmath.exp(2j * math.pi / 5), cmath.exp(4j * math.pi / 5)
    with pytest.raises(ValueError, match="not on the geodesic"):
        side_pairing_elliptic(z1, z2, 0.9j)
    for points in ((z1, z1, 0.5), (z1, z2, z1), (z1, z2, z2)):
        with pytest.raises(ValueError, match="three distinct points"):
            side_pairing_elliptic(*points)


def test_side_pairing_rejects_an_ideal_fixed_point():
    # |m| == 1.0 as a float, within ON_GEODESIC_TOL of the geodesic and
    # distinct from both endpoints: D = (1 - |m|)(1 + |m|) is 0
    z1, z2, m = cmath.exp(0.4j), cmath.exp(1.9j), cmath.exp(1j * (0.4 + 1e-9))
    assert abs(m) == 1.0
    with pytest.raises(ValueError, match="is ideal: no half-turn fixes it"):
        side_pairing_elliptic(z1, z2, m)


def test_side_pairing_frozen_first_generator():
    # genus 2, sign -1: side joining the first two fifth roots of unity
    z1 = cmath.exp(2j * math.pi / 5)
    z2 = cmath.exp(4j * math.pi / 5)
    t = side_pairing_elliptic(z1, z2, geodesic_apex(z1, z2))
    assert abs(t.a - 1.7013016167j) < 1e-9
    assert abs(t.b - (1.3090169944 + 0.4253254042j)) < 1e-9
    assert abs(t.c - (1.3090169944 - 0.4253254042j)) < 1e-9
    assert abs(t.d + 1.7013016167j) < 1e-9


# --- areas and angles ----------------------------------------------------


def test_ideal_polygon_area_is_exact():
    verts = [cmath.exp(2j * math.pi * k / 6) for k in range(6)]
    poly = polygon_from_vertices(verts)
    assert all(poly.ideal)
    assert polygon_area(poly) == 4 * math.pi
    with pytest.raises(ValueError, match="at least 3 vertices"):
        polygon_area(HyperbolicPolygon(poly.vertices[:2], poly.sides[:2], (True, True)))


@pytest.mark.parametrize("sign", [1, -1])
def test_ideal_area_equals_the_per_vertex_angle_sum(sign):
    for g in range(1, 42):
        poly = fundamental_polygon(HyperellipticCurve(g, sign))
        p = len(poly.vertices)
        assert polygon_area(poly) == (p - 2) * math.pi - sum(interior_angles(poly))


def test_only_a_polygon_with_a_finite_vertex_walks_its_angles(monkeypatch):
    walks = []
    walk = disk_geometry.interior_angles

    def counting(poly):
        walks.append(poly)
        return walk(poly)

    monkeypatch.setattr(disk_geometry, "interior_angles", counting)
    ideal = polygon_from_vertices([cmath.exp(2j * math.pi * k / 6) for k in range(6)])
    assert polygon_area(ideal) == 4 * math.pi
    assert walks == []
    # one finite vertex among ideal ones, and all vertices finite
    mixed = polygon_from_vertices([1, 1j, -1, 0.5 - 0.5j])
    finite = polygon_from_vertices([0.8 * cmath.exp(2j * math.pi * k / 5) for k in range(5)])
    for poly in (mixed, finite):
        area = polygon_area(poly)
        assert walks[-1] is poly
        assert area == (len(poly.vertices) - 2) * math.pi - sum(interior_angles(poly))
    assert len(walks) == 2


def test_interior_angles_match_finite_difference_tangents():
    def walk(side: GeodesicArc, v: complex, eps: float) -> complex:
        e1, e2 = side.endpoints
        other = e2 if abs(v - e1) < abs(v - e2) else e1
        a0 = cmath.phase(v - side.center)
        a1 = cmath.phase(other - side.center)
        da = (a1 - a0 + math.pi) % (2 * math.pi) - math.pi
        step = math.copysign(eps / side.radius, da)
        return side.center + side.radius * cmath.exp(1j * (a0 + step))

    # shrunk regular pentagon: finite vertices, equal angles by symmetry
    verts = [0.8 * cmath.exp(2j * math.pi * k / 5) for k in range(5)]
    poly = polygon_from_vertices(verts)
    assert not any(poly.ideal)
    angles = interior_angles(poly)
    eps = 1e-6
    for i, v in enumerate(poly.vertices):
        p_prev = walk(poly.sides[(i - 1) % 5], v, eps)
        p_next = walk(poly.sides[i], v, eps)
        u1 = (p_prev - v) / abs(p_prev - v)
        u2 = (p_next - v) / abs(p_next - v)
        measured = math.acos(max(-1.0, min(1.0, (u1.conjugate() * u2).real)))
        assert abs(measured - angles[i]) < 1e-4
    assert max(angles) - min(angles) < 1e-9
    area = polygon_area(poly)
    assert abs(area - (3 * math.pi - sum(angles))) < 1e-12
    assert 0 < area < 3 * math.pi


def regular_tile(p: int, q: int) -> HyperbolicPolygon:
    """The regular p-gon centred at 0 with interior angles 2 pi/q
    (Beardon, The Geometry of Discrete Groups, 1983).

    Vertex k is tanh(R/2) e^(2 pi i k/p), cosh R = cot(pi/p) cot(pi/q).
    Side k lies at the distance r from 0, cosh r = cos(pi/q)/sin(pi/p),
    at the mid-angle phi = pi (2k + 1)/p; it is `_ideal_arc`'s closed
    form, center e^(i phi)/cos(delta) and radius tan(delta), with
    tan(pi/4 - delta/2) = tanh(r/2).
    """
    big_r = math.acosh(1 / (math.tan(math.pi / p) * math.tan(math.pi / q)))
    r = math.acosh(math.cos(math.pi / q) / math.sin(math.pi / p))
    delta = math.pi / 2 - 2 * math.atan(math.tanh(r / 2))
    verts = tuple(
        math.tanh(big_r / 2) * cmath.exp(2j * math.pi * k / p) for k in range(p)
    )
    sides = tuple(
        GeodesicArc(
            (verts[k], verts[(k + 1) % p]),
            cmath.exp(1j * math.pi * (2 * k + 1) / p) / math.cos(delta),
            math.tan(delta),
        )
        for k in range(p)
    )
    return HyperbolicPolygon(verts, sides, (False,) * p)


def test_regular_tiles_of_the_degree_families_have_their_angles_and_area():
    for g in range(2, 11):
        area = 4 * math.pi * (g - 1)
        for p, q in ((4 * g, 4 * g), (4 * g + 2, 2 * g + 1), (12 * g - 6, 3)):
            tile = regular_tile(p, q)
            for k, v in enumerate(tile.vertices):
                assert point_on_geodesic(v, tile.sides[k]) <= 1e-14
                assert point_on_geodesic(v, tile.sides[k - 1]) <= 1e-14
            for angle in interior_angles(tile):
                assert abs(angle - 2 * math.pi / q) <= 1e-12
            assert abs(polygon_area(tile) - area) <= 1e-13 * area
            # negative control: the tile with q + 1 at each vertex has
            # smaller angles, so a larger area
            assert abs(polygon_area(regular_tile(p, q + 1)) - area) > 1e-3


def test_interior_angles_approach_the_euclidean_limit_near_zero():
    # tiny pentagon: hyperbolic angles approach the Euclidean 3*pi/5
    verts = [0.01 * cmath.exp(2j * math.pi * k / 5) for k in range(5)]
    angles = interior_angles(polygon_from_vertices(verts))
    for ang in angles:
        assert abs(ang - 3 * math.pi / 5) < 1e-3


def test_interior_angles_vanish_toward_ideal_vertices():
    prev = None
    for r in (0.9, 0.99, 0.999):
        verts = [r * cmath.exp(2j * math.pi * k / 5) for k in range(5)]
        ang = interior_angles(polygon_from_vertices(verts))[0]
        if prev is not None:
            assert ang < prev
        prev = ang
    assert prev < 0.05


def test_polygon_from_vertices_builds_closed_side_list():
    verts = [0.5, 0.4j, -0.5, -0.4j]
    poly = polygon_from_vertices(verts)
    assert len(poly.sides) == 4
    assert poly.sides[-1].endpoints == (-0.4j + 0, 0.5 + 0j)
    with pytest.raises(ValueError):
        polygon_from_vertices([0.1, 0.2])


# --- root polygon cache ----------------------------------------------------


def count_root_builds(monkeypatch) -> list:
    """Record each root polygon build: each takes the curve's roots once."""
    builds = []
    roots = disk_geometry.roots

    def counting(curve):
        builds.append(curve)
        return roots(curve)

    monkeypatch.setattr(disk_geometry, "roots", counting)
    return builds


def test_the_same_curve_object_builds_its_root_polygon_once(monkeypatch):
    builds = count_root_builds(monkeypatch)
    curve = HyperellipticCurve(7, -1)
    base = boundary_generators(curve)
    poly = fundamental_polygon(curve)
    assert root_polygon(curve).sides is base.sides
    assert builds == [curve]
    assert poly == fundamental_polygon(HyperellipticCurve(7, -1))


def test_an_equal_but_distinct_curve_builds_again(monkeypatch):
    builds = count_root_builds(monkeypatch)
    first, twin = HyperellipticCurve(4, 1), HyperellipticCurve(4, 1)
    assert first == twin and first is not twin
    kept = root_polygon(first)
    again = root_polygon(twin)
    assert again == kept and again is not kept
    assert [id(c) for c in builds] == [id(first), id(twin)]


def test_a_raising_curve_still_raises_after_a_good_one_is_kept():
    good = HyperellipticCurve(2, 1)
    root_polygon(good)
    # equal to `good` and hashing alike, but forged past validation: the
    # cache compares identity, so roots() still sees the float genus
    forged = tuple.__new__(HyperellipticCurve, (2.0, 1))
    assert forged == good and hash(forged) == hash(good)
    with pytest.raises(TypeError):
        root_polygon(forged)
    with pytest.raises(TypeError):
        fundamental_polygon(forged)
    assert root_polygon(good) == root_polygon(HyperellipticCurve(2, 1))


def test_render_builds_its_root_polygon_once(monkeypatch):
    builds = count_root_builds(monkeypatch)
    curve = HyperellipticCurve(3, -1)
    cli.render_svg(curve)
    assert builds == [curve]


def test_the_cache_holds_under_threads_switching_every_microsecond():
    keys = [(g, sign) for g in (1, 2, 3, 5, 8, 13) for sign in (1, -1)]
    polys = {key: fundamental_polygon(HyperellipticCurve(*key)) for key in keys}
    sides = {key: boundary_generators(HyperellipticCurve(*key)).sides for key in keys}
    errors = []
    deadline = time.monotonic() + 1.5

    def worker(offset: int) -> None:
        try:
            step = offset
            while time.monotonic() < deadline:
                key = keys[step % len(keys)]
                step += 1
                curve = HyperellipticCurve(*key)
                if boundary_generators(curve).sides != sides[key]:
                    errors.append(("sides", key))
                if fundamental_polygon(curve) != polys[key]:
                    errors.append(("polygon", key))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
