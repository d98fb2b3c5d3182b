"""Poincare disk geometry.

The package's geodesics are circular arcs meeting the unit circle at
right angles (|center|^2 = 1 + radius^2). This module joins two ideal
points by a geodesic, finds its apex (the point closest to the origin),
builds the root polygon and the ideal fundamental polygon of a curve,
and computes Gauss-Bonnet areas. It holds no Moebius algebra and imports
only `curves`: `group_builder` turns the sides into half-turns.

Every side comes from one closed form, `_ideal_arc`: the geodesic whose
endpoints lie at the angles phi -+ delta has center e^(i phi)/cos(delta)
and radius tan(delta). The curve's polygons derive phi and delta from
exact multiples of pi, so no side of theirs is solved from its rounded
endpoints. No geodesic through an interior point is solved, and no
diameter is built; `interior_angles` and `polygon_area` still accept
polygons with finite vertices, given their sides.

`root_polygon` keeps one entry: the last curve object it was given and
that curve's polygon. A call with that same object (`is`, not `==`)
returns the kept polygon, so one request that asks for the boundary
group and the fundamental polygon of one curve builds the root polygon
once. The entry holds its curve, so no other object can share its
identity: a request that builds its own curve, even an equal one,
always builds its polygon afresh and never reads another request's.
The entry is one tuple, replaced whole, so a thread reads a matching
curve and polygon or misses.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .curves import HyperellipticCurve, roots

COLLINEAR_TOL = 1e-9
IDEAL_TOL = 1e-9


class GeodesicArc(NamedTuple):
    """A disk geodesic between two endpoints: the circular arc with the
    given center and radius, orthogonal to the unit circle."""

    endpoints: tuple[complex, complex]
    center: complex
    radius: float

    @property
    def apex(self) -> complex:
        """The point of the geodesic with minimal modulus."""
        return self.center * (1.0 - self.radius / abs(self.center))


# builds an arc from its three fields in order, without the call through
# GeodesicArc's keyword __new__
_new_arc = tuple.__new__


class HyperbolicPolygon(NamedTuple):
    """Vertex-ordered polygon; side i joins vertex i to vertex i+1."""

    vertices: tuple[complex, ...]
    sides: tuple[GeodesicArc, ...]
    ideal: tuple[bool, ...]


def _ideal_arc(
    z1: complex, z2: complex, direction: complex, tan_half: float
) -> GeodesicArc:
    """The geodesic joining the ideal points z1 and z2, given the unit
    direction e^(i phi) of their mid-angle and the tangent of the angle
    delta < pi/2 that each lies from it: center e^(i phi)/cos(delta) =
    e^(i phi) sqrt(1 + tan^2(delta)), radius tan(delta). Its apex is
    e^(i phi) tan(pi/4 - delta/2).
    """
    return _new_arc(
        GeodesicArc,
        ((z1, z2), direction * math.sqrt(1.0 + tan_half * tan_half), tan_half),
    )


def geodesic_between(z1: complex, z2: complex) -> GeodesicArc:
    """The geodesic joining two ideal points, each within IDEAL_TOL of
    the unit circle, by `_ideal_arc`'s closed form with the mid-angle
    direction (z1 + z2)/|z1 + z2| and the half-angle tangent
    |z1 - z2|/|z1 + z2|.

    Raises ValueError for coincident points, a point off the unit
    circle, and a pair collinear with the origin (|Im(conj(z1) z2)| <=
    COLLINEAR_TOL), whose geodesic is a diameter.
    """
    z1, z2 = complex(z1), complex(z2)
    if z1 == z2:
        raise ValueError("coincident points determine no geodesic")
    for z in (z1, z2):
        # written so that a NaN modulus is rejected too
        if not abs(abs(z) - 1.0) <= IDEAL_TOL:
            raise ValueError(f"point {z:.6g} is not an ideal point")
    if abs((z1.conjugate() * z2).imag) <= COLLINEAR_TOL:
        raise ValueError(
            f"points {z1:.6g} and {z2:.6g} are collinear with the origin"
        )
    s = z1 + z2
    ms = abs(s)
    return _ideal_arc(z1, z2, s / ms, abs(z1 - z2) / ms)


def geodesic_apex(z1: complex, z2: complex) -> complex:
    """Point of the geodesic joining the ideal points z1, z2 with
    minimal modulus; raises ValueError as `geodesic_between` does.

    For the ideal points e^(i t1), e^(i t2) this is
    ((1 - sin a)/cos a) e^(i (t1+t2)/2) with a = |t1 - t2|/2.
    """
    return geodesic_between(z1, z2).apex


def point_on_geodesic(z: complex, g: GeodesicArc) -> float:
    """Euclidean distance of z from the full circle of the geodesic."""
    return abs(abs(z - g.center) - g.radius)


def polygon_area(poly: HyperbolicPolygon) -> float:
    """Gauss-Bonnet area (p - 2)*pi - (sum of interior angles).

    Ideal vertices contribute angle 0, finite vertices the angle between
    the adjacent side tangents. An ideal p-gon yields exactly
    (p - 2)*pi, without walking its angles.
    """
    p = len(poly.vertices)
    if p < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if all(poly.ideal):
        # the angle sum is 0.0, and x - 0.0 == x bit for bit
        return (p - 2) * math.pi
    angles = interior_angles(poly)
    for ang in angles:
        if ang < 0 or ang >= math.pi:
            raise ValueError("interior angles must lie in [0, pi)")
    return (p - 2) * math.pi - sum(angles)


def interior_angles(poly: HyperbolicPolygon) -> list[float]:
    """Interior angle at each vertex; flagged ideal vertices give 0."""
    p = len(poly.vertices)
    angles = []
    for i in range(p):
        if poly.ideal[i]:
            angles.append(0.0)
            continue
        v = poly.vertices[i]
        # both tangents point away from v along their side, so the angle
        # between them is the interior angle directly
        t_in = _tangent_at(poly.sides[(i - 1) % p], v)
        t_out = _tangent_at(poly.sides[i], v)
        cosang = (t_in.conjugate() * t_out).real
        angles.append(math.acos(max(-1.0, min(1.0, cosang))))
    return angles


def _tangent_at(side: GeodesicArc, v: complex) -> complex:
    """Unit tangent of a side at its endpoint v, pointing along the side."""
    e1, e2 = side.endpoints
    other = e2 if abs(v - e1) <= abs(v - e2) else e1
    t = 1j * (v - side.center)
    if ((other - v) * t.conjugate()).real < 0:
        t = -t
    return t / abs(t)


# (curve, its root polygon) of the last root_polygon call; the curve is
# a fresh object until the first call
_last_root: tuple = (object(), None)


def root_polygon(curve: HyperellipticCurve) -> HyperbolicPolygon:
    """The ideal (2g+1)-gon of the roots; side j joins r_j to r_(j+1).

    With n = 2g+1, side j has the half-width pi/n and the mid-angle
    pi m/n, m = 2j + 2 for sign +1 and 2j + 3 for sign -1 (mod 2n), so
    `_ideal_arc` builds it from exact angles. The polygon of the last
    curve object is kept and returned for that object again (see the
    module docstring).
    """
    global _last_root
    last_curve, last_poly = _last_root
    if curve is last_curve:
        return last_poly
    rs = roots(curve)
    n = len(rs)
    tan_half = math.tan(math.pi / n)
    first = 2 if curve.sign == 1 else 3
    sides = tuple([
        _ideal_arc(
            rs[j], rs[(j + 1) % n],
            cmath.exp(1j * (math.pi * ((first + 2 * j) % (2 * n)) / n)), tan_half,
        )
        for j in range(n)
    ])
    poly = HyperbolicPolygon(tuple(rs), sides, (True,) * n)
    _last_root = (curve, poly)
    return poly


def fundamental_polygon(curve: HyperellipticCurve) -> HyperbolicPolygon:
    """Ideal 4g-gon: the root polygon plus its reflection across the
    first side, vertices counterclockwise from the first root. The root
    polygon is `root_polygon`'s, kept from an earlier call on the same
    curve object.

    Measured from the first side's mid-angle, root r_j sits at the angle
    t_j = (2j - 1) delta (delta = pi/n, r_n = r_0), and the reflection
    sends it to s_j with tan(s_j/2) = k cot(t_j/2), k = tan^2(delta/2).
    The reflection of side j joins s_(j+1) to s_j; the tangent of its
    half-width (s_j - s_(j+1))/2 is
    k sin(delta) / (sin u_j sin u_(j+1) + k^2 cos u_j cos u_(j+1)),
    u_j = t_j/2, which keeps its digits however close the two reflected
    roots lie. Both lists are symmetric about the axis (u_(n+1-j) =
    pi - u_j and s_(n+1-j) = -s_j), so each is computed for its first
    half and mirrored.
    """
    root = root_polygon(curve)
    rs, root_sides = root.vertices, root.sides
    n = len(rs)
    delta = math.pi / n
    k = math.tan(0.5 * delta) ** 2
    # e^(i phi_1), the direction of the first side's mid-angle
    axis = root_sides[0].center / abs(root_sides[0].center)
    # sin and cos of u_j = (2j - 1) pi/(2n) for j = 1..(n+1)/2, where
    # u_j <= pi/2, then mirrored so neither loses digits near u = pi
    us = [math.pi * a / (2 * n) for a in range(1, n + 1, 2)]
    sin_u = [math.sin(u) for u in us]
    cos_u = [math.cos(u) for u in us]
    sin_u += sin_u[-2::-1]
    cos_u += [-c for c in cos_u[-2::-1]]
    # s[j - 1] is s_j; s_1 = delta and s_n = -delta are r_1 and r_0
    s = [delta]
    s += [2.0 * math.atan2(k * c, si) for si, c in zip(sin_u[1:len(us)], cos_u[1:])]
    s += [-t for t in s[-2::-1]]
    reflected = [axis * cmath.exp(1j * t) for t in s[1:-1]]
    # the reflection of side j, j = n-1 down to 1, from s_(j+1) to s_j
    points = [rs[1], *reflected, rs[0]]
    scale, kk = k * math.sin(delta), k * k
    mirrored = [
        _ideal_arc(
            points[j], points[j - 1],
            axis * cmath.exp(0.5j * (s[j - 1] + s[j])),
            scale / (sin_u[j - 1] * sin_u[j] + kk * cos_u[j - 1] * cos_u[j]),
        )
        for j in range(n - 1, 0, -1)
    ]
    vertices = (rs[0], *reversed(reflected), *rs[1:])
    return HyperbolicPolygon(
        vertices, (*mirrored, *root_sides[1:]), (True,) * len(vertices)
    )
