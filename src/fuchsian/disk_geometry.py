"""Poincare disk geometry.

Geodesics of the unit-disk model are diameters or circular arcs meeting
the unit circle at right angles (|center|^2 = 1 + radius^2). This module
builds geodesics between points, finds the geodesic apex (the point of
the geodesic closest to the origin), constructs the order-2 elliptic map
pairing a side with itself, builds the ideal fundamental polygon of a
curve, and computes Gauss-Bonnet areas.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import NumericalError
from .curves import HyperellipticCurve, roots
from .moebius import INFINITY, MoebiusMap, Point, _normalized

COLLINEAR_TOL = 1e-9
IDEAL_TOL = 1e-9
ON_GEODESIC_TOL = 1e-6
_THREE_POINTS = "side pairing needs three distinct points"


class DegenerateGeodesicError(NumericalError, ValueError):
    """The computed arc center lies inside the unit circle: a numerical
    breakdown (cancellation in the center's 2x2 solve when the two
    points nearly coincide), not bad input.
    """


class GeodesicArc(NamedTuple):
    """A disk geodesic through two points.

    kind "arc": circular arc with the given center and radius, orthogonal
    to the unit circle. kind "diameter": straight chord through the
    origin with the given unit direction.
    """

    kind: str  # "arc" | "diameter"
    endpoints: tuple[complex, complex]
    center: complex | None = None
    radius: float | None = None
    direction: complex | None = None

    @property
    def apex(self) -> complex:
        """The point of the geodesic with minimal modulus; the origin
        for a diameter."""
        if self.kind == "diameter":
            return 0j
        return self.center * (1.0 - self.radius / abs(self.center))


# builds an arc from all five fields in order, without the call through
# GeodesicArc's keyword __new__
_new_arc = tuple.__new__


class HyperbolicPolygon(NamedTuple):
    """Vertex-ordered polygon; side i joins vertex i to vertex i+1."""

    vertices: tuple[complex, ...]
    sides: tuple[GeodesicArc, ...]
    ideal: tuple[bool, ...]


def cross_ratio(z1: Point, z2: Point, z3: Point, z4: Point) -> complex:
    """(z1-z2)(z3-z4) / ((z2-z3)(z4-z1)), with infinity by cancellation.

    At most one argument may be INFINITY; the two factors containing it
    are replaced by their limit ratio -1.
    """
    if z1 is INFINITY or z2 is INFINITY or z3 is INFINITY or z4 is INFINITY:
        finite = [p for p in (z1, z2, z3, z4) if p is not INFINITY]
        if (
            len(finite) < 3
            or finite[0] == finite[1]
            or finite[0] == finite[2]
            or finite[1] == finite[2]
        ):
            raise ValueError("coincident points in cross-ratio")
        if z1 is INFINITY:
            num, den = -(z3 - z4), (z2 - z3)
        elif z2 is INFINITY:
            num, den = -(z3 - z4), (z4 - z1)
        elif z3 is INFINITY:
            num, den = -(z1 - z2), (z4 - z1)
        else:
            num, den = -(z1 - z2), (z2 - z3)
    else:
        if z1 == z2 or z1 == z3 or z1 == z4 or z2 == z3 or z2 == z4 or z3 == z4:
            raise ValueError("coincident points in cross-ratio")
        num = (z1 - z2) * (z3 - z4)
        den = (z2 - z3) * (z4 - z1)
    if den == 0:
        raise ValueError("cross-ratio denominator vanished")
    return num / den


def geodesic_between(z1: complex, z2: complex) -> GeodesicArc:
    """The unique geodesic through two distinct points with |z| <= 1."""
    z1, z2 = complex(z1), complex(z2)
    if z1 == z2:
        raise ValueError("coincident points determine no geodesic")
    m1 = abs(z1)
    if m1 > 1 + IDEAL_TOL:
        raise ValueError(f"point {z1:.6g} lies outside the closed disk")
    m2 = abs(z2)
    if m2 > 1 + IDEAL_TOL:
        raise ValueError(f"point {z2:.6g} lies outside the closed disk")
    # z1, z2, 0 collinear exactly when Im(conj(z1) z2) = 0; det is that
    # imaginary part bit for bit, and the 2x2 solve below divides by it
    x1, y1 = z1.real, z1.imag
    x2, y2 = z2.real, z2.imag
    det = x1 * y2 - x2 * y1
    if abs(det) <= COLLINEAR_TOL:
        u = (z2 - z1) / abs(z2 - z1)
        if u.real < 0 or (u.real == 0 and u.imag < 0):
            u = -u
        return _new_arc(GeodesicArc, ("diameter", (z1, z2), None, None, u))
    # orthogonality |C|^2 = R^2 + 1 plus incidence |z_i - C| = R reduce to
    # the linear system 2 Re(conj(C) z_i) = |z_i|^2 + 1
    r1 = (m1**2 + 1.0) / 2.0
    r2 = (m2**2 + 1.0) / 2.0
    center = complex((r1 * y2 - r2 * y1) / det, (x1 * r2 - x2 * r1) / det)
    radius_sq = abs(center) ** 2 - 1.0
    if radius_sq < 0:
        raise DegenerateGeodesicError(
            f"geodesic through {z1:.6g} and {z2:.6g}: computed center "
            f"lies inside the unit circle (|C|^2 - 1 = {radius_sq:.3g})"
        )
    radius = math.sqrt(radius_sq)
    return _new_arc(GeodesicArc, ("arc", (z1, z2), center, radius, None))


def geodesic_apex(z1: complex, z2: complex) -> complex:
    """Point of the geodesic through z1, z2 with minimal modulus.

    For ideal endpoints e^(i t1), e^(i t2) this is
    ((1 - sin a)/cos a) e^(i (t1+t2)/2) with a = |t1 - t2|/2; diameters
    give the origin.
    """
    return geodesic_between(z1, z2).apex


def point_on_geodesic(z: complex, g: GeodesicArc) -> float:
    """Distance of z from the full geodesic circle/line (Euclidean)."""
    if g.kind == "diameter":
        return abs((z * g.direction.conjugate()).imag)
    return abs(abs(z - g.center) - g.radius)


def side_pairing_elliptic(z1: complex, z2: complex, m: complex) -> MoebiusMap:
    """Order-2 elliptic map swapping z1 and z2 and fixing m.

    m must lie on the geodesic through z1 and z2; the result is
    normalized (det 1) with trace exactly 0, so it is an involution.
    """
    z1, z2, m = complex(z1), complex(z2), complex(m)
    if z1 == z2:
        # before geodesic_between, whose own error names coincidence
        raise ValueError(_THREE_POINTS)
    return _side_involution(geodesic_between(z1, z2), m)


def _side_involution(g: GeodesicArc, m: complex) -> MoebiusMap:
    """side_pairing_elliptic() of g's endpoints and the complex m, on the
    arc g already built, with one MoebiusMap._make.

    A zero determinant of the unnormalized entries is a numerical
    breakdown here (the three points are distinct and on one geodesic),
    so it raises moebius.DegenerateMapError.
    """
    z1, z2 = g.endpoints
    if m == z1 or m == z2:
        raise ValueError(_THREE_POINTS)
    if point_on_geodesic(m, g) > ON_GEODESIC_TOL:
        raise ValueError("fixed point is not on the geodesic through the endpoints")
    p = z1 * (m - z2) ** 2
    q = z2 * (m - z1) ** 2
    a = p - q
    b = z2 * q - z1 * p
    c = (m - z2) ** 2 - (m - z1) ** 2
    return _normalized(a, b, c, -a)


def polygon_area(poly: HyperbolicPolygon | Sequence[float]) -> float:
    """Gauss-Bonnet area (p - 2)*pi - (sum of interior angles).

    Accepts either a HyperbolicPolygon (ideal vertices contribute angle
    0, finite vertices the angle between the adjacent side tangents) or
    a plain sequence of interior angles. An ideal p-gon yields exactly
    (p - 2)*pi.
    """
    if isinstance(poly, HyperbolicPolygon):
        angles = interior_angles(poly)
    else:
        angles = list(poly)
    p = len(angles)
    if p < 3:
        raise ValueError("polygon needs at least 3 vertices")
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
    if side.kind == "diameter":
        t = other - v
    else:
        t = 1j * (v - side.center)
        if ((other - v) * t.conjugate()).real < 0:
            t = -t
    return t / abs(t)


def polygon_from_vertices(vertices: Sequence[complex]) -> HyperbolicPolygon:
    """Polygon with geodesic sides joining consecutive vertices."""
    verts = tuple(map(complex, vertices))
    if len(verts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    sides = tuple(map(geodesic_between, verts, verts[1:] + verts[:1]))
    ideal = tuple(abs(abs(v) - 1.0) <= IDEAL_TOL for v in verts)
    return HyperbolicPolygon(verts, sides, ideal)


def fundamental_polygon(curve: HyperellipticCurve) -> HyperbolicPolygon:
    """Ideal 4g-gon: the root polygon plus its reflection across the
    first side, vertices counterclockwise from the first root.
    """
    rs = roots(curve)
    n = len(rs)
    side = geodesic_between(rs[0], rs[1])
    # adjacent roots are never collinear with the origin for n >= 3
    center, radius = side.center, side.radius

    def reflect(z: complex) -> complex:
        return center + radius**2 / (z - center).conjugate()

    vertices = [rs[0]]
    vertices.extend(reflect(rs[j]) for j in range(n - 1, 1, -1))
    vertices.extend(rs[1:])
    return polygon_from_vertices(vertices)
