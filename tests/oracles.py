"""Reference helpers that only the tests use.

`fixed_points` solves the fixed-point equation of a Moebius map in
closed form; the tests hold it against `apply` and `classify`.
`three_point_pairing` writes the involution that swaps two points and
fixes a third from the three points alone, the reference the tests hold
the half-turns of `group_builder` against.
`geodesic_between` joins any two points of the closed disk that are not
collinear with the origin: two ideal points by the plain statement of
`disk_geometry.geodesic_between`, which must build the same arcs bit
for bit and raise the same errors, and any other pair by a 2x2 solve
that the package does not need. `polygon_from_vertices` joins
consecutive vertices by it, which the angle and area tests build their
finite polygons with.
"""

import cmath
import math

from fuchsian.disk_geometry import (
    COLLINEAR_TOL,
    IDEAL_TOL,
    GeodesicArc,
    HyperbolicPolygon,
)
from fuchsian.moebius import CLASS_BOUNDARY_TOL, INFINITY, MoebiusMap, Point, normalize


def fixed_points(m: MoebiusMap) -> list[Point]:
    """Solutions of (az + b)/(cz + d) = z for a non-identity map.

    Parabolic maps have one fixed point, all others two. Raises
    ValueError on the identity (every point is fixed).
    """
    n = normalize(m)
    a, b, c, d = n.a, n.b, n.c, n.d
    if abs(b) <= 1e-12 and abs(c) <= 1e-12 and abs(a - d) <= 1e-12:
        raise ValueError("identity map: every point is fixed")
    if c == 0:
        # infinity is fixed; a second finite point exists unless a = d
        if abs(a - d) <= CLASS_BOUNDARY_TOL:
            return [INFINITY]
        return [b / (d - a), INFINITY]
    disc = n.trace * n.trace - 4 * n.det
    if abs(disc) <= 4 * CLASS_BOUNDARY_TOL:
        return [(a - d) / (2 * c)]
    s = cmath.sqrt(disc)
    return [((a - d) + s) / (2 * c), ((a - d) - s) / (2 * c)]


def three_point_pairing(z1: complex, z2: complex, m: complex) -> MoebiusMap:
    """The involution (a, b; c, -a) swapping z1 and z2 and fixing m,
    normalized: with p = z1 (m - z2)^2 and q = z2 (m - z1)^2, a = p - q,
    b = z2 q - z1 p and c = (m - z2)^2 - (m - z1)^2."""
    p = z1 * (m - z2) ** 2
    q = z2 * (m - z1) ** 2
    a = p - q
    b = z2 * q - z1 * p
    c = (m - z2) ** 2 - (m - z1) ** 2
    return normalize(MoebiusMap(a, b, c, -a))


def geodesic_between(z1: complex, z2: complex) -> GeodesicArc:
    """The unique geodesic through two distinct points with |z| <= 1
    that are not collinear with the origin."""
    z1, z2 = complex(z1), complex(z2)
    if z1 == z2:
        raise ValueError("coincident points determine no geodesic")
    for z in (z1, z2):
        if abs(z) > 1 + IDEAL_TOL:
            raise ValueError(f"point {z:.6g} lies outside the closed disk")
    # z1, z2, 0 collinear exactly when Im(conj(z1) z2) = 0
    if abs((z1.conjugate() * z2).imag) <= COLLINEAR_TOL:
        raise ValueError(
            f"points {z1:.6g} and {z2:.6g} are collinear with the origin"
        )
    # two ideal points: center e^(i phi) sqrt(1 + t^2) and radius t, from
    # the mid-angle direction e^(i phi) and the tangent t of the half-angle
    if abs(abs(z1) - 1.0) <= IDEAL_TOL and abs(abs(z2) - 1.0) <= IDEAL_TOL:
        direction = (z1 + z2) / abs(z1 + z2)
        t = abs(z1 - z2) / abs(z1 + z2)
        return GeodesicArc((z1, z2), direction * math.sqrt(1.0 + t * t), t)
    # orthogonality |C|^2 = R^2 + 1 plus incidence |z_i - C| = R reduce to
    # the linear system 2 Re(conj(C) z_i) = |z_i|^2 + 1
    x1, y1 = z1.real, z1.imag
    x2, y2 = z2.real, z2.imag
    det = x1 * y2 - x2 * y1
    r1 = (abs(z1) ** 2 + 1.0) / 2.0
    r2 = (abs(z2) ** 2 + 1.0) / 2.0
    center = complex((r1 * y2 - r2 * y1) / det, (x1 * r2 - x2 * r1) / det)
    radius_sq = abs(center) ** 2 - 1.0
    if radius_sq < 0:
        # cancellation in the solve when two interior points nearly
        # coincide near the unit circle
        raise ValueError(
            f"geodesic through {z1:.6g} and {z2:.6g}: computed center "
            f"lies inside the unit circle (|C|^2 - 1 = {radius_sq:.3g})"
        )
    return GeodesicArc((z1, z2), center, math.sqrt(radius_sq))


def polygon_from_vertices(vertices) -> HyperbolicPolygon:
    """Polygon with geodesic sides joining consecutive vertices."""
    verts = tuple(map(complex, vertices))
    if len(verts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    sides = tuple(map(geodesic_between, verts, verts[1:] + verts[:1]))
    ideal = tuple(abs(abs(v) - 1.0) <= IDEAL_TOL for v in verts)
    return HyperbolicPolygon(verts, sides, ideal)
