"""Reference helpers that only the tests use.

`fixed_points` solves the fixed-point equation of a Moebius map in
closed form; the tests hold it against `apply` and `classify`.
"""

import cmath

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
