"""`disk_geometry.geodesic_between` against `oracles.geodesic_between`,
which joins any two points of the closed disk. For two ideal points or
coincident ones, the library gives the oracle's fields bit for bit
(compared by repr, so -0.0 and 0.0 differ) or its error type and
message. For any other pair it raises ValueError naming the first point
off the unit circle. Checked over the roots and reflected roots of the
curves up to g = 200, ideal pairs whose collinearity determinant lies
within a factor of 2 of COLLINEAR_TOL, and coincident, interior and
outside-disk inputs."""

import cmath
import math

from hypothesis import given, settings, strategies as st

import oracles
from fuchsian.curves import HyperellipticCurve, roots
from fuchsian.disk_geometry import COLLINEAR_TOL, IDEAL_TOL, geodesic_between

# a fixed example sequence and no example database, so a run is
# reproducible and writes nothing
PROPERTY = settings(
    max_examples=400, deadline=None, derandomize=True, database=None
)

radii = st.floats(0.0, 1.0)
angles = st.floats(-math.pi, math.pi)


def outcome(solve, z1, z2) -> tuple:
    try:
        arc = solve(z1, z2)
    except Exception as err:  # noqa: BLE001 - the type is compared
        return ("raise", type(err), str(err))
    return ("arc", type(arc)) + tuple(repr(field) for field in arc)


def assert_same(z1, z2) -> None:
    got = outcome(geodesic_between, z1, z2)
    off = [z for z in map(complex, (z1, z2)) if not abs(abs(z) - 1.0) <= IDEAL_TOL]
    if off and complex(z1) != complex(z2):
        assert got == ("raise", ValueError, f"point {off[0]:.6g} is not an ideal point")
    else:
        assert got == outcome(oracles.geodesic_between, z1, z2)


@st.composite
def disk_points(draw, radius=radii) -> complex:
    return draw(radius) * cmath.exp(1j * draw(angles))


@st.composite
def root_pairs(draw) -> tuple[complex, complex]:
    """Two of the roots of y^2 = z^(2g+1) +/- 1 and their reflections
    across the first root side, as fundamental_polygon places them."""
    g = draw(st.integers(1, 200))
    curve = HyperellipticCurve(g, draw(st.sampled_from((1, -1))))
    rs = roots(curve)
    side = oracles.geodesic_between(rs[0], rs[1])
    center, radius = side.center, side.radius
    points = list(rs) + [center + radius**2 / (z - center).conjugate() for z in rs[2:]]
    i = draw(st.integers(0, len(points) - 1))
    j = draw(st.integers(0, len(points) - 2))
    return points[i], points[j + (j >= i)]


@PROPERTY
@given(root_pairs())
def test_roots_and_reflected_roots_match_the_oracle(pair):
    assert_same(*pair)


@st.composite
def near_collinear_pairs(draw) -> tuple[complex, complex]:
    """Two ideal points, z2 turned from the ray of z1 or of -z1 so that
    Im(conj(z1) z2) is +/-(1/2 .. 2) * COLLINEAR_TOL."""
    target = draw(st.floats(0.5, 2.0)) * COLLINEAR_TOL * draw(st.sampled_from((1, -1)))
    turn = math.asin(target) + draw(st.sampled_from((0.0, math.pi)))
    theta = draw(angles)
    return cmath.exp(1j * theta), cmath.exp(1j * (theta + turn))


@PROPERTY
@given(near_collinear_pairs())
def test_pairs_near_the_collinear_tolerance_match_the_oracle(pair):
    z1, z2 = pair
    assert 0.25 * COLLINEAR_TOL < abs((z1.conjugate() * z2).imag) < 4 * COLLINEAR_TOL
    assert_same(z1, z2)


@PROPERTY
@given(disk_points(st.floats(0.0, 1.5)), disk_points(st.floats(0.0, 1.5)))
def test_outside_disk_inputs_match_the_oracle(z1, z2):
    assert_same(z1, z2)


@PROPERTY
@given(disk_points(st.floats(0.0, 1.5)))
def test_coincident_inputs_match_the_oracle(z):
    assert_same(z, z)
    # a real point given once as a float and once as a complex
    assert_same(z.real, complex(z.real))


def test_closed_disk_edge_matches_the_oracle():
    edge = 1 + IDEAL_TOL
    for r in (1.0, edge, math.nextafter(edge, 2.0), 2.0):
        for z1, z2 in ((r, 0.5j), (0.5j, r), (r, -r), (r * 1j, r * cmath.exp(0.3j))):
            assert_same(z1, z2)
