"""The closed-form boundary group and ideal polygon against 40-digit
mpmath, at genus 2 to 1000 and both signs, and the boundary generators'
entries against their closed form in s_b up to genus 100,000.

The references are built from the exact roots of z^(2g+1) = -sign, not
from the package's angle formulas: the geodesic through two ideal points
w1, w2 has center 2(w1 + w2)/|w1 + w2|^2, radius |w1 - w2|/|w1 + w2| and
apex (w1 + w2)/(2 + |w1 - w2|); the half-turn about p is (i(1+|p|^2),
-2ip; 2i conj(p), -i(1+|p|^2)) up to scale; and the reflected roots are
the images of the roots under inversion in the first side's circle.
Every quantity must agree to 1e-14 relative. Solving each side from its
rounded endpoints by a general 2x2 system, as the package once did,
misses this bound at every genus here (polygon radii 4.7e-14 at genus 2
and 2.4e-3 at genus 41), and its computed centers fall inside the unit
circle from genus 81 (sign +1) and 82 (sign -1).
"""

from collections import defaultdict

import mpmath as mp
import pytest

from fuchsian.curves import HyperellipticCurve
from fuchsian.disk_geometry import fundamental_polygon
from fuchsian.group_builder import boundary_generators

TOL = 1e-14
CASES = [(g, sign) for g in (2, 5, 41, 81, 200, 1000) for sign in (1, -1)]


def exact_root(n: int, sign: int, k: int):
    """Root k of z^n = -sign in the package's order: by angle in
    (0, 2 pi]."""
    if sign == -1:
        return mp.expj(2 * mp.pi * (k + 1) / n)
    return mp.expj(mp.pi * (2 * k + 1) / n)


def exact_roots(g: int, sign: int) -> list:
    n = 2 * g + 1
    return [exact_root(n, sign, k) for k in range(n)]


def exact_side(w1, w2) -> tuple:
    """Center, radius and apex of the geodesic joining ideal w1, w2."""
    s, d = abs(w1 + w2), abs(w1 - w2)
    return 2 * (w1 + w2) / s**2, d / s, (w1 + w2) / (2 + d)


def rel(x: complex, want) -> float:
    return float(abs(mp.mpc(x) - want) / abs(want))


@pytest.mark.parametrize(
    "g, sign", CASES, ids=[f"{g}-{'plus' if s == 1 else 'minus'}" for g, s in CASES]
)
def test_closed_forms_match_40_digit_mpmath(g, sign):
    curve = HyperellipticCurve(g, sign)
    base = boundary_generators(curve)
    poly = fundamental_polygon(curve)
    errors = defaultdict(list)  # quantity -> relative errors
    with mp.workdps(40):
        rs = exact_roots(g, sign)
        n = len(rs)
        for j, (gen, side) in enumerate(zip(base.generators, base.sides)):
            center, radius, apex = exact_side(rs[j], rs[(j + 1) % n])
            errors["center"].append(rel(side.center, center))
            errors["radius"].append(rel(side.radius, radius))
            errors["apex"].append(rel(side.apex, apex))
            # projectively: each entry over entry a, against the same ratio
            a = 1j * (1 + abs(apex) ** 2)
            for got, want in ((gen.b, -2j * apex), (gen.c, 2j * mp.conj(apex)),
                              (gen.d, -a)):
                errors["generator"].append(rel(got / gen.a, want / a))
        center, radius, _ = exact_side(rs[0], rs[1])
        reflected = [center + radius**2 / mp.conj(w - center) for w in rs[2:]]
        want_vertices = [rs[0], *reversed(reflected), *rs[1:]]
        assert len(poly.vertices) == len(poly.sides) == len(want_vertices) == 4 * g
        for i, (v, side) in enumerate(zip(poly.vertices, poly.sides)):
            w1, w2 = want_vertices[i], want_vertices[(i + 1) % (4 * g)]
            center, radius, _ = exact_side(w1, w2)
            errors["vertex"].append(rel(v, w1))
            errors["polygon center"].append(rel(side.center, center))
            errors["polygon radius"].append(rel(side.radius, radius))
    worst = {key: max(values) for key, values in errors.items()}
    assert max(worst.values()) <= TOL, worst


# Each boundary generator is the half-turn about its side's apex, at the
# distance s_b from 0 with cosh s_b = 1/sin(delta) and sinh s_b =
# cot(delta), delta = pi/(2g+1): a = i/sin(delta), b = -i cot(delta)
# e^(i phi_j), c = conj(b) and d = -a, where e^(i phi_j) is the unit
# direction of the side's mid-angle. Every entry must be within
# ENTRY_TOL of it relative to |a|. The half-turn formed from the apex p,
# with 1 - |p|^2, is up to 4.2e-13 off by genus 3000.
ENTRY_TOL = 4e-15
ENTRY_CASES = [
    (g, sign)
    for g in (1, 2, 3, 10, 41, 1000, 3000, 10_000, 100_000)
    for sign in (1, -1)
]


@pytest.mark.parametrize(
    "g, sign", ENTRY_CASES,
    ids=[f"{g}-{'plus' if s == 1 else 'minus'}" for g, s in ENTRY_CASES],
)
def test_boundary_generators_match_their_closed_form_in_s_b(g, sign):
    gens = boundary_generators(HyperellipticCurve(g, sign)).generators
    n = 2 * g + 1
    indices = range(n) if g <= 41 else (0, 1, g, 2 * g)
    worst = 0.0
    with mp.workdps(40):
        delta = mp.pi / n
        a = 1j / mp.sin(delta)
        for j in indices:
            # the mid-angle direction of the exact roots r_j, r_(j+1)
            mid = exact_root(n, sign, j) + exact_root(n, sign, (j + 1) % n)
            b = -1j * mp.cot(delta) * mid / abs(mid)
            gen = gens[j]
            for got, want in ((gen.a, a), (gen.b, b), (gen.c, mp.conj(b)),
                              (gen.d, -a)):
                worst = max(worst, float(abs(mp.mpc(got) - want) / abs(a)))
    assert worst <= ENTRY_TOL, worst
