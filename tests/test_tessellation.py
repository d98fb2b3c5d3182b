"""Tests for exact tessellation and genus-range arithmetic."""

import itertools
import math
from fractions import Fraction

import pytest

from fuchsian.tessellation import (
    cycle_count,
    euler_characteristic,
    genus_range,
    is_hyperbolic_tessellation,
    q_from_euler,
    tessellation_for_degree,
)


def test_genus_range_known_values():
    gr = genus_range(4, 4)
    assert (gr.g_min, gr.g_max) == (1, 4)
    assert (genus_range(8, 8).g_min, genus_range(8, 8).g_max) == (9, 24)
    assert (genus_range(3, 3).g_min, genus_range(3, 3).g_max) == (1, 2)
    assert (genus_range(2, 2).g_min, genus_range(2, 2).g_max) == (0, 0)
    assert (genus_range(2, 9).g_min, genus_range(2, 9).g_max) == (0, 4)


def rotation_system_genera(m: int, n: int):
    """The genus of K_{m,n}'s embedding for each of its rotation systems.

    Vertices 0..m-1 form one part and m..m+n-1 the other. A rotation
    system gives each vertex a cyclic order of its neighbours; the faces
    are the orbits of the darts (u, v) under (u, v) -> (v, w), w the
    neighbour that follows u around v, and the genus is
    (2 - V + E - F)/2.
    """
    left, right = range(m), range(m, m + n)

    def cyclic_orders(neighbours):
        first, *rest = neighbours
        return [(first, *order) for order in itertools.permutations(rest)]

    vertices = [*left, *right]
    choices = [cyclic_orders(right if v < m else left) for v in vertices]
    darts = [(u, v) for u in left for v in right]
    darts += [(v, u) for u, v in darts]
    for system in itertools.product(*choices):
        follow = {}
        for v, order in zip(vertices, system):
            for i, u in enumerate(order):
                follow[u, v] = order[(i + 1) % len(order)]
        faces, seen = 0, set()
        for dart in darts:
            if dart in seen:
                continue
            faces += 1
            while dart not in seen:
                seen.add(dart)
                u, v = dart
                dart = (v, follow[u, v])
        twice, odd = divmod(2 - (m + n) + m * n - faces, 2)
        assert not odd
        yield twice


def test_genus_range_matches_the_enumerated_rotation_systems():
    # every K_{m,n}, 2 <= m <= n, with (m-1)!^n (n-1)!^m <= 10^4
    # rotation systems: K_{2,2} to K_{2,5}, K_{3,3} and K_{3,4}
    small = [
        (m, n) for m in range(2, 5) for n in range(m, 7)
        if math.factorial(m - 1) ** n * math.factorial(n - 1) ** m <= 10**4
    ]
    assert small == [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]
    for m, n in small:
        genera = set(rotation_system_genera(m, n))
        assert (min(genera), max(genera)) == genus_range(m, n), (m, n)


def test_genus_range_validation():
    with pytest.raises(ValueError):
        genus_range(1, 5)
    with pytest.raises(ValueError):
        genus_range(3, 0)


def test_euler_characteristic_is_exact_rational():
    assert euler_characteristic(8, 8) == Fraction(-2)
    assert euler_characteristic(10, 5) == Fraction(-2)
    assert euler_characteristic(4, 4) == Fraction(0)
    assert euler_characteristic(5, 4) == Fraction(-1, 4)


def test_q_from_euler_known_values():
    assert q_from_euler(8, 2) == 8
    assert q_from_euler(10, 2) == 5
    assert q_from_euler(18, 2) == 3
    assert q_from_euler(12, 3) == 12
    assert q_from_euler(7, 2) == 14


def test_q_from_euler_failure_modes():
    with pytest.raises(ValueError):
        q_from_euler(5, 2)  # denominator not positive
    with pytest.raises(ValueError):
        q_from_euler(11, 2)  # q = 4.4 not an integer
    with pytest.raises(ValueError):
        q_from_euler(2, 2)
    with pytest.raises(ValueError):
        q_from_euler(8, 1)


def test_hyperbolicity_inequality():
    assert is_hyperbolic_tessellation(7, 3)
    assert is_hyperbolic_tessellation(5, 4)
    assert is_hyperbolic_tessellation(8, 8)
    assert not is_hyperbolic_tessellation(6, 3)  # Euclidean
    assert not is_hyperbolic_tessellation(4, 4)  # Euclidean
    assert not is_hyperbolic_tessellation(3, 5)  # spherical
    with pytest.raises(ValueError):
        is_hyperbolic_tessellation(2, 7)


def test_degree_families_table():
    for g in range(2, 11):
        spec = tessellation_for_degree(2 * g + 1, g)
        assert (spec.p, spec.q) == (4 * g, 4 * g)
        spec = tessellation_for_degree(2 * g + 2, g)
        assert (spec.p, spec.q) == (4 * g + 2, 2 * g + 1)
        spec = tessellation_for_degree(6 * g - 2, g)
        assert (spec.p, spec.q) == (12 * g - 6, 3)


def test_degree_families_are_hyperbolic_and_euler_consistent():
    for g in range(2, 11):
        for degree in (2 * g + 1, 2 * g + 2, 6 * g - 2):
            spec = tessellation_for_degree(degree, g)
            assert spec.hyperbolic
            assert spec.genus == g
            assert euler_characteristic(spec.p, spec.q) == 2 - 2 * g
            assert q_from_euler(spec.p, g) == spec.q


def test_degree_family_validation():
    with pytest.raises(ValueError):
        tessellation_for_degree(7, 2)  # families for g=2 are 5, 6, 10
    with pytest.raises(ValueError):
        tessellation_for_degree(5, 1)


def test_cycle_counts():
    cc = cycle_count(8, 8)
    assert cc.ratio == Fraction(1)
    assert cc.divisible
    cc = cycle_count(10, 5)
    assert cc.ratio == Fraction(2)
    assert cc.divisible
    cc = cycle_count(18, 3)
    assert cc.ratio == Fraction(6)
    assert cc.divisible
    cc = cycle_count(10, 4)
    assert cc.ratio == Fraction(5, 2)
    assert not cc.divisible
    with pytest.raises(ValueError):
        cycle_count(2, 5)
