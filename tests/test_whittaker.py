"""Tests for the hypergeometric machinery and closed-form generators.

scipy and mpmath serve as independent oracles here; the library itself
never imports them. gamma_fn is math.gamma behind a pole check, so its
values are checked against mpmath.
"""

import cmath
import math
import random
import re

import mpmath
import pytest
import scipy.special

from fuchsian import NumericalError, whittaker
from fuchsian.curves import HyperellipticCurve
from fuchsian.group_builder import boundary_generators, subgroup_generators
from fuchsian.moebius import MapClass, MoebiusMap, classify, compose, normalize
from fuchsian.whittaker import (
    SeriesNotConvergedError,
    closed_form_generators,
    connection_map,
    connection_map_from_gammas,
    continuation_residual,
    gamma_fn,
    hde_params,
    hyp2f1,
    monodromy_zero,
    sine_product_residual,
    trig_identity_residuals,
    whittaker_generator_raw,
    whittaker_subgroup,
)


# --- gamma ---------------------------------------------------------------


def test_gamma_matches_stdlib_on_reals():
    # the stdlib Gamma behind gamma_fn, against a 40-digit mpmath value
    rng = random.Random(41)
    for _ in range(200):
        x = rng.uniform(-20, 20)
        if abs(x - round(x)) < 1e-3:
            continue
        with mpmath.workdps(40):
            want = float(mpmath.gamma(x))
        got = gamma_fn(x)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_gamma_integer_values():
    assert abs(gamma_fn(1) - 1.0) < 1e-13
    assert abs(gamma_fn(5) - 24.0) < 1e-11
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-13


def test_gamma_poles_raise():
    for bad in (0, -1, -7, 0.0, -3.0):
        with pytest.raises(ValueError):
            gamma_fn(bad)


# --- hypergeometric series -----------------------------------------------


def test_hyp2f1_matches_scipy():
    rng = random.Random(43)
    for _ in range(120):
        al = rng.uniform(0.05, 1.5)
        be = rng.uniform(0.05, 1.5)
        ga = rng.uniform(0.3, 2.5)
        x = rng.uniform(-0.85, 0.85)
        want = scipy.special.hyp2f1(al, be, ga, x)
        got = hyp2f1(al, be, ga, x)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(got.imag) < 1e-15


def test_hyp2f1_complex_argument_satisfies_euler_transform():
    rng = random.Random(44)
    for _ in range(60):
        al, be, ga = 0.3, 0.7, 1.1
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        lhs = hyp2f1(al, be, ga, z)
        rhs = (1 - z) ** (ga - al - be) * hyp2f1(ga - al, ga - be, ga, z)
        assert abs(lhs - rhs) < 1e-12


def test_hyp2f1_gauss_value_at_one():
    al, be, ga = 0.2, 0.4, 0.8
    want = math.gamma(ga) * math.gamma(ga - al - be) / (
        math.gamma(ga - al) * math.gamma(ga - be)
    )
    assert abs(hyp2f1(al, be, ga, 1) - want) < 1e-12
    # frozen value for the genus-2 parameter triple
    assert abs(hyp2f1(0.2, 0.4, 0.8, 1) - 1.6180339887) < 1e-9


def test_hyp2f1_domain_errors():
    with pytest.raises(ValueError):
        hyp2f1(0.2, 0.4, 0.8, 1.5)
    with pytest.raises(ValueError):
        hyp2f1(0.2, 0.4, 0.8, -1.0)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.8, 1.2, 1)  # gamma - alpha - beta not positive
    with pytest.raises(ValueError):
        hyp2f1(0.2, 0.4, -2.0, 0.3)  # nonpositive-integer gamma


HARD_POINT = (1 - 1e-5) * cmath.exp(1j * math.pi / 3)


def test_hyp2f1_term_budget_exhaustion_is_numerical(monkeypatch):
    # running out of terms is a numerical breakdown, not bad input, and
    # the error names the sum that ran out and its argument modulus; a
    # domain error stays a plain ValueError. (0.2, 0.4, 0.9) has gamma !=
    # 2 beta, so it reaches the four sums the quadratic one does not take
    # over; the genus-2 triple (0.2, 0.4, 0.8) = hde_params(2) takes the
    # quadratic sum at z = 0.5, where (z/(2-z))^2 = 1/9
    monkeypatch.setattr(whittaker, "SERIES_MAX_TERMS", 5)
    for triple, z, sum_name, modulus in (
        ((0.2, 0.4, 0.9), 0.5, "Maclaurin series in z", "0.5"),
        ((0.2, 0.4, 0.9), -0.9, "Pfaff series in z/(z-1)", "0.473684211"),
        ((0.2, 0.4, 0.9), 0.9, "DLMF 15.8.4 sum in 1-z", "0.1"),
        (
            (0.2, 0.4, 0.9),
            HARD_POINT,
            "Taylor series about z0 = (0.5+0.5j), seed",
            "0.707106781",
        ),
        (
            (0.2, 0.4, 0.9),
            HARD_POINT.conjugate(),
            "about z0 = (0.5-0.5j), seed",
            "0.707106781",
        ),
        (
            tuple(hde_params(2))[:3],
            0.5,
            "quadratic series in (z/(2-z))^2",
            "0.111111111",
        ),
    ):
        with pytest.raises(SeriesNotConvergedError, match="in 5 terms") as failure:
            hyp2f1(*triple, z)
        assert sum_name in str(failure.value)
        assert f"(argument modulus {modulus})" in str(failure.value)
    with pytest.raises(ValueError) as domain:
        hyp2f1(0.2, 0.4, 0.8, 1.5)
    assert not isinstance(domain.value, NumericalError)
    # the seed series of F(-2, 0.7; 1.3; z) at z0 terminate within 3
    # terms, so with a budget of 3 it is the Taylor loop that runs out
    monkeypatch.setattr(whittaker, "SERIES_MAX_TERMS", 3)
    with pytest.raises(SeriesNotConvergedError, match=r"in z - z0 .* in 3 terms"):
        hyp2f1(-2, 0.7, 1.3, HARD_POINT)


def test_a_terminating_sum_that_is_exactly_zero_stops_at_its_zero_term(monkeypatch):
    # roots of terminating series, F(-1, 2; 1; 0.5) = 1 - 1 and
    # F(-2, 3; 2; 0.5) = 1 - 1.5 + 0.5: the partial sum is 0 before the
    # zero term, which alone ends the sum within a budget of 3 terms
    monkeypatch.setattr(whittaker, "SERIES_MAX_TERMS", 3)
    for alpha, b, c in ((-1, 2, 1), (-2, 3, 2)):
        assert hyp2f1(alpha, b, c, 0.5) == 0
        assert hyp2f1(b, alpha, c, 0.5) == 0


@pytest.mark.parametrize("z", [math.nan, complex(math.nan, 0.3)])
def test_a_nan_argument_is_bad_input(z, monkeypatch):
    # rejected before any sum: a plain ValueError, not the numerical
    # breakdown a NaN partial sum would give once it ran out of terms
    # (SeriesNotConvergedError is a ValueError too, hence the isinstance);
    # the small budget keeps a sum that did run short
    monkeypatch.setattr(whittaker, "SERIES_MAX_TERMS", 3)
    with pytest.raises(ValueError, match="argument z is NaN") as bad:
        hyp2f1(0.2, 0.4, 0.8, z)
    assert not isinstance(bad.value, NumericalError)


@pytest.mark.parametrize(
    ("call", "args", "message"),
    [
        ("gamma_fn", (-math.inf,), "gamma argument is not finite: -inf"),
        ("gamma_fn", (math.inf,), "gamma argument is not finite: inf"),
        ("gamma_fn", (math.nan,), "gamma argument is not finite: nan"),
        ("continuation_constants", (0.2, -math.inf, 0.8), "beta is not finite: -inf"),
        ("hyp2f1", (0.2, 0.4, -math.inf, 0.5), "gamma is not finite: -inf"),
        ("hyp2f1", (math.inf, 0.4, 0.8, 0.5), "alpha is not finite: inf"),
        ("hyp2f1", (math.nan, 0.4, 0.8, 0.5), "alpha is not finite: nan"),
        # the screen's sum overflows before the infinite parameter is reached
        ("hyp2f1", (1e308, 1e308, math.inf, 0.5), "gamma is not finite: inf"),
        ("continuation_residual", (0.2, 0.4, math.inf, 0.3), "gamma is not finite: inf"),
        ("continuation_residual", (0.2, 0.4, math.nan, 0.3), "gamma is not finite: nan"),
        ("continuation_residual", (0.2, 0.4, 0.8, math.nan), "argument z is NaN"),
        ("continuation_residual", (0.2, 0.4, 0.8, complex(0.3, math.nan)), "z is NaN"),
    ],
)
def test_a_non_finite_input_is_bad_input(call, args, message, monkeypatch):
    # a plain ValueError naming the input, raised before any Gamma value
    # or sum: not an OverflowError from an integer test, a NaN value, or
    # a NaN sum that runs out of its term budget
    function = getattr(whittaker, call)

    def unreachable(*args):
        raise AssertionError(f"computed from bad input: {args}")

    for name in ("gamma_fn", "_series"):
        monkeypatch.setattr(whittaker, name, unreachable)
    with pytest.raises(ValueError, match=re.escape(message)) as bad:
        function(*args)
    assert not isinstance(bad.value, NumericalError)


def test_an_alternating_sum_near_the_negative_real_axis_keeps_its_digits():
    # Im F is about 3e-4 of Re F here, and a complex partial sum stagnates
    # only once both parts do: the sum takes 49 terms, where a stop test
    # on |term| < 1e-16 |sum| took 41
    p = hde_params(2)
    z = -0.8363590157521454 + 0.004921687872512701j
    with mpmath.workdps(30):
        want = complex(mpmath.hyp2f1(p.alpha, p.beta, p.gamma, z))
    got = hyp2f1(p.alpha, p.beta, p.gamma, z)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert abs(got.imag - want.imag) <= 1e-13 * abs(want.imag)


# the most terms any one sum takes over the grid below, and that plus 10%
BUDGET_GRID_MOST_TERMS = 64
BUDGET_GRID_TERMS = 70


def budget_grid():
    """The benchmark's hyp2f1 region: genus triples for g = 2..1000 and
    1e-3 <= 1 - |z| <= 1, on a log-spaced grid at 72 angles."""
    genera = sorted({round(2 * 500 ** (i / 7)) for i in range(8)})
    gaps = [1e-3 * 1000 ** (i / 9) for i in range(10)]
    for g in genera:
        p = hde_params(g)
        for gap in gaps:
            for k in range(72):
                yield p, (1 - gap) * cmath.exp(2j * math.pi * k / 72)


def test_every_sum_of_the_workload_region_fits_a_tight_term_budget(monkeypatch):
    # each sum (series or connection) has its own budget, and the largest
    # one needs BUDGET_GRID_MOST_TERMS terms: a stop rule that keeps
    # summing long after the partial sum has stopped moving fails. The
    # quadratic series in (z/(2-z))^2 has argument modulus at most 1/3
    # near e^(+-i pi/3), where every other sum needed up to 250 terms
    monkeypatch.setattr(whittaker, "SERIES_MAX_TERMS", BUDGET_GRID_TERMS)
    for p, z in budget_grid():
        assert cmath.isfinite(hyp2f1(p.alpha, p.beta, p.gamma, z))


def test_genus_triples_never_reach_the_taylor_sum(monkeypatch):
    # gamma = 2 beta holds bit for bit for every genus triple, and where
    # the Taylor series about (1 +- i)/2 would be summed the quadratic
    # series has the smaller argument
    def unreachable(*args):
        raise AssertionError(f"Taylor sum reached at {args}")

    monkeypatch.setattr(whittaker, "_taylor_sum", unreachable)
    for p, z in budget_grid():
        assert p.gamma == 2 * p.beta
        hyp2f1(p.alpha, p.beta, p.gamma, z)


QUADRATIC = "quadratic series in (z/(2-z))^2"
MACLAURIN = "Maclaurin series in z"
CONNECTION = "DLMF 15.8.4 sum in 1-z"


def sums_taken(monkeypatch) -> list:
    """Record the name of every series hyp2f1 or the continuation check
    sums from now on."""
    names = []
    series = whittaker._series

    def recording(alpha, beta, gamma, z, name=MACLAURIN):
        names.append(name)
        return series(alpha, beta, gamma, z, name)

    monkeypatch.setattr(whittaker, "_series", recording)
    return names


QUADRATIC_RADII = (0.3, 0.6, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9)
QUADRATIC_ANGLES = [2 * math.pi * k / 24 for k in range(24)] + [
    s * math.pi / 3 + d for s in (1, -1) for d in (0.0, -0.1, 0.1)
]


@pytest.mark.parametrize("g", [2, 3, 5, 41, 1000, 3000])
def test_the_quadratic_sum_matches_mpmath(g, monkeypatch):
    # DLMF 15.8.13: F(alpha, beta; 2 beta; z) = (1 - z/2)^(-alpha)
    # F(alpha/2, alpha/2 + 1/2; beta + 1/2; (z/(2-z))^2). Every point
    # where hyp2f1 takes it, e^(+-i pi/3) included, is within 4e-15
    # relative (8.0e-16 at most when written)
    p = hde_params(g)
    names = sums_taken(monkeypatch)
    taken = 0
    for r in QUADRATIC_RADII:
        for theta in QUADRATIC_ANGLES:
            z = r * cmath.exp(1j * theta)
            names.clear()
            got = hyp2f1(p.alpha, p.beta, p.gamma, z)
            if names != [QUADRATIC]:
                # only near z = 1, where 1 - z is the smaller argument
                assert abs(1 - z) < 0.7
                continue
            taken += 1
            with mpmath.workdps(30):
                want = complex(mpmath.hyp2f1(p.alpha, p.beta, p.gamma, z))
            assert abs(got - want) <= 4e-15 * abs(want)
    # every radius at the hard angles, and most points overall
    assert taken >= 0.8 * len(QUADRATIC_RADII) * len(QUADRATIC_ANGLES)
    for sign in (1, -1):
        for r in QUADRATIC_RADII:
            names.clear()
            hyp2f1(p.alpha, p.beta, p.gamma, r * cmath.exp(sign * 1j * math.pi / 3))
            assert names == [QUADRATIC]


def test_the_swapped_triple_of_the_symmetry_check_takes_another_sum(monkeypatch):
    # verify's symmetry line compares F(alpha, beta; gamma; z) with
    # F(beta, alpha; gamma; z). Only the first has gamma = 2 beta, so the
    # two sides take different sums and the line does not read 0 by
    # comparing one sum with itself
    p = hde_params(2)
    names = sums_taken(monkeypatch)
    for z in (0.5, -0.5, 0.3j, 0.8 * cmath.exp(1j * math.pi / 3)):
        names.clear()
        f = hyp2f1(p.alpha, p.beta, p.gamma, z)
        assert names == [QUADRATIC]
        names.clear()
        swapped = hyp2f1(p.beta, p.alpha, p.gamma, z)
        assert names and QUADRATIC not in names
        assert f != swapped
        assert abs(f - swapped) <= 1e-14 * abs(f)


# radii where hyp2f1 routes through a transformation, and angles around
# the circle including the hard points e^(+-i pi/3) and angles near them,
# where the outer radii take the Taylor series about (1 +- i)/2
DISK_RADII = (0.6, 0.95, 0.999, 1 - 1e-5)
DISK_ANGLES = [2 * math.pi * k / 12 for k in range(12)] + [
    s * math.pi / 3 + d for s in (1, -1) for d in (0.0, -0.15, -0.05, 0.05, 0.15)
]


def disk_points():
    for r in DISK_RADII:
        for theta in DISK_ANGLES:
            yield r * cmath.exp(1j * theta)


def test_hyp2f1_polynomial_when_alpha_is_negative_integer():
    # terminating case: F(-2, b; c; z) = 1 - 2bz/c + b(b+1)z^2/(c(c+1)),
    # in either parameter order and wherever hyp2f1 routes it
    for b, c in ((0.7, 1.3), (0.4, 0.8)):
        for z in (0.2, -0.5, 0.9, *disk_points()):
            want = 1 - 2 * b * z / c + b * (b + 1) * z * z / (c * (c + 1))
            assert abs(hyp2f1(-2, b, c, z) - want) < 1e-14
            assert abs(hyp2f1(b, -2, c, z) - want) < 1e-14


def test_a_terminating_quadratic_triple_equals_its_polynomial(monkeypatch):
    # F(-2, b; 2b; z) = 1 - z + (b + 1) z^2 / (2 (2b + 1)); its quadratic
    # series F(-1, -1/2; b + 1/2; zeta) ends at its zero second term, so a
    # budget of 2 terms is enough
    monkeypatch.setattr(whittaker, "SERIES_MAX_TERMS", 2)
    names = sums_taken(monkeypatch)
    points = (0.2, -0.5, 0.5j, *disk_points())
    taken = 0
    for b in (0.4, 0.7, hde_params(41).beta):
        for z in points:
            names.clear()
            try:
                got = hyp2f1(-2, b, 2 * b, z)
            except SeriesNotConvergedError:
                # the Maclaurin and Pfaff polynomials take 3 terms
                assert QUADRATIC not in names
                continue
            assert names == [QUADRATIC]
            taken += 1
            want = 1 - z + (b + 1) * z * z / (2 * (2 * b + 1))
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
    assert taken >= 0.8 * 3 * len(points)


def test_hyp2f1_reduction_with_gamma_equal_to_beta_over_the_disk():
    # gamma - beta = 0 is a Gamma pole of the 1 - z connection, so these
    # never take it; none may raise ValueError (verify's reduction check)
    # for |z| <= 0.999. Just inside the circle they still run out of
    # terms where 1 - z is the smallest argument, near z = 1 (there is no
    # re-expansion about z = 1), and nowhere else
    for z in disk_points():
        for a, b in ((0.2, 0.4), (0.7, 1.3), (-0.3, 0.45)):
            want = (1 - z) ** (-a)
            try:
                got = hyp2f1(a, b, b, z)
            except SeriesNotConvergedError:
                assert abs(z) > 0.999
                assert abs(1 - z) < min(abs(z), abs(z / (z - 1)))
                continue
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    "a, b, c",
    [
        # integer gamma - alpha - beta: the connection constants are infinite
        (0.25, 0.25, 1.5),
        (0.5, 0.5, 1.0),
        (0.3, 0.7, 3.0),
        # gamma - alpha - beta near 1 or 0, or past 1, or gamma > 2: the
        # connection formula would lose digits (relative errors 0.6 and
        # 4.4e-11 at z = 0.9, 1.4e-8 at 0.5349+0.8331j, 1.2e-9 at
        # 0.99 e^(-0.9i))
        (0.25, 0.25, 1.5 + 1e-9),
        (0.3, 0.45, 0.75 + 1e-6),
        (1.26, 0.508, 6.668),
        (3.0, 3.0, 6.5),
    ],
)
def test_hyp2f1_triples_without_the_connection_formula_over_the_disk(a, b, c):
    # hyp2f1 sums the plain or Pfaff series: a right value or a numerical
    # failure, never a ValueError or a wrong value
    extra = [0.9, 0.5349 + 0.8331j, 0.99 * cmath.exp(-0.9j)]
    for z in [*disk_points(), *extra]:
        try:
            got = hyp2f1(a, b, c, z)
        except SeriesNotConvergedError:
            continue
        with mpmath.workdps(25):
            want = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(got - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize(
    "a, b, c",
    # the genus-2 triple is (0.2, 0.4, 0.8)
    [tuple(hde_params(g))[:3] for g in (2, 5, 41, 200, 1000)]
    + [(0.3, 0.7, 1.1)],
    ids=["g2", "g5", "g41", "g200", "g1000", "generic"],
)
def test_hyp2f1_matches_mpmath_over_the_disk(a, b, c):
    with mpmath.workdps(25):
        for r in (0.3, 0.6, 0.9, 0.99, 0.999):
            for k in range(48):
                z = r * cmath.exp(2j * math.pi * k / 48)
                want = complex(mpmath.hyp2f1(a, b, c, z))
                assert abs(hyp2f1(a, b, c, z) - want) <= 1e-11 * abs(want)


def test_hyp2f1_matches_mpmath_where_every_series_argument_is_near_one():
    # at e^(+-i pi/3) |z| = |z/(z-1)| = |1-z| = 1, so each of those
    # series would need far more than SERIES_MAX_TERMS terms just inside
    # the circle. The Taylor series about (1 +- i)/2 converges there
    # (the generic triple), and so does the quadratic series in
    # (z/(2-z))^2, of modulus 1/3 (the genus-2 triple)
    for eps in (1e-5, 1e-12):
        for sign in (1, -1):
            z = (1 - eps) * cmath.exp(sign * 1j * math.pi / 3)
            for a, b, c in (hde_params(2)[:3], (0.3, 0.7, 1.1)):
                with mpmath.workdps(25):
                    want = complex(mpmath.hyp2f1(a, b, c, z))
                assert abs(hyp2f1(a, b, c, z) - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("theta", [0.0, 0.5, 2.0, math.pi, -2.0, -0.5])
def test_hyp2f1_converges_just_inside_the_circle_away_from_the_hard_points(theta):
    # the plain series would need millions of terms at |z| = 1 - 1e-5;
    # near 1 the 1 - z connection and near -1 Pfaff's z/(z-1) are small
    p = hde_params(5)
    z = (1 - 1e-5) * cmath.exp(1j * theta)
    with mpmath.workdps(25):
        want = complex(mpmath.hyp2f1(p.alpha, p.beta, p.gamma, z))
    assert abs(hyp2f1(p.alpha, p.beta, p.gamma, z) - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("gap", [2e-4, 1e-4])
def test_hyp2f1_former_term_budget_defects_converge(gap):
    # the plain series ran out of terms at these genus-2 points; the
    # 1 - z connection has argument modulus 0.96 there
    p = hde_params(2)
    z = (1 - gap) * cmath.exp(1j)
    with mpmath.workdps(25):
        want = complex(mpmath.hyp2f1(p.alpha, p.beta, p.gamma, z))
    assert abs(hyp2f1(p.alpha, p.beta, p.gamma, z) - want) <= 1e-10 * abs(want)


# --- parameter triple ----------------------------------------------------


def test_hde_params_values():
    p2 = hde_params(2)
    assert (p2.alpha, p2.beta, p2.gamma) == (0.2, 0.4, 0.8)
    assert p2.a == 0.2
    p3 = hde_params(3)
    assert abs(p3.alpha - 2 / 7) < 1e-15
    assert abs(p3.beta - 3 / 7) < 1e-15
    assert abs(p3.gamma - 6 / 7) < 1e-15
    for g in range(2, 12):
        p = hde_params(g)
        assert p.gamma - p.alpha - p.beta == pytest.approx(p.a)
        assert p.a > 0
    with pytest.raises(ValueError):
        hde_params(1)


# --- analytic continuation -----------------------------------------------


def test_continuation_residual_is_tiny_on_both_sides():
    assert continuation_residual(0.2, 0.4, 0.8, 0.3) < 1e-10
    assert continuation_residual(0.2, 0.4, 0.8, 0.7) < 1e-10
    rng = random.Random(45)
    for _ in range(20):
        z = rng.uniform(0.1, 0.9)
        assert continuation_residual(0.2, 0.4, 0.8, z) < 1e-10


def test_continuation_residual_sees_a_bent_constant(monkeypatch):
    # negative control: the reference side sums the quadratic series in
    # (z/(2-z))^2, never the 1 - z connection, so a bend of A shows up in
    # the residual; were F(z) itself evaluated through the 1 - z
    # connection (as hyp2f1 does for z > 1/2) the bend would cancel
    constants = whittaker.continuation_constants

    def bent(alpha, beta, gamma):
        coeff_a, coeff_b = constants(alpha, beta, gamma)
        return coeff_a * (1 + 1e-6), coeff_b

    monkeypatch.setattr(whittaker, "continuation_constants", bent)
    p = hde_params(2)
    zs = [0.2, 0.4, 0.6, 0.7, 0.8, 0.9]
    for residual in whittaker.continuation_residuals(p.alpha, p.beta, p.gamma, zs):
        assert residual > 1e-10


def test_the_continuation_reference_side_is_the_quadratic_sum_for_genus_triples(
    monkeypatch,
):
    # gamma = 2 beta (every genus triple) takes the quadratic series in
    # (z/(2-z))^2, another triple the Maclaurin series; then the two
    # 15.8.4 series in 1 - z. Neither reference is the 1 - z formula
    names = sums_taken(monkeypatch)
    zs = (0.2, 0.7, 0.5 + 0.3j)
    for g in (2, 41, 1000):
        p = hde_params(g)
        names.clear()
        whittaker.continuation_residuals(p.alpha, p.beta, p.gamma, zs)
        assert names == [QUADRATIC, CONNECTION, CONNECTION] * len(zs)
    names.clear()
    whittaker.continuation_residuals(0.2, 0.4, 0.9, zs)
    assert names == [MACLAURIN, CONNECTION, CONNECTION] * len(zs)


@pytest.mark.parametrize("g", [2, 3, 5, 10, 50, 200, 1000, 3000])
def test_the_continuation_reference_side_matches_mpmath(g, monkeypatch):
    # the value the check compares the 15.8.4 sum with, F(z) by DLMF
    # 15.8.13, within 4e-15 relative of 30-digit mpmath (1.1e-15 at most
    # when written) on the real segment and off it
    references = []
    quadratic = whittaker._quadratic_sum

    def recording(alpha, beta, z, zeta):
        references.append(quadratic(alpha, beta, z, zeta))
        return references[-1]

    monkeypatch.setattr(whittaker, "_quadratic_sum", recording)
    p = hde_params(g)
    zs = [k / 10 for k in range(1, 10)] + [0.5 + 0.3j, 0.3 - 0.2j, 0.7 + 0.4j]
    for z in zs:
        assert abs(z) < 1 and abs(1 - z) < 1
    whittaker.continuation_residuals(p.alpha, p.beta, p.gamma, zs)
    assert len(references) == len(zs)
    with mpmath.workdps(30):
        for z, got in zip(zs, references):
            want = complex(mpmath.hyp2f1(p.alpha, p.beta, p.gamma, z))
            assert abs(got - want) <= 4e-15 * abs(want)


def test_the_continuation_check_fits_a_budget_of_100_terms(monkeypatch):
    # at z = 0.9 the quadratic reference side takes 75 to 79 terms for
    # these genera, where the Maclaurin series in z took 267 to 287
    monkeypatch.setattr(whittaker, "SERIES_MAX_TERMS", 100)
    for g in (2, 41, 1000):
        p = hde_params(g)
        residuals = whittaker.continuation_residuals(
            p.alpha, p.beta, p.gamma, (0.5, 0.7, 0.9)
        )
        for residual in residuals:
            assert math.isfinite(residual)
            assert residual <= 1e-10


def test_continuation_rejects_degenerate_and_out_of_range():
    with pytest.raises(ValueError):
        continuation_residual(0.25, 0.25, 1.5, 0.3)  # integer gamma-alpha-beta
    with pytest.raises(ValueError):
        continuation_residual(0.2, 0.4, 0.8, 1.2)
    with pytest.raises(ValueError):
        continuation_residual(0.2, 0.4, 0.8, -0.5)


# --- connection and monodromy --------------------------------------------


def test_connection_map_frozen_entries_genus_two():
    w = connection_map(2)
    a = 0.2
    assert abs(w.a - 2 * math.cos(a * math.pi) * cmath.exp(-3j * a * math.pi)) < 1e-15
    assert abs(w.b - (-1j * (math.cos(0.2 * math.pi) + math.cos(0.4 * math.pi))
                      / math.sin(0.2 * math.pi))) < 1e-15
    assert abs(w.a - (-0.5 - 1.5388417686j)) < 1e-9
    assert abs(w.b - (-1.9021130326j)) < 1e-9
    assert abs(w.c - 1.1755705046j) < 1e-9
    # determinant and trace have closed forms
    assert abs(w.det - (2 - 2 * math.cos(0.2 * math.pi))) < 1e-12
    assert abs(w.trace - 4 * math.cos(0.2 * math.pi) * math.cos(0.6 * math.pi)) < 1e-12


CONNECTION_GENERA = [*range(2, 121), 200, 1000, 3000]


def test_connection_map_two_constructions_agree_projectively():
    # verify checks g = 2..5; the benchmark checks the maps up to g = 80.
    # projective_distance of the normalized maps exceeds 1e-8 from g = 97
    # (1.2e-4 at g = 1000); the entrywise residual stays near 1e-13
    for g in CONNECTION_GENERA:
        closed_form, from_gammas = connection_map(g), connection_map_from_gammas(g)
        assert whittaker.connection_residual(closed_form, from_gammas) < 1e-8


@pytest.mark.parametrize("entry", "abcd")
def test_connection_residual_reads_a_bent_entry_at_every_genus(entry):
    # negative control: a relative bend of 1e-6 in any one entry reads
    # 1e-6 to five digits, including the largest entry, which sets the scale
    for g in CONNECTION_GENERA:
        closed_form, from_gammas = connection_map(g), connection_map_from_gammas(g)
        bent = {e: getattr(from_gammas, e) for e in "abcd"}
        bent[entry] *= 1 + 1e-6
        residual = whittaker.connection_residual(closed_form, MoebiusMap(**bent))
        assert residual == pytest.approx(1e-6, rel=1e-5)


def test_connection_residual_of_zero_entries():
    identity = MoebiusMap(1, 0, 0, 1)
    assert whittaker.connection_residual(identity, MoebiusMap(2j, 0, 0, 2j)) == 0
    assert whittaker.connection_residual(identity, MoebiusMap(1, 1e-300, 0, 1)) == math.inf
    assert whittaker.connection_residual(MoebiusMap(1, 1e-300, 0, 1), identity) == math.inf
    assert whittaker.connection_residual(MoebiusMap(1, 2, 3, 4), MoebiusMap(0, 2, 3, 4)) == math.inf


def test_connection_map_from_gammas_evaluates_each_gamma_once(monkeypatch):
    # 8 distinct arguments: 2(g+1)a, 2ga, (g+2)a, (g+1)a, ga, (g-1)a, a, -a
    args = []

    def counting(x):
        args.append(x)
        return gamma_fn(x)

    monkeypatch.setattr(whittaker, "gamma_fn", counting)
    connection_map_from_gammas(5)
    assert len(args) == len(set(args)) == 8


def test_connection_map_rejects_small_genus():
    with pytest.raises(ValueError):
        connection_map(1)
    with pytest.raises(ValueError):
        connection_map_from_gammas(1)
    with pytest.raises(ValueError):
        monodromy_zero(1)
    with pytest.raises(ValueError):
        trig_identity_residuals(1)
    with pytest.raises(ValueError):
        sine_product_residual(1)


def test_monodromy_is_a_root_of_unity_action():
    for g in range(2, 6):
        m = monodromy_zero(g)
        assert m.b == 0 and m.c == 0
        assert abs(m.a - cmath.exp(2j * math.pi / (2 * g + 1))) < 1e-15
        power = m
        for _ in range(2 * g):
            power = compose(power, m)
        assert abs(power.a / power.d - 1.0) < 1e-10


def test_trig_identities_hold():
    for g in range(2, 9):
        r_minus, r_plus = trig_identity_residuals(g)
        assert r_minus < 1e-12
        assert r_plus < 1e-12
        assert sine_product_residual(g) < 1e-12


# --- closed-form generators ----------------------------------------------


def test_raw_generator_shape_and_determinant():
    for g in (2, 3, 5):
        a = 1.0 / (2 * g + 1)
        want_det = (2 * math.cos(a * math.pi) - 2) / (2 * math.cos(a * math.pi) - 1)
        for k in range(2 * g + 1):
            raw = whittaker_generator_raw(g, k)
            assert raw.trace == 0
            assert abs(raw.det - want_det) < 1e-12
            assert abs(abs(raw.b) - 1.0) < 1e-15
            assert abs(raw.c - (-raw.b).conjugate()) < 1e-15


def test_raw_generator_index_bounds():
    with pytest.raises(ValueError):
        whittaker_generator_raw(2, 5)
    with pytest.raises(ValueError):
        whittaker_generator_raw(2, -1)
    with pytest.raises(ValueError):
        whittaker_generator_raw(1, 0)


def normalized_display_form(g, k):
    """normalize(whittaker_generator_raw(g, k)) in 40-digit mpmath: the
    display form at the package's float a and float angle
    (4k+1) a pi/2, divided by the principal square root of its
    determinant. Taking the package's angle measures the normalization
    alone; the angle's own rounding (up to about 1e-15 near 2 pi) is the
    same in both forms."""
    a = 1.0 / (2 * g + 1)
    with mpmath.workdps(40):
        r = (2 * mpmath.cos(mpmath.mpf(a) * mpmath.pi) - 1) ** mpmath.mpf(-0.5)
        ph = mpmath.expj((4 * k + 1) * a * math.pi / 2.0)
        root = mpmath.sqrt(mpmath.mpc(1 - r * r))
        return [x / root for x in (r, -ph, mpmath.conj(ph), -r)]


@pytest.mark.parametrize("g", [2, 10, 100, 1000, 6000, 10**4, 10**5])
def test_closed_form_generators_match_the_normalized_display_form(g):
    # normalizing the display form forms its determinant
    # (2 cos a pi - 2)/(2 cos a pi - 1) with cancellation: 1.4e-15 off at
    # g = 10, 3.0e-13 at g = 100 and 7.1e-9 at g = 10^4 against this
    # reference, relative to the largest entry; the form in s_c reads
    # at most 2.6e-16
    gens = closed_form_generators(g)
    assert len(gens) == 2 * g + 1
    for k in (0, 1, g, 2 * g):
        gen = gens[k]
        want = normalized_display_form(g, k)
        largest = max(abs(x) for x in want)
        got = (gen.a, gen.b, gen.c, gen.d)
        err = max(abs(mpmath.mpc(x) - y) for x, y in zip(got, want)) / largest
        assert err <= 1e-15, (k, float(err))
        assert gen.d == -gen.a and gen.c == gen.b.conjugate()
        if g <= 10:
            # the same matrix as the package's own normalization of the
            # paper's formula, so the same principal-branch sign too
            norm = normalize(whittaker_generator_raw(g, k))
            ref = max(abs(norm.a), abs(norm.b))
            assert max(
                abs(x - y) for x, y in zip(got, (norm.a, norm.b, norm.c, norm.d))
            ) <= 1e-14 * ref


def spectrum_gap(trace, m, n, cosh2):
    """| |tr| - (2 + 4 sinh^2 s sin^2(pi m/n)) | / (2 cosh^2 s): how far a
    product of the half-turns with index gap m, at distance s from 0, is
    from the trace formula, scaled by the size of its entries."""
    want = 2.0 + 4.0 * (cosh2 - 1.0) * math.sin(math.pi * m / n) ** 2
    return abs(abs(trace) - want) / (2.0 * cosh2)


@pytest.mark.parametrize("g", [*range(2, 11), 50, 200, 1000])
def test_both_families_have_the_trace_spectrum_of_their_radius(g):
    # both groups are generated by 2g+1 half-turns at one distance s from
    # 0, equally spaced in angle: s_b for the boundary group (cosh s_b =
    # 1/sin(delta), delta = pi/(2g+1)) and s_c for the closed-form family
    # (cosh s_c = cos(delta/2)/sin(delta)). Measured worst: 1.7e-15
    # (boundary) and 1.6e-15 (closed form).
    n = 2 * g + 1
    delta = math.pi / n
    cosh2_b = 1.0 / math.sin(delta) ** 2
    cosh2_c = (math.cos(delta / 2) / math.sin(delta)) ** 2
    boundary = []
    for sign in (1, -1):
        base = boundary_generators(HyperellipticCurve(g, sign))
        for k in (1, g + 1):
            others = [j for j in range(1, n + 1) if j != k]
            surface = subgroup_generators(base, k).generators
            boundary += [(p.trace, j - k) for j, p in zip(others, surface)]
    closed = [
        (p.trace, m)
        for m, p in enumerate(whittaker_subgroup(closed_form_generators(g)), start=1)
    ]
    for products, cosh2, other in (
        (boundary, cosh2_b, cosh2_c),
        (closed, cosh2_c, cosh2_b),
    ):
        for trace, m in products:
            assert spectrum_gap(trace, m, n, cosh2) <= 1e-14, (g, m)
            # negative control: the other radius misses every product, by
            # 3.0e-12 at the least (g = 1000, m = 1)
            assert spectrum_gap(trace, m, n, other) > 1e-14, (g, m)


def test_normalized_generators_are_elliptic_involutions():
    for g in (2, 3, 4):
        for gen in closed_form_generators(g):
            assert abs(gen.det - 1.0) < 1e-12
            assert gen.trace == 0
            assert classify(gen) is MapClass.ELLIPTIC
            sq = compose(gen, gen)
            assert max(abs(sq.a + 1), abs(sq.b), abs(sq.c), abs(sq.d + 1)) < 1e-12


def test_subgroup_products_frozen_traces_genus_two():
    prods = whittaker_subgroup(closed_form_generators(2))
    assert len(prods) == 4
    want = (4.2360679775, 7.8541019662, 7.8541019662, 4.2360679775)
    for prod, expect in zip(prods, want):
        assert classify(prod) is MapClass.HYPERBOLIC
        assert abs(prod.det - 1.0) < 1e-12
        assert abs(abs(prod.trace) - expect) < 1e-8


def test_subgroup_products_hyperbolic_for_higher_genus():
    for g in (3, 4, 5, 6):
        prods = whittaker_subgroup(closed_form_generators(g))
        assert len(prods) == 2 * g
        for prod in prods:
            assert classify(prod) is MapClass.HYPERBOLIC
