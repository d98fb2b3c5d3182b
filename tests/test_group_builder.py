"""Tests for the boundary group, surface subgroup, and fundamental polygon."""

import cmath
import dataclasses
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fuchsian.curves import HyperellipticCurve, roots
from fuchsian.group_builder import (
    DET_TOL,
    INVOLUTION_TOL,
    TRACE_TOL,
    FuchsianGroupSpec,
    VerifyEntry,
    VerifyReport,
    boundary_generators,
    side_pairing_elliptic,
    subgroup_generators,
    verify_group,
)
from fuchsian.disk_geometry import (
    GeodesicArc,
    fundamental_polygon,
    geodesic_apex,
    geodesic_between,
    polygon_area,
)
from fuchsian import moebius
from fuchsian.moebius import (
    _DET_REAL_SNAP,
    CLASS_BOUNDARY_TOL,
    _FILTER_ELLIPTIC_BELOW,
    _FILTER_HYPERBOLIC_ABOVE,
    _FILTER_IMAG,
    _FILTER_SIZE,
    DegenerateMapError,
    MapClass,
    MoebiusMap,
    classify,
    compose,
)
from oracles import three_point_pairing
from test_moebius import (
    ILL_CONDITIONED_MAPS,
    outcome,
    reference_classify,
    reference_compose,
)


def test_boundary_generators_frozen_genus_two():
    base = boundary_generators(HyperellipticCurve(2, -1))
    assert base.kind == "boundary"
    assert len(base.generators) == 5
    t1, t2 = base.generators[0], base.generators[1]
    assert abs(t1.a - 1.7013016167j) < 1e-9
    assert abs(t1.b - (1.3090169944 + 0.4253254042j)) < 1e-9
    assert abs(t1.c - (1.3090169944 - 0.4253254042j)) < 1e-9
    assert abs(t1.d + 1.7013016167j) < 1e-9
    # every half-turn has the same sign convention: a = i cosh(s_b) =
    # i/sin(pi/5) and d = -a
    assert abs(t2.a - 1.7013016167j) < 1e-9
    assert abs(t2.b - 1.3763819205j) < 1e-9
    assert abs(t2.c + 1.3763819205j) < 1e-9
    assert abs(t2.d + 1.7013016167j) < 1e-9


def test_boundary_generators_swap_adjacent_roots():
    # generator j swaps side j's endpoints (adjacent roots) and fixes the
    # side's apex; the rounding grows like n = 2g + 1 (at most 3.2e-16 n)
    from fuchsian.moebius import apply

    for g in [*range(1, 101), 1000, 10_000]:
        tol = 1e-15 * (2 * g + 1)
        for sign in (1, -1):
            base = boundary_generators(HyperellipticCurve(g, sign))
            worst = 0.0
            for gen, side in zip(base.generators, base.sides, strict=True):
                z1, z2 = side.endpoints
                apex = side.apex
                worst = max(
                    worst,
                    abs(apply(gen, z1) - z2),
                    abs(apply(gen, z2) - z1),
                    abs(apply(gen, apex) - apex),
                )
            assert worst <= tol, (g, sign, worst)


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
    assert sub.sides == ()
    assert len(sub.generators) == 4
    want = (4.6180339887, 8.8541019662, 8.8541019662, 4.6180339887)
    for prod, expect in zip(sub.generators, want):
        assert classify(prod) is MapClass.HYPERBOLIC
        assert abs(abs(prod.trace) - expect) < 1e-8
    # first product is the fixed map times generator 2, in that order,
    # as the plain matrix product
    assert sub.generators[0] == compose(base.generators[0], base.generators[1])


def test_subgroup_with_other_fixed_indices():
    base = boundary_generators(HyperellipticCurve(2, -1))
    for k in range(1, 6):
        sub = subgroup_generators(base, k)
        assert len(sub.generators) == 4
        assert verify_group(sub).passed
    first_of_k3 = subgroup_generators(base, 3).generators[0]
    assert first_of_k3 == compose(base.generators[2], base.generators[0])


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
    # which is parabolic-classified, never hyperbolic; verify_group
    # reports it
    rigged = FuchsianGroupSpec("boundary", (t1, t1))
    report = verify_group(subgroup_generators(rigged))
    assert [e.map_class for e in report.entries] == ["parabolic"]
    assert not report.passed and not report.entries[0].passed
    # a product whose determinant underflows is not a map
    tiny = MoebiusMap(1e-100, 0, 0, 1e-100)
    rigged = FuchsianGroupSpec("boundary", (tiny, tiny))
    with pytest.raises(DegenerateMapError):
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
    rigged = FuchsianGroupSpec("boundary", (bent,) + base.generators[1:])
    report = verify_group(rigged)
    assert not report.passed
    assert not report.entries[0].passed
    assert all(e.passed for e in report.entries[1:])
    assert report.entries[0].label == "boundary[1]"


def bend_surface(surface: FuchsianGroupSpec) -> FuchsianGroupSpec:
    """The benchmark self-check's corruption: entry a of the first
    product moved by 1e-2, the variant made with `dataclasses.replace`."""
    first = surface.generators[0]
    bent = MoebiusMap(first.a + 1e-2, first.b, first.c, first.d)
    return dataclasses.replace(surface, generators=(bent,) + surface.generators[1:])


def test_bent_surface_fails_on_its_first_entry_only():
    surface = subgroup_generators(boundary_generators(HyperellipticCurve(3, -1)), 2)
    bent = bend_surface(surface)
    assert (bent.kind, bent.sides) == ("surface", ())
    assert bent.generators[1:] == surface.generators[1:]
    assert verify_group(surface).passed
    report = verify_group(bent)
    assert not report.passed
    assert [e.label for e in report.entries if not e.passed] == ["surface[1]"]


def test_verify_group_checks_hyperbolicity_of_products():
    base = boundary_generators(HyperellipticCurve(2, -1))
    elliptic_posing_as_product = FuchsianGroupSpec("surface", (base.generators[0],))
    report = verify_group(elliptic_posing_as_product)
    assert not report.passed
    assert report.entries[0].map_class == "elliptic"


def surface_groups(g: int, ks):
    for sign in (1, -1):
        base = boundary_generators(HyperellipticCurve(g, sign))
        for k in ks:
            yield subgroup_generators(base, k)


def test_every_surface_group_passes_at_large_genus():
    # a product's entries grow like |tr|/2 and the rounding of ad - bc
    # with them: an absolute det bound of 1e-9 failed from genus 43
    for g in range(42, 48):
        for surface in surface_groups(g, range(1, 2 * g + 2)):
            assert verify_group(surface).passed
    for g in (100, 1000, 3000):
        for surface in surface_groups(g, (1, g + 1)):
            assert verify_group(surface).passed


@pytest.mark.parametrize("g", [2, 41, 1000])
def test_a_relative_bend_of_one_product_entry_fails(g):
    surface = subgroup_generators(boundary_generators(HyperellipticCurve(g, -1)))
    first = surface.generators[0]
    bent = MoebiusMap(first.a * (1 + 1e-11), first.b, first.c, first.d)
    report = verify_group(
        FuchsianGroupSpec("surface", (bent,) + surface.generators[1:])
    )
    assert [e.label for e in report.entries if not e.passed] == ["surface[1]"]
    assert report.entries[0].map_class == "hyperbolic"


def test_maps_with_huge_entries_fail_without_raising():
    # |M|^2 overflows, so a bound computed as DET_TOL * |M|^2/2 would be
    # inf and pass the finite residual 1.44e308; |a||d| + |b||c| is
    # 1.44e308 itself
    big = MoebiusMap(2.4e154, 0, 0, 0.6e154)
    # the determinant overflows too, so the residual is inf
    huge = MoebiusMap(1e160, 1e160, 1e-160, 1e160)
    # a*d and b*c have finite parts but moduli past the float range, and
    # det = 2e292: the filter's |ad| + |bc| must not raise OverflowError
    a, d = complex(1.3e154, 0), complex(1.05e154, 1.05e154)
    wide = MoebiusMap(a, a, complex(math.nextafter(d.real, 0), d.imag), d)
    spec = FuchsianGroupSpec("surface", (big, huge, wide))
    report = verify_group(spec)
    assert [e.map_class for e in report.entries] == [
        "hyperbolic", "unclassifiable", "unclassifiable"
    ]
    assert report.entries[1].det_residual == math.inf
    assert not any(e.passed for e in report.entries)
    assert report_outcome(verify_group, spec) == report_outcome(
        reference_verify_group, spec
    )


def test_an_unbalanced_map_with_determinant_two_fails():
    # |a||d| + |b||c| = 2 scales the determinant bound; |M|^2/2 = 5e13
    # did, and passed this det = 2 as rounding
    m = MoebiusMap(1e7, 0, 0, 2e-7)
    report = verify_group(FuchsianGroupSpec("surface", (m,)))
    (entry,) = report.entries
    assert (entry.det_residual, entry.map_class) == (1.0, "hyperbolic")
    assert not report.passed


def test_a_determinant_past_the_float_range_fails_without_raising():
    # finite entries whose determinant, 1.365e308 (1 + i), has a modulus
    # past the float range: |det - 1| reads inf and the class is
    # unclassifiable (abs() raised OverflowError in both). The second
    # boundary map's square has such an entry, so its involution residual
    # reads inf, and the third has det 1 and such a trace
    wide = MoebiusMap(1.3e154, 0, 0, 1.05e154 + 1.05e154j)
    square_past = MoebiusMap(1.414e154 * cmath.exp(1j * math.pi / 8), 0, 0, 1)
    a, d = complex(1.5e308, 1.5e308), 1e-300
    trace_past = MoebiusMap(a, 1, a * d - 1, d)
    boundary = (wide, square_past, trace_past)
    for kind, maps in (("surface", (wide,)), ("boundary", boundary)):
        report = verify_group(FuchsianGroupSpec(kind, maps))
        assert report.entries[0].det_residual == math.inf
        assert report.entries[0].map_class == "unclassifiable"
        assert not any(e.passed for e in report.entries)
    assert report.entries[1].involution_residual == math.inf
    assert report.entries[2].det_residual == 0
    assert report.entries[2].map_class == "unclassifiable"


def test_a_non_finite_entry_is_unclassifiable():
    # a NaN normalized trace used to fall through every comparison of the
    # class rule to "hyperbolic"; only the determinant failed the entry
    maps = (
        MoebiusMap(math.nan, 0, 0, 1),
        MoebiusMap(math.inf, 0, 0, 1),
        MoebiusMap(1e300, 0, 0, 1e-320),  # a/s overflows to inf
    )
    report = verify_group(FuchsianGroupSpec("surface", maps))
    assert [e.map_class for e in report.entries] == ["unclassifiable"] * 3
    assert not any(e.passed for e in report.entries)


def reference_det_ok(gen: MoebiusMap, det_res: float) -> bool:
    """|det - 1| <= DET_TOL * max(1, S) with S = |a||d| + |b||c|, in exact
    rationals; an S past the largest float fails."""
    if not math.isfinite(det_res):
        return False

    def mod2(z: complex) -> Fraction:
        return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2

    x = mod2(gen.a) * mod2(gen.d)
    y = mod2(gen.b) * mod2(gen.c)

    def size_below(t: Fraction) -> bool:
        # sqrt(x) + sqrt(y) < t  <=>  2 sqrt(xy) < t^2 - x - y, squared
        rest = t * t - x - y
        return rest > 0 and 4 * x * y < rest * rest

    if not size_below(Fraction(sys.float_info.max)):
        return False
    ratio = Fraction(det_res) / Fraction(DET_TOL)
    return ratio <= 1 or not size_below(ratio)


def modulus(z: complex) -> float:
    """abs(z), or inf where abs() raises for finite parts past the
    float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def reference_verify_group(spec: FuchsianGroupSpec) -> VerifyReport:
    """verify_group with every check read off maps built by compose and
    the normalized-map classification; a modulus past the float range
    reads inf."""
    entries = []
    for idx, gen in enumerate(spec.generators, start=1):
        det_res = modulus(gen.det - 1.0)
        det_ok = reference_det_ok(gen, det_res)
        try:
            cls = reference_classify(gen)
            cls_name = cls.value
        except ValueError:
            cls = None
            cls_name = "unclassifiable"
        inv_res = None
        if spec.kind == "boundary":
            sq = compose(gen, gen)
            inv_res = max(
                modulus(sq.a + 1.0), modulus(sq.b), modulus(sq.c),
                modulus(sq.d + 1.0),
            )
            ok = (
                det_ok
                and modulus(gen.trace) <= TRACE_TOL
                and cls is MapClass.ELLIPTIC
                and inv_res <= INVOLUTION_TOL
            )
        else:
            ok = det_ok and cls is MapClass.HYPERBOLIC
        entries.append(
            VerifyEntry(
                label=f"{spec.kind}[{idx}]",
                det_residual=det_res,
                trace=gen.trace,
                map_class=cls_name,
                involution_residual=inv_res,
                passed=ok,
            )
        )
    return VerifyReport(tuple(entries), all(e.passed for e in entries))


def test_verify_group_matches_reference_field_for_field():
    specs = []
    for g in range(1, 42):
        for sign in (1, -1):
            base = boundary_generators(HyperellipticCurve(g, sign))
            specs.append(base)
            for k in sorted({1, g, 2 * g + 1}):
                specs.append(subgroup_generators(base, k))
    tiny = MoebiusMap(1e-100, 0, 0, 1e-100)  # its square's det underflows
    bent = FuchsianGroupSpec("boundary", (tiny,))
    ill = FuchsianGroupSpec("surface", ILL_CONDITIONED_MAPS)
    specs += [bent, ill]
    for spec in specs:
        assert outcome(verify_group, spec) == outcome(reference_verify_group, spec)
    assert outcome(verify_group, bent)[0] is DegenerateMapError
    assert {e.map_class for e in verify_group(ill).entries} == {"unclassifiable"}


# verify_group reads a half-turn's involution residual off its
# determinant. The property below checks that identity against the
# squared map of the reference on maps (a, b; c, d) with d = -a, and on
# near misses that must take the square: d = a, d = -a one ulp off and a
# free d. Entry parts run from 1e-160 to 1e160, so products overflow and
# underflow, and include signed zeros, infinities and NaN.
magnitudes = st.builds(
    lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
    st.floats(1.0, 10.0), st.integers(-160, 160), st.sampled_from((1.0, -1.0)),
)
specials = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan))
# one part in four is special, so most maps have a finite residual
parts = st.builds(
    lambda pick, finite, special: special if pick == 0 else finite,
    st.integers(0, 3), magnitudes, specials,
)
entries = st.builds(complex, parts, parts)


@st.composite
def trace_zero_specs(draw) -> FuchsianGroupSpec:
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        a, b, c = draw(entries), draw(entries), draw(entries)
        d = draw(st.sampled_from((
            -a, -a, -a, a, complex(math.nextafter(-a.real, math.inf), -a.imag),
            draw(entries),
        )))
        if a * d - b * c != 0:
            maps.append(MoebiusMap(a, b, c, d))
    return FuchsianGroupSpec("boundary", tuple(maps))


def report_outcome(fn, spec) -> tuple:
    """fn's report as the repr of every field (so -0.0, 0.0 and nan are
    told apart and compared), or the type and message of its error."""
    try:
        report = fn(spec)
    except Exception as err:  # noqa: BLE001 - the type is compared
        return ("raise", type(err), str(err))
    fields = tuple(tuple(map(repr, entry)) for entry in report.entries)
    return ("report", fields, report.passed)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(trace_zero_specs())
@example(FuchsianGroupSpec("boundary", (MoebiusMap(1e-100, 0, 0, -1e-100),)))
def test_involution_residual_is_the_determinant_residual(spec):
    want = report_outcome(reference_verify_group, spec)
    assert report_outcome(verify_group, spec) == want


def test_a_trace_zero_map_whose_square_underflows_is_degenerate():
    # det = -1e-200, whose square underflows to 0
    spec = FuchsianGroupSpec("boundary", (MoebiusMap(1e-100, 0, 0, -1e-100),))
    assert outcome(verify_group, spec)[0] is DegenerateMapError
    assert outcome(reference_verify_group, spec)[0] is DegenerateMapError


# verify_group classifies most maps through a floating-point filter (see
# moebius) and the rest through the exact rule. The property below checks
# it against the reference, which reads every class off the normalized
# map, on surface specs whose maps straddle each of the filter's cuts:
# x = (Re tr)^2 / Re det at 4 +- 1e-7 and at the parabolic band,
# (Im tr)^2 at its bound, |ad| + |bc| at the size guard, Im det at the
# snap bound, besides negative, complex, tiny and subnormal determinants
# and the entries above.


def near(value: float):
    """value, or value moved by up to 1e-9 of itself either way."""
    return st.sampled_from((0.0, 1e-9, -1e-9, 1e-12, -1e-12)).map(
        lambda r: value * (1 + r)
    )


def near_one_of(*values: float):
    return st.sampled_from(values).flatmap(near)


@st.composite
def filter_straddling_maps(draw) -> MoebiusMap | None:
    """A map (a, b; c, d) with a + d = tr, x near a class cut or anywhere,
    and one other guard near its cut with the rest inside theirs.

    With b = 1, c = fl(a*d) - det differs from a*d by det exactly while
    |a*d| < 2^53, so the map's determinant is det = (1, det_im) to
    rounding (and its imaginary part exact when a*d is real); a power of
    two moves a factor from b to c and scales the map without rounding.
    None when the entries round to det 0.
    """
    guard = math.sqrt(_FILTER_SIZE / 2)  # |ad| + |bc| is about 2|w|^2
    cut = draw(st.sampled_from(
        ("none", "imag", "size", "snap", "floor", "wild", "diagonal")
    ))
    if cut == "diagonal":
        # (a, 0; 0, d) over the whole exponent range: x overflows when
        # |a/d| passes 2^1024, and the normalized trace when it passes 2^2048
        e = draw(st.one_of(st.integers(-1074, 1023), st.sampled_from((996, 1023))))
        f = draw(st.one_of(st.integers(-1074, 1023), st.sampled_from((-1063, -1074))))
        a = draw(st.sampled_from((1.0, -1.0, 1j))) * 2.0**e
        d = draw(st.sampled_from((1.0, 3.0, 1 + 1e-7))) * 2.0**f
        return MoebiusMap(a, 0, 0, d) if a * d != 0 else None
    det = 1.0 + 0j
    y = draw(st.sampled_from((0.0, 1e-3 * _FILTER_IMAG)))  # (Im tr)^2 / det
    w = draw(st.sampled_from((0.0, 1.0, 1e3, 0.5 * guard)))
    phase = draw(st.sampled_from((0.0, 0.5, 1.0, draw(st.floats(-math.pi, math.pi)))))
    det_scale = 0  # the map is scaled by 2^det_scale, its det by 4^det_scale
    if cut == "imag":
        y = draw(st.one_of(
            near(_FILTER_IMAG), st.sampled_from((10 * _FILTER_IMAG, 1.0))
        ))
    elif cut == "size":
        w = draw(st.one_of(
            near(guard), st.sampled_from((0.9 * guard, 1.1 * guard, 1e9))
        ))
    elif cut == "snap":
        # a real trace and a real w: a*d is real and det_im exact
        y, phase = 0.0, draw(st.sampled_from((0.0, math.pi)))
        det = complex(1.0, draw(st.one_of(
            near(_DET_REAL_SNAP), st.sampled_from((1e-3, 1.0))
        )) * draw(st.sampled_from((1.0, -1.0))))
    elif cut == "floor":
        # det from 4^-511, the least normal float, down to the least
        # subnormal 4^-537; _FILTER_IMAG * det rounds to 0 below about
        # 4^-516 = 2.7e-311
        det_scale = draw(st.integers(-537, -511))
    elif cut == "wild":
        det = draw(st.sampled_from((-1.0 + 0j, 1e-3j, 1 - 1j, -1j)))
        det_scale = draw(st.sampled_from((0, 100, 480, 510)))
    x = draw(st.one_of(
        near_one_of(
            _FILTER_ELLIPTIC_BELOW, _FILTER_HYPERBOLIC_ABOVE,
            4 - 4 * CLASS_BOUNDARY_TOL, 4 + 4 * CLASS_BOUNDARY_TOL, 4.0,
        ),
        st.floats(0.0, 100.0),
        st.sampled_from((0.0, 1e-6, 1e300)),
    ))
    tr = complex(
        draw(st.sampled_from((1.0, -1.0))) * math.sqrt(x),
        draw(st.sampled_from((1.0, -1.0))) * math.sqrt(y),
    )
    w = w * cmath.exp(1j * phase) if phase else complex(w)
    a, d = tr / 2 + w, tr / 2 - w
    b, c = 1.0 + 0j, a * d - det
    shift = 2.0 ** draw(st.integers(-20, 20))
    lam = 2.0 ** det_scale
    a, b, c, d = a * lam, b * shift * lam, c / shift * lam, d * lam
    if a * d - b * c == 0:
        return None
    return MoebiusMap(a, b, c, d)


@st.composite
def straddling_surface_specs(draw) -> FuchsianGroupSpec:
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)):
            m = draw(filter_straddling_maps())
        else:
            a, b, c, d = (draw(entries) for _ in range(4))
            m = MoebiusMap(a, b, c, d) if a * d - b * c != 0 else None
        if m is not None:
            maps.append(m)
    return FuchsianGroupSpec("surface", tuple(maps))


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(straddling_surface_specs())
# x overflows and so does a/s: the normalized trace is infinite
@example(FuchsianGroupSpec("surface", (MoebiusMap(1e300, 0, 0, 1e-320),)))
# finite parts whose determinant, 1.5e308 (-1 + i), has a modulus past
# the float range: |det - 1| reads inf and the class is unclassifiable
@example(FuchsianGroupSpec("surface", (MoebiusMap(1.5e154j, 0, 0, 1e154 + 1e154j),)))
def test_the_class_filter_agrees_with_the_exact_rule(spec):
    want = report_outcome(reference_verify_group, spec)
    assert report_outcome(verify_group, spec) == want


def test_verify_group_of_the_groups_takes_no_square_root(monkeypatch):
    calls = []
    det_root = moebius._det_root

    def counting(det):
        calls.append(det)
        return det_root(det)

    monkeypatch.setattr(moebius, "_det_root", counting)
    for g in list(range(1, 42)) + [100]:
        for sign in (1, -1):
            base = boundary_generators(HyperellipticCurve(g, sign))
            for spec in [base] + [
                subgroup_generators(base, k) for k in sorted({1, g, 2 * g + 1})
            ]:
                assert verify_group(spec).passed
    # the filter decided every entry: the exact rule never ran
    assert calls == []
    classify(base.generators[0])
    assert len(calls) == 1


def count_map_constructions(monkeypatch) -> list[str]:
    """Record every MoebiusMap built through the constructor or _make."""
    built: list[str] = []
    make, init = MoebiusMap._make.__func__, MoebiusMap.__init__

    def counted_make(cls, *entries):
        built.append("_make")
        return make(cls, *entries)

    def counted_init(self, *entries):
        built.append("__init__")
        init(self, *entries)

    monkeypatch.setattr(MoebiusMap, "_make", classmethod(counted_make))
    monkeypatch.setattr(MoebiusMap, "__init__", counted_init)
    return built


def test_classify_and_verify_group_build_no_maps(monkeypatch):
    base = boundary_generators(HyperellipticCurve(5, 1))
    surface = subgroup_generators(base, 3)
    built = count_map_constructions(monkeypatch)
    compose(base.generators[0], base.generators[1])
    MoebiusMap(1, 0, 0, 1)
    assert built == ["_make", "__init__"]
    built.clear()
    for gen in base.generators + surface.generators:
        classify(gen)
    assert built == []
    assert verify_group(base).passed and verify_group(surface).passed
    assert built == []


def test_boundary_and_subgroup_build_one_map_per_generator(monkeypatch):
    curve = HyperellipticCurve(5, 1)
    built = count_map_constructions(monkeypatch)
    base = boundary_generators(curve)
    assert built == ["_make"] * 11
    built.clear()
    surface = subgroup_generators(base, 3)
    assert built == ["_make"] * 10
    assert len(surface.generators) == 10


# Plain statements of each boundary generator: side j of the root
# polygon from the exact angles of its mid-point and half-width, and the
# half-turn about its apex written in s_b, the apex's distance from 0:
# with delta = pi/n, cosh s_b = 1/sin(delta) and sinh s_b = cot(delta),
# the half-turn is (i cosh s_b, -i sinh s_b e^(i phi); i sinh s_b
# e^(-i phi), -i cosh s_b), and e^(i phi) = cos(delta) C for the side's
# center C. The group builder must give the same floats. The three-point
# construction `three_point_pairing(r_j, r_j+1, geodesic_apex(r_j,
# r_j+1))` solves the side from its endpoints, and
# `side_pairing_elliptic` writes the half-turn about the apex from its
# modulus, so both give the same maps projectively.


def reference_side(curve, j: int) -> GeodesicArc:
    rs = roots(curve)
    n = len(rs)
    t = math.tan(math.pi / n)
    mid = math.pi * ((2 * j + (2 if curve.sign == 1 else 3)) % (2 * n)) / n
    return GeodesicArc(
        (rs[j], rs[(j + 1) % n]),
        center=cmath.exp(1j * mid) * math.sqrt(1 + t * t), radius=t,
    )


def reference_half_turn(delta: float, center: complex) -> MoebiusMap:
    a = complex(0, 1 / math.sin(delta))  # i cosh(s_b)
    # -i sinh(s_b) e^(i phi) = -i cot(delta) cos(delta) C
    b = complex(0, -(math.cos(delta) ** 2 / math.sin(delta))) * center
    return MoebiusMap(a, b, b.conjugate(), -a)


def reference_boundary_group(curve) -> FuchsianGroupSpec:
    sides = tuple(reference_side(curve, j) for j in range(curve.degree))
    delta = math.pi / curve.degree
    return FuchsianGroupSpec(
        "boundary", tuple(reference_half_turn(delta, s.center) for s in sides),
        sides,
    )


def projective_gap(m1: MoebiusMap, m2: MoebiusMap) -> float:
    """Largest entry of m1/m1.a - m2/m2.a, relative to the largest entry."""
    x = [m1.a, m1.b, m1.c, m1.d]
    y = [m2.a, m2.b, m2.c, m2.d]
    scale = max(map(abs, x)) / abs(x[0])
    return max(abs(u / x[0] - v / y[0]) for u, v in zip(x, y)) / scale


def product_group(base, k, product) -> FuchsianGroupSpec:
    fixed = base.generators[k - 1]
    return FuchsianGroupSpec("surface", tuple(
        product(fixed, gen)
        for j, gen in enumerate(base.generators, start=1)
        if j != k
    ))


def group_outcome(fn, *args):
    """fn's result, or the class and message of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_generators_match_the_public_formulations_up_to_genus_60():
    errors = set()
    for g in range(1, 61):
        for sign in (1, -1):
            curve = HyperellipticCurve(g, sign)
            rs = roots(curve)
            n = len(rs)
            base = boundary_generators(curve)
            assert base == reference_boundary_group(curve)
            for j, gen in enumerate(base.generators):
                z1, z2 = rs[j], rs[(j + 1) % n]
                apex = geodesic_apex(z1, z2)
                solved = three_point_pairing(z1, z2, apex)
                assert projective_gap(gen, solved) <= 1e-13
                assert projective_gap(gen, side_pairing_elliptic(z1, z2, apex)) <= 1e-13
            for k in range(1, 2 * g + 2):
                got = group_outcome(subgroup_generators, base, k)
                public = group_outcome(product_group, base, k, compose)
                reference = group_outcome(
                    product_group, base, k, reference_compose
                )
                assert got == public == reference
                if isinstance(got, tuple):
                    errors.add(got[0])
                else:
                    report = verify_group(got)
                    assert report == verify_group(reference)
                    assert report.passed
    assert errors == set()
