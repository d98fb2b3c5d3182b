"""Tests for the Moebius map algebra."""

import cmath
import copy
import math
import pickle
import random

import pytest

from fuchsian import NumericalError
from fuchsian.moebius import (
    _DET_REAL_SNAP,
    CLASS_BOUNDARY_TOL,
    IDENTITY,
    INFINITY,
    DegenerateMapError,
    MapClass,
    MoebiusMap,
    NonRealTraceError,
    TRACE_IMAG_TOL,
    apply,
    classify,
    compose,
    inverse,
    normalize,
    projective_distance,
)
from oracles import fixed_points


def random_map(rng: random.Random) -> MoebiusMap:
    while True:
        entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        if abs(entries[0] * entries[3] - entries[1] * entries[2]) > 1e-3:
            return MoebiusMap(*entries)


def test_constructor_coerces_and_rejects_degenerate():
    m = MoebiusMap(1, 0, 0, 2)
    assert all(type(x) is complex for x in (m.a, m.b, m.c, m.d))
    assert m.det == 2
    assert m.trace == 3
    # a degenerate map given by the caller is bad input ...
    with pytest.raises(ValueError) as given:
        MoebiusMap(1, 2, 2, 4)
    assert type(given.value) is ValueError
    # ... while the internal constructor, which skips coercion but not the
    # determinant check, only sees entries computed by the package
    with pytest.raises(DegenerateMapError):
        MoebiusMap._make(1 + 0j, 2 + 0j, 2 + 0j, 4 + 0j)
    with pytest.raises(DegenerateMapError):
        compose(MoebiusMap(1, 0, 0, 0.5**600), MoebiusMap(1, 0, 0, 0.5**600))


def test_maps_are_immutable_values():
    m = MoebiusMap(1, 2j, 3, 4)
    for name in ("a", "d", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0j)
    with pytest.raises(AttributeError):
        del m.a
    assert m.a == 1

    same = MoebiusMap(1 + 0j, 2j, 3.0, 4)
    assert m == same and hash(m) == hash(same)
    assert m != MoebiusMap(1, 2j, 3, 5)
    assert m.__eq__((m.a, m.b, m.c, m.d)) is NotImplemented
    assert len({m, same, IDENTITY}) == 2
    assert repr(m) == "MoebiusMap(a=(1+0j), b=2j, c=(3+0j), d=(4+0j))"


def test_maps_survive_pickle_and_copy():
    m = normalize(MoebiusMap(1, 2j, 3, 4))
    for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert type(clone) is MoebiusMap
        assert clone == m
        with pytest.raises(AttributeError):
            clone.a = 0j


# Dataclass-era formulas, building through the validating constructor.
# The products now build through MoebiusMap._make with the same entry
# expressions, so results must agree exactly.


def reference_compose(m1: MoebiusMap, m2: MoebiusMap) -> MoebiusMap:
    return MoebiusMap(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def reference_normalize(m: MoebiusMap) -> MoebiusMap:
    det = m.det
    try:
        snap = abs(det.imag) <= _DET_REAL_SNAP * abs(det)
    except OverflowError:
        # a modulus past the float range: so large an imaginary part is
        # not rounding noise
        snap = False
    if snap:
        det = complex(det.real, 0.0)
    s = cmath.sqrt(det)
    try:
        return MoebiusMap(m.a / s, m.b / s, m.c / s, m.d / s)
    except ValueError as exc:
        # computed entries with a zero determinant are a numerical
        # breakdown, not bad input
        raise DegenerateMapError(str(exc)) from None


def reference_inverse(m: MoebiusMap) -> MoebiusMap:
    return MoebiusMap(m.d, -m.b, -m.c, m.a)


def reference_classify(m: MoebiusMap) -> MapClass:
    """The classification read off the normalized map that normalize builds."""
    tr = reference_normalize(m).trace
    if not abs(tr.imag) <= TRACE_IMAG_TOL:
        raise NonRealTraceError(
            f"normalized trace {tr:.6g} is not real: no isometry class"
        )
    t = abs(tr.real)
    if not math.isfinite(t):
        raise NonRealTraceError(
            f"normalized trace {tr:.6g} is not finite: no isometry class"
        )
    if abs(t - 2.0) <= CLASS_BOUNDARY_TOL:
        return MapClass.PARABOLIC
    if t < 2.0:
        return MapClass.ELLIPTIC
    return MapClass.HYPERBOLIC


def outcome(fn, *args):
    """fn's result, or the class and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# Ill-conditioned maps (entries ~1e8, |det| of order 1): normalizing rounds
# their determinant to exactly 0, so building the normalized map raises.
ILL_CONDITIONED_MAPS = (
    MoebiusMap(
        -50914828.389608726, -30077051.477918237,
        81009398.92713359, 47854896.869767025,
    ),
    MoebiusMap(
        -22308235.680836022 + 60706010.634466186j, -29100648.843206108,
        99000929.55242687 + 62810527.176012166j,
        -11162235.29321518 + 51559986.05391926j,
    ),
)


def near_parabolic_map(rng: random.Random) -> MoebiusMap:
    """A map whose normalized trace lies within 1e-10 of +-2 or of the
    edge +-(2 + CLASS_BOUNDARY_TOL), scaled by a real, imaginary or
    complex factor."""
    edge = rng.choice((0.0, CLASS_BOUNDARY_TOL, -CLASS_BOUNDARY_TOL))
    tr = rng.choice((2.0, -2.0)) * (1 + edge) + rng.uniform(-1e-10, 1e-10)
    a = rng.uniform(-2, 2)
    b = rng.uniform(0.5, 2)
    c = (a * (tr - a) - 1) / b
    scale = rng.choice(
        (rng.uniform(0.1, 3), 1j * rng.uniform(0.1, 3),
         complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
    )
    return MoebiusMap(a * scale, b * scale, c * scale, (tr - a) * scale)


def test_products_match_reference_formulas_exactly():
    rng = random.Random(15)
    maps = []
    while len(maps) < 200:
        m = random_map(rng)
        if len(maps) % 2:
            # real entries give a real determinant: the snap branch
            m = MoebiusMap(m.a.real, m.b.real, m.c.real, m.d.real)
        maps.append(m)
    for m1, m2 in zip(maps, maps[1:] + maps[:1]):
        assert compose(m1, m2) == reference_compose(m1, m2)
        assert normalize(m1) == reference_normalize(m1)
        assert inverse(m1) == reference_inverse(m1)


def test_classify_matches_the_normalized_map_trace_exactly():
    rng = random.Random(16)
    maps = list(ILL_CONDITIONED_MAPS)
    while len(maps) < 200:
        kind = len(maps) % 3
        if kind == 0:
            maps.append(near_parabolic_map(rng))
            continue
        m = random_map(rng)
        if kind == 1:
            # real entries give a real determinant: the snap branch
            m = MoebiusMap(m.a.real, m.b.real, m.c.real, m.d.real)
        maps.append(m)
    seen = set()
    for m in maps:
        got, want = outcome(classify, m), outcome(reference_classify, m)
        assert got == want
        seen.add(want if isinstance(want, MapClass) else want[0])
    assert seen == set(MapClass) | {NonRealTraceError, DegenerateMapError}


def test_a_non_finite_normalized_trace_is_a_numerical_breakdown():
    # a NaN normalized trace fails every comparison of the class rule and
    # an infinite one exceeds 2: both used to read as hyperbolic
    overflowing = MoebiusMap(1e300, 0, 0, 1e-320)  # a/s overflows to inf
    for m in (
        MoebiusMap(math.nan, 0, 0, 1),
        MoebiusMap(math.inf, 0, 0, 1),
        MoebiusMap(1, 0, 0, complex(2, math.nan)),
        overflowing,
    ):
        with pytest.raises(NonRealTraceError):
            classify(m)
        assert outcome(classify, m) == outcome(reference_classify, m)
    with pytest.raises(NonRealTraceError, match="inf.* is not finite"):
        classify(overflowing)


def test_a_determinant_past_the_float_range_is_a_numerical_breakdown():
    # det = 1.365e308 (1 + i) has finite parts, but abs(det) raised
    # OverflowError in the snap test of the determinant's square root.
    # Such a determinant cannot snap to the real axis, the map normalizes,
    # and its normalized trace is not real
    m = MoebiusMap(1.3e154, 0, 0, 1.05e154 + 1.05e154j)
    assert math.isfinite(m.det.real) and math.isfinite(m.det.imag)
    with pytest.raises(OverflowError):
        abs(m.det)
    with pytest.raises(NonRealTraceError, match="is not real"):
        classify(m)
    assert abs(normalize(m).det - 1.0) < 1e-12


def test_ill_conditioned_maps_are_a_numerical_breakdown():
    # not degenerate (|det| of order 1 against entries ~1e8), but
    # normalizing rounds the determinant to 0
    assert issubclass(DegenerateMapError, NumericalError)
    assert issubclass(DegenerateMapError, ValueError)
    for m in ILL_CONDITIONED_MAPS:
        assert 0.1 < abs(m.det) < 10
        for fn in (normalize, classify):
            with pytest.raises(DegenerateMapError, match="determinant is zero"):
                fn(m)


def test_compose_is_matrix_product_and_matches_pointwise_composition():
    rng = random.Random(11)
    for _ in range(50):
        m1, m2 = random_map(rng), random_map(rng)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        composed = apply(compose(m1, m2), z)
        stepwise = apply(m1, apply(m2, z))
        if composed is INFINITY or stepwise is INFINITY:
            continue
        assert abs(composed - stepwise) < 1e-8


def test_apply_handles_infinity():
    m = MoebiusMap(2, 1, 1, 1)
    assert apply(m, INFINITY) == 2
    # cz + d = 0 at z = -1
    assert apply(m, -1) is INFINITY
    affine = MoebiusMap(3, 1, 0, 1)
    assert apply(affine, INFINITY) is INFINITY
    assert repr(INFINITY) == "INFINITY"


def test_normalize_gives_unit_determinant():
    rng = random.Random(12)
    for _ in range(50):
        n = normalize(random_map(rng))
        assert abs(n.det - 1.0) < 1e-12


def test_normalize_is_idempotent_and_projectively_neutral():
    m = MoebiusMap(2j, 1, 3, -1j)
    n = normalize(m)
    again = normalize(n)
    assert max(abs(n.a - again.a), abs(n.b - again.b),
               abs(n.c - again.c), abs(n.d - again.d)) < 1e-15
    assert projective_distance(m, n) <= 1e-9


def test_normalize_snaps_rounding_noise_off_a_real_determinant():
    # det = -1 - 1e-17j: the tiny negative imaginary part would select
    # the opposite principal-sqrt branch; the snap keeps s = +i.
    m = MoebiusMap(1, 1e-17j, 1, -1)
    n = normalize(m)
    assert n.a.imag < 0
    assert abs(n.det - 1.0) < 1e-12


def test_classification_of_standard_maps():
    rotation = MoebiusMap(cmath.exp(0.3j), 0, 0, cmath.exp(-0.3j))
    translation = MoebiusMap(1, 1, 0, 1)
    dilation = MoebiusMap(2, 0, 0, 0.5)
    assert classify(rotation) is MapClass.ELLIPTIC
    assert classify(translation) is MapClass.PARABOLIC
    assert classify(dilation) is MapClass.HYPERBOLIC


def test_classification_ignores_scalar_factors():
    dilation = MoebiusMap(2, 0, 0, 0.5)
    scaled = MoebiusMap(2 * 5j, 0, 0, 0.5 * 5j)
    assert classify(scaled) is classify(dilation)


def test_classification_rejects_non_real_trace():
    skew = MoebiusMap(1 + 1j, 0, 0, 1)
    with pytest.raises(NonRealTraceError):
        classify(skew)
    assert issubclass(NonRealTraceError, ValueError)


def test_inverse_is_projective_inverse():
    rng = random.Random(13)
    for _ in range(30):
        m = random_map(rng)
        assert projective_distance(compose(m, inverse(m)), IDENTITY) <= 1e-9
        assert projective_distance(compose(inverse(m), m), IDENTITY) <= 1e-9


def test_projective_equality_and_distance():
    m = MoebiusMap(1, 2, 3, 4 + 1j)
    scaled = MoebiusMap(-2j, -4j, -6j, (4 + 1j) * -2j)
    assert projective_distance(m, scaled) < 1e-12
    other = MoebiusMap(1, 2, 3, 5)
    assert projective_distance(m, other) > 1e-9
    # m * swap^-1 has a zero (0, 0) entry: no scalar to rescale by
    swap = MoebiusMap(0, 1, 1, 0)
    assert projective_distance(swap, IDENTITY) == float("inf")


def test_fixed_points_of_affine_and_rotation():
    translation = MoebiusMap(1, 1, 0, 1)
    assert fixed_points(translation) == [INFINITY]

    dilation = MoebiusMap(2, 0, 0, 1)
    pts = fixed_points(dilation)
    assert any(p is INFINITY for p in pts)
    assert any(p is not INFINITY and abs(p) < 1e-12 for p in pts)

    rotation = MoebiusMap(cmath.exp(0.5j), 0, 0, cmath.exp(-0.5j))
    pts = fixed_points(rotation)
    assert any(p is INFINITY for p in pts)
    assert any(p is not INFINITY and abs(p) < 1e-12 for p in pts)


def test_fixed_points_are_fixed():
    rng = random.Random(14)
    for _ in range(30):
        m = random_map(rng)
        try:
            pts = fixed_points(m)
        except ValueError:
            continue
        for p in pts:
            image = apply(m, p)
            if p is INFINITY:
                assert image is INFINITY
            else:
                assert abs(image - p) < 1e-6


def test_fixed_points_of_identity_raise():
    with pytest.raises(ValueError):
        fixed_points(IDENTITY)
    with pytest.raises(ValueError):
        fixed_points(MoebiusMap(3, 0, 0, 3))


def test_parabolic_double_fixed_point():
    translation = MoebiusMap(1, 0, -1, 1)  # z / (1 - z), parabolic at 0
    assert classify(translation) is MapClass.PARABOLIC
    pts = fixed_points(translation)
    assert len(pts) == 1
    assert abs(pts[0]) < 1e-9


def test_trace_sign_is_projectively_irrelevant_for_class():
    m = MoebiusMap(-2.5, 0, 0, -0.4)
    assert classify(m) is MapClass.HYPERBOLIC
