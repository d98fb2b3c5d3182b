"""Moebius transformation algebra on the extended complex plane.

A map is a 2x2 complex matrix (a, b; c, d) with nonzero determinant,
acting projectively on points: z -> (az + b)/(cz + d). Proportional
matrices act identically, so "equality" of maps is projective equality.

The point at infinity is a first-class value (INFINITY): cz + d = 0
sends z to it, and it maps to a/c. Classification is by the trace of the
determinant-1 normalization: |tr| < 2 elliptic, = 2 parabolic, > 2
hyperbolic. Non-real normalized traces are rejected, since such maps are
not isometries of the disk, and so are NaN or infinite ones. That trace
is computed from the quotients normalize would form, without building
the normalized map; _entries_class is the one home of that rule.
group_builder.verify_group puts a floating-point filter in front of it:
from (Re tr)^2 / Re det, with no square root or division by it, the
filter decides a map's class only where an error bound (at the
_FILTER_* constants below) proves that _entries_class gives the same
class, and hands every other map to _entries_class.

The public constructor MoebiusMap(a, b, c, d) validates: it coerces each
entry to complex and rejects a zero determinant as bad input
(ValueError). The internal products (compose, normalize, inverse)
already hold complex entries and build through the private
MoebiusMap._make, which skips the coercion but keeps the
zero-determinant check; there a zero determinant comes from the
arithmetic (underflow, or cancellation in an ill-conditioned map), so it
raises DegenerateMapError, a numerical breakdown. _left_products
multiplies one map by many, and compose is it on one map. _half_turns
is the one place a half-turn's entries are written: both generator
families of the package (group_builder.boundary_generators at s_b and
whittaker.closed_form_generators at s_c) and the side pairing
group_builder.side_pairing_elliptic build through it.

cross_ratio, the invariant these maps preserve, lives here too, so no
other layer reads INFINITY.
"""

from __future__ import annotations

import cmath
from enum import Enum

from . import NumericalError

# Tolerances for double-precision inputs assembled from closed forms.
TRACE_IMAG_TOL = 1e-6
CLASS_BOUNDARY_TOL = 1e-9
# |Im det| below this fraction of |det| is rounding noise; snapping the
# determinant to the real axis keeps the principal sqrt branch stable.
_DET_REAL_SNAP = 1e-13

# The floating-point filter that group_builder.verify_group runs before
# _entries_class (Shewchuk's filter-and-fallback). For a map (a, b; c, d)
# with ad = a*d, bc = b*c, det = ad - bc, tr = a + d and D = Re det, it
# decides only when |Im det| <= _DET_REAL_SNAP * D, |ad| + |bc| <
# _FILTER_SIZE * D (so D > 0) and (Im tr)^2 < _FILTER_IMAG * D. Then
# x = (Re tr)^2 / D below _FILTER_ELLIPTIC_BELOW is elliptic and x in
# (_FILTER_HYPERBOLIC_ABOVE, inf) hyperbolic; every other map, and a NaN
# anywhere, goes to _entries_class. Where the filter decides,
# _entries_class must give the same class. With u = 2^-53, K = _FILTER_SIZE
# and tau = |Re tr| / sqrt(D) in exact arithmetic:
# - D is the float _entries_class reads too: the snap condition holds, so
#   its s = fl(sqrt(D)) is real and each quotient is one rounding.
# - x = tau^2 (1 + e), |e| <= 4.1u (the sum, the square, the quotient).
# - _entries_class's t = |Re(a/s) + Re(d/s)| is within 3.1u tau +
#   u(|Re a| + |Re d|)/s of tau, and |Re a| + |Re d| <= |Re tr| +
#   2 min(|a|, |d|) with min(|a|, |d|)^2 <= |a||d| <= K D (1 + 6u), so
#   |t - tau| <= 3.1u tau + 2.1u sqrt(K), 2.4e-9 near tau = 2.
# - x > 4 + 1e-7 gives tau >= 2 + 2.5e-8 - 1e-15, so t > 2 + 2.2e-8, past
#   the parabolic band |t - 2| <= CLASS_BOUNDARY_TOL; x < 4 - 1e-7 gives
#   t < 2 - 2.2e-8 the same way. The cut is 25 band widths out in x.
# - The imaginary part of the normalized trace is at most
#   sqrt(_FILTER_IMAG) (1 + 4u) + 2.1u sqrt(K) < 3.2e-7 < TRACE_IMAG_TOL.
# - The normalized determinant differs from det / D (modulus 1 to 1e-13)
#   by at most 8uK < 0.09: each quotient and product is rounded relative
#   to |a||d| + |b||c| <= K D (1 + 6u), and so is fl(det) against the
#   exact ad - bc. It is not zero, so no DegenerateMapError.
# - A finite x keeps |a/s| and |d/s| below 1.4e154, so the normalized
#   trace is finite.
# - A rounding that underflows errs by up to 2^-1075 absolute: at most
#   u D for a normal D. A subnormal D below 2.5e-311 rounds
#   _FILTER_IMAG * D to 0, so the strict imaginary guard fails, and above
#   it 2^-1075 < 1e-13 D, which leaves every bound above with room (the
#   imaginary part stays below 5.5e-7).
# K = 1e14 leaves a factor 10 on both of its bounds (2.4e-9 against the
# 2.4e-8 margin, 0.09 against 1).
_FILTER_SIZE = 1e14
_FILTER_IMAG = TRACE_IMAG_TOL**2 / 10
_FILTER_ELLIPTIC_BELOW = 4.0 - 100 * CLASS_BOUNDARY_TOL
_FILTER_HYPERBOLIC_ABOVE = 4.0 + 100 * CLASS_BOUNDARY_TOL


class _Infinity:
    """Singleton marker for the point at infinity."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

Point = complex | _Infinity


class MapClass(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class NonRealTraceError(NumericalError, ValueError):
    """The normalized trace is not real: a numerical breakdown, not bad input."""


class DegenerateMapError(NumericalError, ValueError):
    """Computed entries have determinant zero: a numerical breakdown.

    Only maps built from arithmetic raise it (MoebiusMap._make and the
    checks that stand in for it); a zero determinant passed to the public
    constructor stays a plain ValueError.
    """


_DEGENERATE = "degenerate map: determinant is zero"
_INF = float("inf")


class MoebiusMap:
    """Immutable 2x2 complex matrix (a, b; c, d) with nonzero determinant.

    Equality and hashing compare the entries (not projective equality).
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex) -> None:
        self.__post_init__(a, b, c, d)

    def __post_init__(self, a: complex, b: complex, c: complex, d: complex) -> None:
        # A method of its own: perfbench/tracing.py wraps it to time
        # public constructions as `moebius.construct`.
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        if a * d - b * c == 0:
            raise ValueError(_DEGENERATE)
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    @classmethod
    def _make(cls, a: complex, b: complex, c: complex, d: complex) -> MoebiusMap:
        """Construct from computed entries that are already complex."""
        if a * d - b * c == 0:
            raise DegenerateMapError(_DEGENERATE)
        self = _new_object(cls)
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (MoebiusMap, (self.a, self.b, self.c, self.d))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (
            other.a, other.b, other.c, other.d
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(a={self.a!r}, b={self.b!r}, "
            f"c={self.c!r}, d={self.d!r})"
        )

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> complex:
        return self.a + self.d


# The slot descriptors' own setters write past the raising __setattr__
# and cost less than object.__setattr__ by name.
_new_object = object.__new__
_set_a, _set_b, _set_c, _set_d = (
    MoebiusMap.__dict__[name].__set__ for name in MoebiusMap.__slots__
)

IDENTITY = MoebiusMap(1, 0, 0, 1)


def compose(m1: MoebiusMap, m2: MoebiusMap) -> MoebiusMap:
    """Matrix product m1*m2, realizing the composition m1 after m2."""
    return _left_products(m1, (m2,))[0]


def _left_products(m1: MoebiusMap, maps) -> list[MoebiusMap]:
    """[compose(m1, m) for m in maps], reading m1's entries once: the
    one place the matrix product is written."""
    a1, b1, c1, d1 = m1.a, m1.b, m1.c, m1.d
    make = MoebiusMap._make
    return [
        make(
            a1 * m.a + b1 * m.c,
            a1 * m.b + b1 * m.d,
            c1 * m.a + d1 * m.c,
            c1 * m.b + d1 * m.d,
        )
        for m in maps
    ]


def _half_turns(a: complex, scale: complex, directions) -> list[MoebiusMap]:
    """The half-turns (a, b; conj(b), -a) with b = scale * u, one per u in
    directions, each built with one MoebiusMap._make in one pass.

    With a = +-i cosh s and b = -+i sinh(s) u/|u|, each is the
    determinant-1 half-turn about tanh(s/2) u/|u|, the point at distance
    s from 0. d == -a bit for bit, so the trace is exactly 0.
    """
    make = MoebiusMap._make
    d = -a
    gens = []
    for u in directions:
        b = scale * u
        gens.append(make(a, b, b.conjugate(), d))
    return gens


def apply(m: MoebiusMap, z: Point) -> Point:
    """Evaluate (az + b)/(cz + d) on a finite point or INFINITY."""
    if z is not INFINITY:
        denom = m.c * z + m.d
        if denom == 0:
            return INFINITY
        return (m.a * z + m.b) / denom
    if m.c == 0:
        return INFINITY
    return m.a / m.c


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


def normalize(m: MoebiusMap) -> MoebiusMap:
    """Divide entries by a principal square root of det, giving det 1.

    The principal branch (argument in (-pi, pi]) makes the output
    deterministic; the projective action is unchanged.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    s = _det_root(a * d - b * c)
    return MoebiusMap._make(a / s, b / s, c / s, d / s)


def _det_root(det: complex) -> complex:
    """The principal square root of det that normalize divides by."""
    try:
        snap = abs(det.imag) <= _DET_REAL_SNAP * abs(det)
    except OverflowError:
        # finite parts with a modulus past 1.8e308: to snap, the real part
        # would have to pass it too
        snap = False
    if snap:
        det = complex(det.real, 0.0)
    return cmath.sqrt(det)


def classify(m: MoebiusMap) -> MapClass:
    """Trace classification of the normalized map.

    Raises NonRealTraceError (a ValueError) when the normalized trace is
    not real to within TRACE_IMAG_TOL (the map is then not a disk isometry
    up to scale).
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    return _entries_class(a, b, c, d, a * d - b * c)


def _entries_class(
    a: complex, b: complex, c: complex, d: complex, det: complex
) -> MapClass:
    """classify() of the map (a, b; c, d) with det = a*d - b*c.

    The trace of normalize()'s map is formed from the same quotients,
    a/s + d/s, without building that map.
    """
    s = _det_root(det)
    a, d = a / s, d / s
    # normalize() builds through MoebiusMap._make, whose check rejects an
    # ill-conditioned map whose normalized determinant rounds to zero.
    if a * d - (b / s) * (c / s) == 0:
        raise DegenerateMapError(_DEGENERATE)
    tr = a + d
    # a NaN imaginary part fails the test too
    if not abs(tr.imag) <= TRACE_IMAG_TOL:
        raise NonRealTraceError(
            f"normalized trace {tr:.6g} is not real: no isometry class"
        )
    t = abs(tr.real)
    if abs(t - 2.0) <= CLASS_BOUNDARY_TOL:
        return MapClass.PARABOLIC
    if t < 2.0:
        return MapClass.ELLIPTIC
    if t < _INF:
        return MapClass.HYPERBOLIC
    raise NonRealTraceError(
        f"normalized trace {tr:.6g} is not finite: no isometry class"
    )


def inverse(m: MoebiusMap) -> MoebiusMap:
    """Adjugate matrix: projectively the inverse map (same action)."""
    return MoebiusMap._make(m.d, -m.b, -m.c, m.a)


def projective_distance(m1: MoebiusMap, m2: MoebiusMap) -> float:
    """Max entrywise deviation of m1*m2^-1 from the identity, rescaled."""
    q = compose(m1, inverse(m2))
    lam = q.a
    if lam == 0:
        return float("inf")
    return max(
        abs(q.b / lam), abs(q.c / lam), abs(q.d / lam - 1.0)
    )

