"""Boundary-vertex construction of the uniformizing group.

Steps: place the 2g+1 curve roots on the unit circle; join cyclically
adjacent roots by geodesics (`disk_geometry.root_polygon`, in closed
form); pair each side with the half-turn about its apex, written from
the side's center (the boundary group); multiply a fixed side map
(default the first) by every other one (the surface group). The 4g-sided
ideal fundamental polygon is `disk_geometry.fundamental_polygon`.
`side_pairing_elliptic` gives the half-turn about any point of a
geodesic, from that point's modulus; the half-turns of both come from
`moebius._half_turns`, so this layer turns the polygon layer's sides
into maps and `disk_geometry` holds no Moebius algebra.

The boundary group keeps the root polygon's sides, so no reader builds a
side again. Each product is the plain matrix product of two determinant-1
half-turns, which is not normalized, and `verify_group` alone judges it.

`verify_group` classifies each generator through the floating-point
filter of `moebius` (x = (Re tr)^2 / Re det against 4 -+ 1e-7, behind
guards on the determinant, the entry sizes and Im tr), inline in its
own pass. Where the filter cannot decide, `moebius._entries_class`, the
exact rule `classify` uses, does; the filter decides only where that
rule must agree, so the verdicts are the same bits.
"""

from __future__ import annotations

# `FuchsianGroupSpec` stays a dataclass, unlike the NamedTuple records of
# this and the other layers: callers derive variants of it with
# `dataclasses.replace` (the benchmark's self-check bends one generator
# that way), and only the commands that build groups (`generators`,
# `verify`) pay for importing `dataclasses`. The verify records are
# NamedTuples; verify_group builds each entry with `tuple.__new__`.
import math
from dataclasses import dataclass
from typing import NamedTuple

from .curves import HyperellipticCurve
from .disk_geometry import (
    GeodesicArc,
    geodesic_between,
    point_on_geodesic,
    root_polygon,
)
from .moebius import (
    DegenerateMapError,
    MapClass,
    MoebiusMap,
    _DEGENERATE,
    _DET_REAL_SNAP,
    _FILTER_ELLIPTIC_BELOW,
    _FILTER_HYPERBOLIC_ABOVE,
    _FILTER_IMAG,
    _FILTER_SIZE,
    _INF,
    _entries_class,
    _half_turns,
    _left_products,
    compose,
)

DET_TOL = 1e-12  # relative: see verify_group
TRACE_TOL = 1e-8
INVOLUTION_TOL = 1e-8
ON_GEODESIC_TOL = 1e-6
_THREE_POINTS = "side pairing needs three distinct points"


@dataclass(frozen=True)
class FuchsianGroupSpec:
    kind: str  # "boundary" | "surface"
    generators: tuple[MoebiusMap, ...]
    # boundary kind: side j is the geodesic from root r_j to r_(j+1)
    sides: tuple[GeodesicArc, ...] = ()


class VerifyEntry(NamedTuple):
    label: str
    det_residual: float
    trace: complex
    map_class: str
    involution_residual: float | None
    passed: bool


class VerifyReport(NamedTuple):
    entries: tuple[VerifyEntry, ...]
    passed: bool


# builds an entry from all six fields in order, without the call through
# VerifyEntry's keyword __new__
_new_entry = tuple.__new__
_ELLIPTIC = MapClass.ELLIPTIC
_HYPERBOLIC = MapClass.HYPERBOLIC


def boundary_generators(curve: HyperellipticCurve) -> FuchsianGroupSpec:
    """One elliptic side map per cyclically adjacent root pair.

    Generator j is the half-turn about the apex of side j of
    `root_polygon(curve)`, the geodesic from r_j to r_(j+1), written in
    s_b (cosh s_b = 1/sin(delta), sinh s_b = cot(delta), delta =
    pi/(2g+1)): (i cosh s_b, b_j; conj(b_j), -i cosh s_b) with b_j =
    -i sinh s_b e^(i phi_j) = -i (cos^2(delta)/sin(delta)) C_j, where
    C_j = e^(i phi_j)/cos(delta) is the side's center, built by
    `moebius._half_turns` as the closed-form family is. No entry is
    formed with cancellation, d == -a bit for bit, and the spec keeps the
    sides.
    """
    sides = root_polygon(curve).sides
    delta = math.pi / len(sides)
    a = complex(0.0, 1.0 / math.sin(delta))
    scale = complex(0.0, -math.cos(delta) ** 2 / math.sin(delta))
    gens = _half_turns(a, scale, (side.center for side in sides))
    return FuchsianGroupSpec("boundary", tuple(gens), sides)


def side_pairing_elliptic(z1: complex, z2: complex, m: complex) -> MoebiusMap:
    """Order-2 elliptic map swapping the ideal points z1 and z2 and
    fixing m: the half-turn about m.

    m must lie on the geodesic joining z1 and z2. The half-turn about the
    point at distance s from 0 in the direction m/r, r = |m| =
    tanh(s/2), is (i cosh s, -i sinh s m/r; i sinh s conj(m)/r, -i cosh
    s), with cosh s = (1 + r^2)/D, sinh s = 2r/D and D = (1 - r)(1 + r),
    built by `moebius._half_turns`: det 1 and d == -a bit for bit, so it
    is an involution. An m on the unit circle (|m| == 1.0, so D == 0) is
    an ideal point, which no half-turn fixes: a ValueError.
    """
    z1, z2, m = complex(z1), complex(z2), complex(m)
    if z1 == z2:
        # before geodesic_between, whose own error names coincidence
        raise ValueError(_THREE_POINTS)
    g = geodesic_between(z1, z2)
    if m == z1 or m == z2:
        raise ValueError(_THREE_POINTS)
    if point_on_geodesic(m, g) > ON_GEODESIC_TOL:
        raise ValueError("fixed point is not on the geodesic through the endpoints")
    r = abs(m)
    den = (1.0 - r) * (1.0 + r)
    if den == 0.0:
        raise ValueError(f"fixed point {m} is ideal: no half-turn fixes it")
    return _half_turns(1j * (1.0 + r * r) / den, -2j / den, (m,))[0]


def subgroup_generators(base: FuchsianGroupSpec, k: int = 1) -> FuchsianGroupSpec:
    """Products of the fixed side map (1-based index k, on the left)
    with every other one, ascending.

    Product j is compose(T_k, T_j), with no normalization: the factors
    have determinant 1, so the product does too. Whether each product is
    hyperbolic is for `verify_group` to report. All 2g products come from
    one `_left_products` pass, which reads T_k's entries once.
    """
    if base.kind != "boundary":
        raise ValueError("subgroup construction needs the boundary group")
    gens = base.generators
    n = len(gens)
    if not 1 <= k <= n:
        raise ValueError(f"fixed index {k} outside 1..{n}")
    return FuchsianGroupSpec(
        "surface", tuple(_left_products(gens[k - 1], gens[:k - 1] + gens[k:]))
    )


def verify_group(spec: FuchsianGroupSpec) -> VerifyReport:
    """Per-generator contract check.

    boundary kind: det 1, trace 0 (1e-8), elliptic, involution
    residual (max entrywise |T*T + I|) below 1e-8. surface kind: det 1
    and hyperbolic. det 1 is |det - 1| <= DET_TOL * max(1, |a||d| +
    |b||c|), the size of the rounding of a*d - b*c, which the filter
    reads too; a size or residual past the float range fails. The entry
    reports the absolute |det - 1|. The class is `classify`'s, decided
    by the filter of `moebius` where it can and by `_entries_class`
    elsewhere. The report and its entries are NamedTuples; the report
    passes when every entry does.
    """
    kind = spec.kind
    boundary = kind == "boundary"
    entries = []
    passed = True
    for idx, gen in enumerate(spec.generators, start=1):
        a, b, c, d = gen.a, gen.b, gen.c, gen.d
        ad = a * d
        bc = b * c
        det = ad - bc
        trace = a + d
        # abs() of a complex with finite parts raises past 1.8e308; such a
        # modulus reads inf, and a bound scaled by it fails
        try:
            size = abs(ad) + abs(bc)
        except OverflowError:
            size = _INF
        try:
            det_res = abs(det - 1.0)
        except OverflowError:
            det_res = _INF
        det_ok = det_res <= DET_TOL or det_res <= DET_TOL * size < _INF
        # the filter (see moebius): it leaves cls None where it cannot decide
        cls = None
        det_re = det.real
        trace_im = trace.imag
        if (
            abs(det.imag) <= _DET_REAL_SNAP * det_re
            and size < _FILTER_SIZE * det_re
            and trace_im * trace_im < _FILTER_IMAG * det_re
        ):
            trace_re = trace.real
            x = trace_re * trace_re / det_re
            if x < _FILTER_ELLIPTIC_BELOW:
                cls = _ELLIPTIC
            elif _FILTER_HYPERBOLIC_ABOVE < x < _INF:
                cls = _HYPERBOLIC
        if cls is None:
            try:
                cls = _entries_class(a, b, c, d, det)
            except ValueError:
                cls = "unclassifiable"
        if boundary:
            if d == -a:
                # Every half-turn has d == -a. Then a*b + b*(-a) and
                # c*a + (-a)*c are exactly 0 and a*a + b*c equals
                # c*b + (-a)*(-a), so compose(gen, gen) is (-det, 0; 0,
                # -det): its residual max(|sq.a + 1|, ..., |sq.d + 1|) is
                # |det - 1| and its determinant det*det, bit for bit.
                if det * det == 0:
                    raise DegenerateMapError(_DEGENERATE)
                inv_res = det_res
            else:
                # compose raises DegenerateMapError for a square whose
                # determinant is zero (det ~1e-200 underflows when squared)
                sq = compose(gen, gen)
                try:
                    inv_res = max(
                        abs(sq.a + 1.0), abs(sq.b), abs(sq.c), abs(sq.d + 1.0)
                    )
                except OverflowError:  # a modulus past the float range
                    inv_res = _INF
            # an elliptic class bounds |trace| by 2 sqrt|det|, so abs()
            # cannot overflow once it holds
            ok = (
                det_ok
                and cls is _ELLIPTIC
                and abs(trace) <= TRACE_TOL
                and inv_res <= INVOLUTION_TOL
            )
        else:
            inv_res = None
            ok = det_ok and cls is _HYPERBOLIC
        passed = passed and ok
        entries.append(
            _new_entry(
                VerifyEntry,
                (f"{kind}[{idx}]", det_res, trace, cls, inv_res, ok),
            )
        )
    return VerifyReport(tuple(entries), passed)
