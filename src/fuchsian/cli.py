"""Command-line front end.

Subcommands:
  genus <m> <n>                        genus range of K_{m,n} embeddings
  generators --genus G --sign plus|minus [--fixed K]
  whittaker --genus G                  closed-form generators and identities
  tessellation --degree N --genus G    {p, q} for the covered degree families
  render --genus G --sign plus|minus --out FILE.svg
  verify [--perturb EPS]               full invariant suite

JSON goes to stdout or --json-out FILE, formatted deterministically
(10 significant digits, lowercase exponents, "-0" written as "0", fixed
key order), so repeated runs are byte-identical. Exit codes: 0 success,
1 verification failure, 2 bad arguments, 3 algorithm precondition
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import NumericalError

# Each payload imports the layers it uses inside its own body, so a
# command loads only those (`genus` and `tessellation` load just the
# tessellation layer). Layer names in annotations are never evaluated.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGUMENTS = 2
EXIT_ALGORITHM = 3
EXIT_IO = 4

_SAMPLE_SEED = 20260814

# Frozen regression values for the genus-2, sign -1 construction.
_EXAMPLE_T1 = (
    1.7013j,
    1.30902 + 0.425325j,
    1.30902 - 0.425325j,
    -1.7013j,
)
_EXAMPLE_ABS_TRACES = (4.6180, 8.8541, 8.8541, 4.6180)


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(x: float) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.10g}"


def to_json(value, indent: int = 0) -> str:
    """Serialize nested dict/list/scalar data with stable formatting."""
    pad = "  " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {to_json(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(i, (int, float, str, bool)) or i is None for i in items):
            return "[" + ", ".join(to_json(i) for i in items) + "]"
        inner = ",\n".join(f"{pad}  {to_json(i, indent + 1)}" for i in items)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"unserializable value of type {type(value).__name__}")


def _cpair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _matrix(m: MoebiusMap) -> list[list[float]]:
    return [_cpair(m.a), _cpair(m.b), _cpair(m.c), _cpair(m.d)]


def _verify_json(report) -> dict:
    return {
        "passed": report.passed,
        "entries": [
            {
                "label": e.label,
                "det_residual": e.det_residual,
                "trace": _cpair(e.trace),
                "class": e.map_class,
                "involution_residual": e.involution_residual,
                "passed": e.passed,
            }
            for e in report.entries
        ],
    }


# ---------------------------------------------------------------------------
# subcommand payloads


def run_genus(m: int, n: int) -> dict:
    from .tessellation import genus_range, tessellation_for_degree

    gr = genus_range(m, n)
    per_g = []
    for g in range(max(2, gr.g_min), gr.g_max + 1):
        spec = tessellation_for_degree(2 * g + 1, g)
        per_g.append(
            {
                "genus": g,
                "degree": 2 * g + 1,
                "tessellation": {
                    "p": spec.p,
                    "q": spec.q,
                    "hyperbolic": spec.hyperbolic,
                },
            }
        )
    return {
        "mode": "genus",
        "m": m,
        "n": n,
        "g_min": gr.g_min,
        "g_max": gr.g_max,
        "per_g": per_g,
    }


def run_generators(g: int, sign: int, k: int = 1) -> dict:
    from .curves import HyperellipticCurve, roots
    from .disk_geometry import geodesic_apex
    from .group_builder import boundary_generators, subgroup_generators, verify_group

    curve = HyperellipticCurve(g, sign)
    rs = roots(curve)
    n = len(rs)
    mids = [geodesic_apex(rs[j], rs[(j + 1) % n]) for j in range(n)]
    base = boundary_generators(curve)
    sub = subgroup_generators(base, k)
    rep_base = verify_group(base)
    rep_sub = verify_group(sub)
    boundary = [
        {
            "index": j + 1,
            "matrix": _matrix(gen),
            "trace": _cpair(gen.trace),
            "det": _cpair(gen.det),
            "class": entry.map_class,
        }
        for j, (gen, entry) in enumerate(zip(base.generators, rep_base.entries))
    ]
    others = [j for j in range(1, n + 1) if j != k]
    subgroup = [
        {
            "pair": [k, j],
            "matrix": _matrix(gen),
            "trace": _cpair(gen.trace),
            "abs_trace": abs(gen.trace),
            "class": entry.map_class,
        }
        for j, gen, entry in zip(others, sub.generators, rep_sub.entries)
    ]
    return {
        "mode": "generators",
        "genus": g,
        "sign": sign,
        "degree": n,
        "fixed_index": k,
        "roots": [_cpair(z) for z in rs],
        "midpoints": [_cpair(z) for z in mids],
        "boundary_group": boundary,
        "subgroup": subgroup,
        "verify": {
            "passed": rep_base.passed and rep_sub.passed,
            "boundary": _verify_json(rep_base),
            "subgroup": _verify_json(rep_sub),
        },
    }


def run_whittaker(g: int) -> dict:
    from .moebius import classify, compose, normalize, projective_distance
    from .whittaker import (
        connection_map,
        connection_map_from_gammas,
        hde_params,
        monodromy_zero,
        sine_product_residual,
        trig_identity_residuals,
        whittaker_generator,
        whittaker_generator_raw,
        whittaker_subgroup,
    )

    params = hde_params(g)
    generators = []
    for k in range(2 * g + 1):
        raw = whittaker_generator_raw(g, k)
        norm = whittaker_generator(g, k)
        generators.append(
            {
                "k": k,
                "raw": _matrix(raw),
                "raw_det": _cpair(raw.det),
                "normalized": _matrix(norm),
                "class": classify(norm).value,
            }
        )
    products = [
        {
            "pair": [j + 2, 1],
            "matrix": _matrix(prod),
            "abs_trace": abs(prod.trace),
            "class": classify(prod).value,
        }
        for j, prod in enumerate(whittaker_subgroup(g))
    ]
    closed = connection_map(g)
    built = connection_map_from_gammas(g)
    trig = trig_identity_residuals(g)
    mono = monodromy_zero(g)
    power = mono
    for _ in range(2 * g):
        power = compose(power, mono)
    return {
        "mode": "whittaker",
        "genus": g,
        "a": params.a,
        "hde_params": {
            "alpha": params.alpha,
            "beta": params.beta,
            "gamma": params.gamma,
        },
        "generators": generators,
        "subgroup_products": products,
        "connection": {
            "closed_form": _matrix(closed),
            "from_gammas": _matrix(built),
            "projective_residual": projective_distance(
                normalize(closed), normalize(built)
            ),
        },
        "trig_identity_residuals": [trig[0], trig[1]],
        "sine_product_residual": sine_product_residual(g),
        "monodromy_order_residual": abs(power.a / power.d - 1.0),
    }


def run_tessellation(degree: int, g: int) -> dict:
    from .tessellation import cycle_count, euler_characteristic, tessellation_for_degree

    spec = tessellation_for_degree(degree, g)
    cc = cycle_count(spec.p, spec.q)
    chi = euler_characteristic(spec.p, spec.q)
    return {
        "mode": "tessellation",
        "degree": degree,
        "genus": g,
        "p": spec.p,
        "q": spec.q,
        "hyperbolic": spec.hyperbolic,
        "euler_characteristic": int(chi),
        "cycle_count": str(cc.ratio),
        "q_divides_p": cc.divisible,
    }


# ---------------------------------------------------------------------------
# SVG rendering

_SVG_CENTER = 500.0
_SVG_SCALE = 440.0


def _sx(z: complex) -> float:
    return _SVG_CENTER + _SVG_SCALE * z.real


def _sy(z: complex) -> float:
    return _SVG_CENTER - _SVG_SCALE * z.imag


def _side_segment(side: GeodesicArc, start: complex, end: complex) -> str:
    x, y = _fmt_float(_sx(end)), _fmt_float(_sy(end))
    if side.kind == "diameter":
        return f"L {x} {y}"
    r = _fmt_float(side.radius * _SVG_SCALE)
    cross = ((start - side.center).conjugate() * (end - side.center)).imag
    sweep = 0 if cross > 0 else 1
    return f"A {r} {r} 0 0 {sweep} {x} {y}"


def _polygon_path(poly: HyperbolicPolygon) -> str:
    v0 = poly.vertices[0]
    parts = [f"M {_fmt_float(_sx(v0))} {_fmt_float(_sy(v0))}"]
    p = len(poly.vertices)
    for i, side in enumerate(poly.sides):
        parts.append(
            _side_segment(side, poly.vertices[i], poly.vertices[(i + 1) % p])
        )
    parts.append("Z")
    return " ".join(parts)


def render_svg(curve: HyperellipticCurve) -> str:
    """SVG 1.1 figure: unit circle, root polygon, shaded fundamental
    polygon, labeled roots (r1..rn) and side apexes (m1..mn).
    """
    from .curves import roots
    from .disk_geometry import geodesic_apex, polygon_from_vertices
    from .group_builder import fundamental_polygon

    rs = roots(curve)
    n = len(rs)
    mids = [geodesic_apex(rs[j], rs[(j + 1) % n]) for j in range(n)]
    fund = fundamental_polygon(curve)
    root_poly = polygon_from_vertices(rs)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 1000 1000">',
        f"<title>fundamental region, genus {curve.genus}, "
        f"sign {curve.sign:+d}</title>",
        '<rect x="0" y="0" width="1000" height="1000" fill="white"/>',
        f'<circle cx="{_fmt_float(_SVG_CENTER)}" cy="{_fmt_float(_SVG_CENTER)}" '
        f'r="{_fmt_float(_SVG_SCALE)}" fill="none" stroke="#999999" '
        'stroke-width="2" stroke-dasharray="8 8"/>',
        f'<path d="{_polygon_path(fund)}" fill="#a8c4e8" fill-opacity="0.45" '
        'stroke="#1f4e9c" stroke-width="2.5"/>',
        f'<path d="{_polygon_path(root_poly)}" fill="none" stroke="#c03020" '
        'stroke-width="2"/>',
    ]
    for idx, z in enumerate(rs, start=1):
        label_pos = 1.08 * z
        out.append(
            f'<circle cx="{_fmt_float(_sx(z))}" cy="{_fmt_float(_sy(z))}" '
            'r="6" fill="#c03020"/>'
        )
        out.append(
            f'<text x="{_fmt_float(_sx(label_pos))}" '
            f'y="{_fmt_float(_sy(label_pos))}" font-size="26" '
            'font-family="sans-serif" text-anchor="middle" '
            f'dominant-baseline="middle">r{idx}</text>'
        )
    for idx, z in enumerate(mids, start=1):
        out.append(
            f'<circle cx="{_fmt_float(_sx(z))}" cy="{_fmt_float(_sy(z))}" '
            'r="4" fill="#1f4e9c"/>'
        )
        out.append(
            f'<text x="{_fmt_float(_sx(z) + 10)}" y="{_fmt_float(_sy(z) - 10)}" '
            'font-size="22" font-family="sans-serif">'
            f"m{idx}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# verification suite


def _perturbed_example_group(perturb: float) -> FuchsianGroupSpec:
    from .curves import HyperellipticCurve
    from .group_builder import FuchsianGroupSpec, boundary_generators
    from .moebius import MoebiusMap

    base = boundary_generators(HyperellipticCurve(2, -1))
    if perturb == 0.0:
        return base
    t1 = base.generators[0]
    bent = MoebiusMap(t1.a + perturb, t1.b, t1.c, t1.d)
    return FuchsianGroupSpec("boundary", (bent,) + base.generators[1:], base.curve)


def run_verify(perturb: float = 0.0) -> tuple[int, str]:
    """Run every headline invariant; returns (exit code, text report)."""
    import random

    from .curves import HyperellipticCurve, fde_coefficient, roots
    from .disk_geometry import (
        cross_ratio,
        geodesic_apex,
        geodesic_between,
        point_on_geodesic,
        polygon_area,
    )
    from .group_builder import (
        boundary_generators,
        fundamental_polygon,
        subgroup_generators,
        verify_group,
    )
    from .moebius import (
        IDENTITY,
        MoebiusMap,
        apply,
        compose,
        normalize,
        projective_distance,
    )
    from .tessellation import cycle_count, euler_characteristic, tessellation_for_degree
    from .whittaker import (
        connection_map,
        connection_map_from_gammas,
        continuation_residual,
        gamma_fn,
        hde_params,
        hyp2f1,
        monodromy_zero,
        sine_product_residual,
        trig_identity_residuals,
    )

    rng = random.Random(_SAMPLE_SEED)
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append((name, passed, detail))

    # Frozen genus-2 regression (the perturbation hook bends generator 1).
    example = _perturbed_example_group(perturb)
    t1 = example.generators[0]
    entry_res = max(
        abs(t1.a - _EXAMPLE_T1[0]),
        abs(t1.b - _EXAMPLE_T1[1]),
        abs(t1.c - _EXAMPLE_T1[2]),
        abs(t1.d - _EXAMPLE_T1[3]),
    )
    add(
        "example_generator_entries",
        entry_res <= 1e-4,
        f"residual={entry_res:.3e} tol=1e-4",
    )
    prods = [
        normalize(compose(t1, example.generators[j])) for j in range(1, 5)
    ]
    trace_res = max(
        abs(abs(p.trace) - want)
        for p, want in zip(prods, _EXAMPLE_ABS_TRACES)
    )
    add(
        "example_trace_regression",
        trace_res <= 1e-3,
        f"|tr| vs (4.6180, 8.8541, 8.8541, 4.6180) residual={trace_res:.3e}",
    )

    # Boundary-group contract and hyperbolic products across the family.
    det_res = 0.0
    tr_res = 0.0
    inv_res = 0.0
    all_elliptic = True
    all_hyperbolic = True
    min_product_trace = float("inf")
    for g in range(1, 7):
        for sign in (1, -1):
            base = boundary_generators(HyperellipticCurve(g, sign))
            for entry in verify_group(base).entries:
                det_res = max(det_res, entry.det_residual)
                tr_res = max(tr_res, abs(entry.trace))
                inv_res = max(inv_res, entry.involution_residual)
                all_elliptic &= entry.map_class == "elliptic"
            for k in range(1, 2 * g + 2):
                for entry in verify_group(subgroup_generators(base, k)).entries:
                    all_hyperbolic &= entry.map_class == "hyperbolic"
                    min_product_trace = min(min_product_trace, abs(entry.trace))
    add(
        "boundary_contract",
        det_res <= 1e-9 and tr_res <= 1e-8 and all_elliptic,
        f"max|det-1|={det_res:.3e} max|tr|={tr_res:.3e} elliptic={all_elliptic}",
    )
    add(
        "products_hyperbolic",
        all_hyperbolic,
        f"g=1..6, both signs, all k; min|tr|={min_product_trace:.4f} (>2)",
    )
    add(
        "involution",
        inv_res <= 1e-8,
        f"max entrywise |T*T + I|={inv_res:.3e} tol=1e-8",
    )

    # Roots and geodesic geometry.
    root_res = 0.0
    ortho_res = 0.0
    apex_res = 0.0
    for g in range(1, 7):
        for sign in (1, -1):
            curve = HyperellipticCurve(g, sign)
            rs = roots(curve)
            n = len(rs)
            for j, z in enumerate(rs):
                root_res = max(root_res, abs(z**n + sign))
                z2 = rs[(j + 1) % n]
                side = geodesic_between(z, z2)
                ortho_res = max(
                    ortho_res,
                    abs(abs(side.center) ** 2 - side.radius**2 - 1.0),
                )
                apex_res = max(apex_res, point_on_geodesic(geodesic_apex(z, z2), side))
    add("roots_identity", root_res <= 1e-12, f"max|z^n + sign|={root_res:.3e}")
    add(
        "geodesic_orthogonality",
        ortho_res <= 1e-9,
        f"max||C|^2 - R^2 - 1|={ortho_res:.3e}",
    )
    add(
        "apex_on_geodesic",
        apex_res <= 1e-9,
        f"max||m - C| - R|={apex_res:.3e}",
    )

    # Cross-ratio invariance under sampled disk maps.
    def sample_point() -> complex:
        r = math.sqrt(rng.uniform(0.0, 0.92))
        t = rng.uniform(0.0, 2.0 * math.pi)
        return r * cmath.exp(1j * t)

    maps = []
    for _ in range(20):
        alpha = cmath.exp(1j * rng.uniform(0.0, 2 * math.pi)) / math.sqrt(
            1 - 0.8 * rng.random()
        )
        beta = sample_point() * abs(alpha) * 0.5
        maps.append(normalize(MoebiusMap(alpha, beta, beta.conjugate(), alpha.conjugate())))
    cr_res = 0.0
    for _ in range(100):
        quad = [sample_point() for _ in range(4)]
        if len({q for q in quad}) < 4:
            continue
        base_cr = cross_ratio(*quad)
        for mp in maps:
            moved = [apply(mp, q) for q in quad]
            cr_res = max(cr_res, abs(cross_ratio(*moved) - base_cr))
    add(
        "cross_ratio_invariance",
        cr_res <= 1e-9,
        f"100 quadruples x 20 maps, max residual={cr_res:.3e}",
    )

    # Connection-map identities.
    trig_res = 0.0
    for g in range(2, 9):
        trig_res = max(trig_res, *trig_identity_residuals(g), sine_product_residual(g))
    add("trig_identities", trig_res <= 1e-12, f"g=2..8 max residual={trig_res:.3e}")
    conn_res = 0.0
    for g in range(2, 6):
        conn_res = max(
            conn_res,
            projective_distance(
                normalize(connection_map(g)), normalize(connection_map_from_gammas(g))
            ),
        )
    add(
        "connection_projective",
        conn_res <= 1e-8,
        f"g=2..5 max projective residual={conn_res:.3e}",
    )
    mono_res = 0.0
    for g in range(2, 6):
        m = monodromy_zero(g)
        power = m
        for _ in range(2 * g):
            power = compose(power, m)
        mono_res = max(mono_res, projective_distance(power, IDENTITY))
    add(
        "monodromy_order",
        mono_res <= 1e-10,
        f"(loop map)^(2g+1) vs identity, residual={mono_res:.3e}",
    )

    # Hypergeometric properties for the genus-2 parameter triple.
    params = hde_params(2)
    al, be, ga = params.alpha, params.beta, params.gamma
    sym_res = swap_res = euler_res = contig_res = 0.0
    for _ in range(50):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3))
        if abs(z) >= 0.9:
            z *= 0.9 / abs(z) * 0.99
        sym_res = max(sym_res, abs(hyp2f1(al, be, ga, z) - hyp2f1(be, al, ga, z)))
        swap_res = max(
            swap_res, abs(hyp2f1(al, be, be, z) - (1 - z) ** (-al))
        )
        euler_res = max(
            euler_res,
            abs(
                hyp2f1(al, be, ga, z)
                - (1 - z) ** (ga - al - be) * hyp2f1(ga - al, ga - be, ga, z)
            ),
        )
        contig_res = max(
            contig_res,
            abs(
                (1 - z) * hyp2f1(al, be, ga - 1, z)
                - (1 + z * (al + be - 2 * ga + 1) / (ga - 1)) * hyp2f1(al, be, ga, z)
                - z * (al - ga) * (be - ga) / (ga * (ga - 1))
                * hyp2f1(al, be, ga + 1, z)
            ),
        )
    origin_res = abs(hyp2f1(al, be, ga, 0) - 1.0)
    add(
        "hypergeometric_properties",
        max(sym_res, swap_res, euler_res, contig_res, origin_res) <= 1e-9,
        f"symmetry={sym_res:.1e} reduction={swap_res:.1e} "
        f"euler={euler_res:.1e} contiguous={contig_res:.1e}",
    )
    # Gauss summation cross-checks: terminating series against the
    # closed product, and the z -> 0 limit of the continuation formula.
    gauss_res = 0.0
    for n_term, b, c in ((1, 0.4, 0.8), (3, 0.3, 1.1), (5, 0.25, 0.95)):
        product = 1.0
        for i in range(n_term):
            product *= (c - b + i) / (c + i)
        gauss_res = max(gauss_res, abs(hyp2f1(-n_term, b, c, 1) - product))
    c0 = ga - al - be
    coeff_a = gamma_fn(ga) * gamma_fn(c0) / (gamma_fn(ga - al) * gamma_fn(ga - be))
    coeff_b = gamma_fn(ga) * gamma_fn(-c0) / (gamma_fn(al) * gamma_fn(be))
    limit = coeff_a * hyp2f1(al, be, al + be - ga + 1, 1) + coeff_b * hyp2f1(
        ga - al, ga - be, c0 + 1, 1
    )
    gauss_res = max(gauss_res, abs(limit - 1.0))
    add("gauss_summation", gauss_res <= 1e-10, f"max residual={gauss_res:.3e}")
    cont_res = 0.0
    for _ in range(20):
        z = rng.uniform(0.1, 0.9)
        cont_res = max(cont_res, continuation_residual(al, be, ga, z))
    add(
        "analytic_continuation",
        cont_res <= 1e-10,
        f"20 points in (0.1, 0.9), max residual={cont_res:.3e}",
    )

    # Differential-equation coefficient against its expanded genus-2 form.
    curve = HyperellipticCurve(2, 1)
    fde_res = 0.0
    count = 0
    while count < 100:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) > 2 or abs(z**5 + 1) < 1e-3:
            continue
        count += 1
        expanded = (3.0 / 16.0) * (
            25 * z**8 / (1 + z**5) ** 2 - 24 * z**3 / (1 + z**5)
        )
        fde_res = max(fde_res, abs(fde_coefficient(curve, z) - expanded))
    add(
        "fde_coefficient_expanded",
        fde_res <= 1e-12,
        f"100 points |z|<=2, max residual={fde_res:.3e}",
    )

    # Exact tessellation table.
    table_ok = True
    for g in range(2, 11):
        for degree, want_p, want_q in (
            (2 * g + 1, 4 * g, 4 * g),
            (2 * g + 2, 4 * g + 2, 2 * g + 1),
            (6 * g - 2, 12 * g - 6, 3),
        ):
            spec = tessellation_for_degree(degree, g)
            table_ok &= (spec.p, spec.q) == (want_p, want_q)
            table_ok &= spec.hyperbolic
            table_ok &= euler_characteristic(spec.p, spec.q) == 2 - 2 * g
            table_ok &= cycle_count(spec.p, spec.q).divisible
    add("tessellation_table", table_ok, "g=2..10, three degree families, exact")

    # Ideal fundamental polygons have area (4g - 2)*pi exactly.
    area_ok = True
    for g in range(1, 7):
        poly = fundamental_polygon(HyperellipticCurve(g, -1))
        area_ok &= len(poly.vertices) == 4 * g
        area_ok &= all(poly.ideal)
        area_ok &= polygon_area(poly) == (4 * g - 2) * math.pi
    add("ideal_polygon_area", area_ok, "g=1..6, area == (4g-2)*pi, side count 4g")

    lines = []
    for name, passed, detail in checks:
        lines.append(f"{'PASS' if passed else 'FAIL'} {name:<28} {detail}")
    overall = all(passed for _, passed, _ in checks)
    lines.append(
        f"{'OK' if overall else 'FAILED'}: {sum(p for _, p, _ in checks)}"
        f"/{len(checks)} checks passed"
    )
    return (EXIT_OK if overall else EXIT_VERIFY_FAILED), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuchsian",
        description=(
            "Uniformizing group generators, disk geometry, and hyperbolic "
            "tessellations for the curves y^2 = z^(2g+1) +/- 1."
        ),
    )
    parser.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="write JSON output to FILE instead of stdout",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("genus", help="genus range of K_{m,n} plus per-genus tessellations")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("generators", help="boundary side maps and the surface subgroup")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--sign", choices=("plus", "minus"), required=True)
    p.add_argument("--fixed", type=int, default=1, metavar="K",
                   help="1-based index of the fixed side map (default 1)")

    p = sub.add_parser("whittaker", help="closed-form generators and connection identities")
    p.add_argument("--genus", type=int, required=True)

    p = sub.add_parser("tessellation", help="{p, q} for a covered degree family")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)

    p = sub.add_parser("render", help="SVG figure of the fundamental region")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--sign", choices=("plus", "minus"), required=True)
    p.add_argument("--out", required=True, metavar="FILE.svg")

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="test hook: bend one generator entry by EPS to force failure")
    return parser


def _emit_json(doc: dict, json_out: str | None) -> None:
    text = to_json(doc) + "\n"
    if json_out is None:
        sys.stdout.write(text)
    else:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.mode == "genus":
            _emit_json(run_genus(args.m, args.n), args.json_out)
        elif args.mode == "generators":
            sign = 1 if args.sign == "plus" else -1
            _emit_json(run_generators(args.genus, sign, args.fixed), args.json_out)
        elif args.mode == "whittaker":
            _emit_json(run_whittaker(args.genus), args.json_out)
        elif args.mode == "tessellation":
            _emit_json(run_tessellation(args.degree, args.genus), args.json_out)
        elif args.mode == "render":
            from .curves import HyperellipticCurve

            sign = 1 if args.sign == "plus" else -1
            svg = render_svg(HyperellipticCurve(args.genus, sign))
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        elif args.mode == "verify":
            code, report = run_verify(args.perturb)
            sys.stdout.write(report)
            return code
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGUMENTS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
