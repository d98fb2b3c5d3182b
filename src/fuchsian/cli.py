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
key order), so repeated runs are byte-identical. `to_json` writes it in
one pass without the `json` module, escaping strings exactly as
`json.dumps` does, so no command imports `json`. Exit codes: 0 success,
1 verification failure, 2 bad arguments, 3 numerical failure on valid
input (`fuchsian.NumericalError`), 4 I/O failure.

Each command loads and compiles only the code it runs. `genus` and
`tessellation` load the tessellation layer; `whittaker` moebius and
whittaker; `render` curves and disk_geometry; `generators` those,
moebius and group_builder, the one layer that imports `dataclasses`; and
`verify` every layer plus the check suite in `fuchsian.checks`. Only
`--help`, argument errors and non-canonical spellings (see
`_fast_parse`) load `argparse`; both readers take their grammar from
`_COMMANDS`. The layers' value records are NamedTuples, which `to_json`
would write as JSON lists, so the payloads copy the fields they report
into dicts.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import NumericalError

# Each payload imports the layers it uses inside its own body. Layer
# names in annotations are never evaluated.

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGUMENTS = 2
EXIT_ALGORITHM = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# deterministic JSON


def _fmt_float(x: float) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.10g}"


# json.dumps(s) with its default ensure_ascii=True: these seven characters
# get a short escape, and every other one outside printable ASCII a \uXXXX
# escape (a surrogate pair above U+FFFF)
_SHORT_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
    "\b": "\\b", "\f": "\\f",
}


def _json_string(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    out = ['"']
    for ch in s:
        if ch in _SHORT_ESCAPES:
            out.append(_SHORT_ESCAPES[ch])
        elif " " <= ch <= "~":
            out.append(ch)
        else:
            n = ord(ch)
            if n > 0xFFFF:
                n -= 0x10000
                out.append(f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}")
            else:
                out.append(f"\\u{n:04x}")
    out.append('"')
    return "".join(out)


def _scalar(value) -> str | None:
    """The JSON token of a scalar, or None for a container or other type."""
    if isinstance(value, float):
        return _fmt_float(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _json_string(value)
    return None


def to_json(value) -> str:
    """Serialize nested dict/list/scalar data with stable formatting.

    Dicts and lists holding a container go one item per line, indented
    two spaces per level; a list of scalars stays on one line.
    """
    out: list[str] = []
    _write(value, "", out)
    return "".join(out)


def _write(value, pad: str, out: list[str]) -> None:
    token = _scalar(value)
    if token is not None:
        out.append(token)
        return
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in value.items():
            out.append(sep)
            out.append(_json_string(str(k)))
            out.append(": ")
            _write(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
        return
    if isinstance(value, (list, tuple)):
        tokens = []
        for item in value:
            token = _scalar(item)
            if token is None:
                break
            tokens.append(token)
        else:
            out.append("[" + ", ".join(tokens) + "]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
        return
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
    from .curves import HyperellipticCurve
    from .disk_geometry import root_polygon
    from .group_builder import boundary_generators, subgroup_generators, verify_group

    curve = HyperellipticCurve(g, sign)
    base = boundary_generators(curve)
    # the polygon boundary_generators just built, kept: its vertices are
    # the roots
    rs = root_polygon(curve).vertices
    n = len(rs)
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
        "midpoints": [_cpair(side.apex) for side in base.sides],
        "boundary_group": boundary,
        "subgroup": subgroup,
        "verify": {
            "passed": rep_base.passed and rep_sub.passed,
            "boundary": _verify_json(rep_base),
            "subgroup": _verify_json(rep_sub),
        },
    }


def run_whittaker(g: int) -> dict:
    from .moebius import classify
    from .whittaker import (
        closed_form_generators,
        connection_map,
        connection_map_from_gammas,
        connection_residual,
        hde_params,
        monodromy_order_residual,
        sine_product_residual,
        trig_identity_residuals,
        whittaker_generator_raw,
        whittaker_subgroup,
    )

    params = hde_params(g)
    generators = []
    normalized = closed_form_generators(g)
    for k, norm in enumerate(normalized):
        raw = whittaker_generator_raw(g, k)
        generators.append(
            {
                "k": k,
                "raw": _matrix(raw),
                "raw_det": _cpair(raw.det),
                "normalized": _matrix(norm),
                "class": classify(norm),
            }
        )
    products = [
        {
            "pair": [j + 2, 1],
            "matrix": _matrix(prod),
            "abs_trace": abs(prod.trace),
            "class": classify(prod),
        }
        for j, prod in enumerate(whittaker_subgroup(normalized))
    ]
    trig = trig_identity_residuals(g)
    closed_form = connection_map(g)
    from_gammas = connection_map_from_gammas(g)
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
            "closed_form": _matrix(closed_form),
            "from_gammas": _matrix(from_gammas),
            "projective_residual": connection_residual(closed_form, from_gammas),
        },
        "trig_identity_residuals": [trig[0], trig[1]],
        "sine_product_residual": sine_product_residual(g),
        "monodromy_order_residual": monodromy_order_residual(g),
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
    from .disk_geometry import fundamental_polygon, root_polygon

    root_poly = root_polygon(curve)
    rs = root_poly.vertices
    mids = [side.apex for side in root_poly.sides]
    fund = fundamental_polygon(curve)
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


def run_verify(perturb: float = 0.0) -> tuple[int, str]:
    """Run every headline invariant; returns (exit code, text report)."""
    from .checks import run_checks

    passed, report = run_checks(perturb)
    return (EXIT_OK if passed else EXIT_VERIFY_FAILED), report


# ---------------------------------------------------------------------------
# argument handling


# Each mode's help and the keywords argparse declares each of its
# positionals or long options with: the grammar of both argv readers.
_INT = {"type": int, "required": True}
_SIGN = {"choices": ("plus", "minus"), "required": True}
_COMMANDS = {
    "genus": ("genus range of K_{m,n} plus per-genus tessellations",
              {"m": {"type": int}, "n": {"type": int}}),
    "generators": ("boundary side maps and the surface subgroup", {
        "--genus": _INT, "--sign": _SIGN,
        "--fixed": {
            "type": int, "default": 1, "metavar": "K",
            "help": "1-based index of the fixed side map (default %(default)s)"}}),
    "whittaker": ("closed-form generators and connection identities", {"--genus": _INT}),
    "tessellation": ("{p, q} for a covered degree family",
                     {"--degree": _INT, "--genus": _INT}),
    "render": ("SVG figure of the fundamental region", {
        "--genus": _INT, "--sign": _SIGN,
        "--out": {"required": True, "metavar": "FILE.svg"}}),
    "verify": ("run the full invariant suite", {"--perturb": {
        "type": float, "default": 0.0,
        "help": "test hook: bend one generator entry by EPS to force failure"}}),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse

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
    for mode, (help_text, grammar) in _COMMANDS.items():
        p = sub.add_parser(mode, help=help_text)
        for name, keywords in grammar.items():
            p.add_argument(name, **keywords)
    return parser


def _emit_json(doc: dict, json_out: str | None) -> None:
    text = to_json(doc) + "\n"
    if json_out is None:
        sys.stdout.write(text)
    else:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """The Namespace argparse would give a canonical argv, else None: an
    optional `--json-out FILE`, the mode, then its positionals or exact
    long option names each followed by its value, all required ones given.
    Any other argv, such as a value starting with "-", is argparse's.
    """
    head = 2 if argv[:1] == ["--json-out"] else 0
    mode, *rest = argv[head:] or [None]
    _, grammar = _COMMANDS.get(mode, (None, None))
    if grammar is None or head and argv[1].startswith("-"):
        return None
    positionals = [name for name in grammar if name[0] != "-"]
    names, values = (positionals, rest) if positionals else (rest[::2], rest[1::2])
    if len(names) != len(values):
        return None
    # an argument without a default is required: None until given
    args = {name.lstrip("-"): kw.get("default") for name, kw in grammar.items()}
    for name, value in zip(names, values):
        kw = grammar.get(name)
        if kw is None or value.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        args[name.lstrip("-")] = value
    if None in args.values():  # a required option is missing
        return None
    return SimpleNamespace(json_out=argv[1] if head else None, mode=mode, **args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_parse(argv) or _build_parser().parse_args(argv)
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
