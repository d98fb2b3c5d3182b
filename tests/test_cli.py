"""Tests for the command-line interface: JSON determinism, payload
shape, the SVG renderer, the verify suite, and exit codes."""

import contextlib
import enum
import io
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings, strategies as st

import json_reference
from fuchsian import NumericalError, checks, cli, curves, disk_geometry, whittaker
from fuchsian.curves import HyperellipticCurve
from fuchsian.group_builder import FuchsianGroupSpec, verify_group
from fuchsian.moebius import (
    DegenerateMapError,
    MoebiusMap,
    NonRealTraceError,
    normalize,
)
from test_golden import GOLDEN_STDERR, GOLDEN_STDOUT


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fuchsian.cli", *args],
        capture_output=True,
        text=True,
    )


# --- formatting ----------------------------------------------------------


def test_float_formatting_rules():
    assert cli._fmt_float(0.0) == "0"
    assert cli._fmt_float(-0.0) == "0"
    assert cli._fmt_float(1.0) == "1"
    assert cli._fmt_float(0.30901699437494745) == "0.3090169944"
    assert cli._fmt_float(1.5e-16) == "1.5e-16"
    assert cli._fmt_float(-2.5) == "-2.5"


def test_json_serializer_is_valid_json_with_stable_layout():
    doc = {"b_first": 1, "a_second": [1.25, -0.0, "x"], "nested": {"k": True}}
    text = cli.to_json(doc)
    parsed = json.loads(text)
    assert parsed["b_first"] == 1
    assert parsed["a_second"] == [1.25, 0, "x"]
    # insertion order is preserved, not sorted
    assert text.index("b_first") < text.index("a_second")
    assert cli.to_json({"no": False, "empty": {}, "none": []}) == (
        '{\n  "no": false,\n  "empty": {},\n  "none": []\n}'
    )
    with pytest.raises(TypeError, match="unserializable value of type set"):
        cli.to_json({"bad": {1}})


# every character class json.dumps escapes differently, and plain text
JSON_STRINGS = [
    "", "plain text", '"', "\\", 'a"b\\c', "\x00\x01\x1f", "\b\f\n\r\t",
    "\x7f", " ~", "caf\u00e9", "\u2028", "\U0001f600", "\ud800",
    'mixed "\u00e9" \\ \U0001f600\x7f\n',
]
JSON_EDGE_VALUES = [
    {}, [], (), [[]], [{}], [[1, [2.5, None]], []], {"a": {"b": []}, "c": [{}]},
    None, True, False, 0, 1, -1, 2**64, -(10**30), 0.0, -0.0, 1e-300, -1e300,
    5e-324, [True, 1, 1.0, "1", None], [False, 0, -0.0], (1, "x"),
    enum.IntEnum("Level", "LOW HIGH").HIGH,
    {1: "int key", None: "none key", 2.5: "float key"},
    JSON_STRINGS, [JSON_STRINGS, {"k": JSON_STRINGS}],
    *JSON_STRINGS, *({s: s} for s in JSON_STRINGS),
]


def test_json_writer_matches_the_json_dumps_reference():
    for value in JSON_EDGE_VALUES:
        assert cli.to_json(value) == json_reference.to_json(value), value
    for s in JSON_STRINGS:
        assert cli.to_json(s) == json.dumps(s), s
    for bad in ({1}, 1j, object(), [{"k": b"bytes"}]):
        for writer in (cli.to_json, json_reference.to_json):
            with pytest.raises(TypeError, match="unserializable value of type"):
                writer(bad)


# --- payload shape and determinism ---------------------------------------


def test_genus_payload():
    doc = cli.run_genus(4, 4)
    assert (doc["g_min"], doc["g_max"]) == (1, 4)
    assert [e["genus"] for e in doc["per_g"]] == [2, 3, 4]
    assert doc["per_g"][0]["tessellation"] == {"p": 8, "q": 8, "hyperbolic": True}


def test_generators_payload_and_verify_block():
    doc = cli.run_generators(2, -1)
    assert doc["degree"] == 5
    assert len(doc["roots"]) == 5
    assert len(doc["boundary_group"]) == 5
    assert len(doc["subgroup"]) == 4
    assert all(e["class"] == "elliptic" for e in doc["boundary_group"])
    assert all(e["class"] == "hyperbolic" for e in doc["subgroup"])
    assert doc["verify"]["passed"] is True
    assert [e["pair"] for e in doc["subgroup"]] == [[1, 2], [1, 3], [1, 4], [1, 5]]


def test_whittaker_payload():
    doc = cli.run_whittaker(2)
    assert doc["a"] == pytest.approx(0.2)
    assert len(doc["generators"]) == 5
    assert len(doc["subgroup_products"]) == 4
    assert doc["connection"]["projective_residual"] < 1e-8
    assert max(doc["trig_identity_residuals"]) < 1e-12
    assert doc["monodromy_order_residual"] < 1e-10
    raw_det = doc["generators"][0]["raw_det"]
    assert raw_det[0] == pytest.approx(-0.61803398875, abs=1e-9)


@pytest.mark.parametrize("g", [2, 40, 80])
def test_whittaker_projective_residual_is_the_connection_residual(g):
    doc = cli.run_whittaker(g)
    assert doc["connection"]["projective_residual"] == whittaker.connection_residual(
        whittaker.connection_map(g), whittaker.connection_map_from_gammas(g)
    )


def test_whittaker_payload_builds_each_connection_map_once(monkeypatch):
    # connection_map_from_gammas(5) takes 8 Gamma values; the residual
    # reuses the two maps of the payload instead of building them again
    calls = []
    gamma_fn = whittaker.gamma_fn

    def counting(x):
        calls.append(x)
        return gamma_fn(x)

    monkeypatch.setattr(whittaker, "gamma_fn", counting)
    cli.run_whittaker(5)
    assert len(calls) == 8


def test_whittaker_payload_builds_each_generator_once(monkeypatch):
    raw_builds = []
    build = whittaker.whittaker_generator_raw

    def counting(g, k):
        raw_builds.append(k)
        return build(g, k)

    monkeypatch.setattr(whittaker, "whittaker_generator_raw", counting)
    cli.run_whittaker(5)
    assert raw_builds == list(range(11))


def test_tessellation_payload():
    doc = cli.run_tessellation(5, 2)
    assert (doc["p"], doc["q"]) == (8, 8)
    assert doc["hyperbolic"] is True
    assert doc["euler_characteristic"] == -2
    assert doc["cycle_count"] == "1"
    assert doc["q_divides_p"] is True


def test_repeated_runs_are_byte_identical():
    for args in (["generators", "--genus", "3", "--sign", "plus"],
                 ["whittaker", "--genus", "2"]):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip()
        json.loads(first.stdout)


def test_json_out_writes_file_and_keeps_stdout_quiet(tmp_path):
    out = tmp_path / "doc.json"
    result = run_cli("--json-out", str(out), "tessellation",
                     "--degree", "10", "--genus", "2")
    assert result.returncode == 0
    assert result.stdout == ""
    doc = json.loads(out.read_text())
    assert (doc["p"], doc["q"]) == (18, 3)


def test_serialized_matrices_reverify_after_renormalization(tmp_path):
    # 10-significant-digit quantization perturbs raw determinants of the
    # larger products past 1e-9, so a re-read matrix is renormalized
    # before it is re-verified; class/trace/involution checks then run
    # on the same contract tolerances as the original pipeline output.
    out = tmp_path / "gen.json"
    assert cli.main(["--json-out", str(out), "generators",
                     "--genus", "4", "--sign", "minus"]) == 0
    doc = json.loads(out.read_text())

    def revive(entry):
        a, b, c, d = (complex(re, im) for re, im in entry["matrix"])
        return normalize(MoebiusMap(a, b, c, d))

    boundary = FuchsianGroupSpec(
        "boundary", tuple(revive(e) for e in doc["boundary_group"])
    )
    products = FuchsianGroupSpec("surface", tuple(revive(e) for e in doc["subgroup"]))
    assert verify_group(boundary).passed
    assert verify_group(products).passed


# --- SVG ------------------------------------------------------------------


def test_render_writes_parseable_svg(tmp_path):
    out = tmp_path / "figure.svg"
    assert cli.main(["render", "--genus", "2", "--sign", "minus",
                     "--out", str(out)]) == 0
    tree = ET.parse(out)
    root = tree.getroot()
    assert root.tag.endswith("svg")
    assert root.get("viewBox") == "0 0 1000 1000"
    ns = {"s": "http://www.w3.org/2000/svg"}
    paths = root.findall("s:path", ns)
    assert len(paths) == 2
    circles = root.findall("s:circle", ns)
    # unit circle + 5 root dots + 5 apex dots
    assert len(circles) == 11
    texts = root.findall("s:text", ns)
    assert {t.text for t in texts} == {
        "r1", "r2", "r3", "r4", "r5", "m1", "m2", "m3", "m4", "m5"
    }


def test_render_is_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    cli.main(["render", "--genus", "3", "--sign", "plus", "--out", str(a)])
    cli.main(["render", "--genus", "3", "--sign", "plus", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_fundamental_polygon_path_has_one_segment_per_side(tmp_path):
    out = tmp_path / "figure.svg"
    cli.main(["render", "--genus", "2", "--sign", "minus", "--out", str(out)])
    root = ET.parse(out).getroot()
    ns = {"s": "http://www.w3.org/2000/svg"}
    d = root.findall("s:path", ns)[0].get("d")
    assert d.count("A ") == 8  # ideal octagon for genus 2
    assert d.startswith("M ")
    assert d.endswith("Z")


# --- verify ---------------------------------------------------------------


def test_verify_passes_and_prints_one_line_per_check(capsys):
    assert cli.main(["verify"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines[-1].startswith("OK")
    body = lines[:-1]
    assert all(line.startswith("PASS") for line in body)
    assert len(body) >= 15


def test_verify_evaluates_the_continuation_constants_once_per_sweep(monkeypatch):
    # 8 per connection map (g = 2..5), 4 per Gauss sum at z = 1 (five of
    # them), and 7 per continuation_constants (Gamma(gamma) once): one
    # call for the Gauss-summation limit, one for the whole 20-point
    # sweep, and one per hyp2f1 call that takes the 1 - z connection.
    # 9 of the 50 hypergeometric_properties points lie nearer to 1 than
    # to 0 and to z/(z-1); at each, 4 of the 6 hyp2f1 calls may connect:
    # the reduction F(alpha, beta; beta; z) has Gamma(0), and the
    # contiguous F(alpha, beta; gamma + 1; z) has gamma + 1 - alpha - beta
    # = 1.2 > 0.99. Two of the four, F(0.2, 0.4; 0.8; z) and Euler's
    # F(0.6, 0.4; 0.8; z), have gamma = 2 beta, and at 3 of the 9 points
    # (z/(2-z))^2 is smaller than 1 - z, so they take the quadratic sum
    calls = []
    gamma_fn = whittaker.gamma_fn

    def counting(x):
        calls.append(x)
        return gamma_fn(x)

    monkeypatch.setattr(whittaker, "gamma_fn", counting)
    assert cli.run_verify()[0] == 0
    assert len(calls) == 4 * 8 + 5 * 4 + 2 * 7 + (9 * 4 - 3 * 2) * 7


def count_geodesic_solves(monkeypatch) -> list:
    """Record each call of disk_geometry.geodesic_between, through every
    loaded package module that binds the name."""
    calls = []
    solve = disk_geometry.geodesic_between

    def counting(z1, z2):
        calls.append((z1, z2))
        return solve(z1, z2)

    layers = [m for name, m in sys.modules.items() if name.startswith("fuchsian.")]
    for module in layers:
        if getattr(module, "geodesic_between", None) is solve:
            monkeypatch.setattr(module, "geodesic_between", counting)
    assert disk_geometry.geodesic_between is counting
    return calls


def test_render_reads_each_apex_from_its_side(monkeypatch):
    calls = count_geodesic_solves(monkeypatch)
    cli.render_svg(HyperellipticCurve(2, -1))
    # the root polygon, its apexes and the fundamental polygon all come
    # from closed forms: no geodesic is solved from its endpoints
    assert calls == []


def test_generators_reads_each_apex_from_its_side(monkeypatch):
    calls = count_geodesic_solves(monkeypatch)
    cli.run_generators(41, -1, 83)
    # the midpoints are the apexes of the boundary group's closed-form sides
    assert calls == []


def test_generators_takes_the_roots_once(monkeypatch):
    calls = []
    roots = curves.roots

    def counting(curve):
        calls.append(curve)
        return roots(curve)

    for module in (curves, disk_geometry):
        monkeypatch.setattr(module, "roots", counting)
    doc = cli.run_generators(5, -1, 1)
    # the payload's roots are the vertices of the root polygon that the
    # boundary group was built from, a hit on the kept polygon
    assert len(calls) == 1
    assert doc["roots"] == [
        cli._cpair(z) for z in roots(HyperellipticCurve(5, -1))
    ]


def test_verify_reads_each_apex_from_its_side(monkeypatch):
    calls = count_geodesic_solves(monkeypatch)
    assert checks.run_checks()[0]
    # the geometry checks read the boundary groups' closed-form sides,
    # and fundamental_polygon builds its sides in closed form too
    assert calls == []


def test_verify_perturbation_hook_forces_failure(capsys):
    assert cli.main(["verify", "--perturb", "1e-2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL example_generator_entries" in out
    assert out.strip().splitlines()[-1].startswith("FAILED")


def test_verify_fails_a_surface_product_off_the_determinant_bound(
    monkeypatch, capsys
):
    # scaling the first row of one product by 1 + 1e-9 moves its
    # determinant by 1e-9, far past the scaled 1e-12 bound at g <= 6,
    # and leaves it hyperbolic
    build = checks.subgroup_generators
    bent = []

    def bending(base, k=1):
        spec = build(base, k)
        if bent:
            return spec
        first, *rest = spec.generators
        scale = 1.0 + 1e-9
        bent.append(MoebiusMap(first.a * scale, first.b * scale, first.c, first.d))
        return FuchsianGroupSpec(spec.kind, (bent[0], *rest))

    monkeypatch.setattr(checks, "subgroup_generators", bending)
    assert cli.main(["verify"]) == 1
    report = verify_group(FuchsianGroupSpec("surface", (bent[0],)))
    assert report.entries[0].map_class == "hyperbolic"
    assert abs(report.entries[0].det_residual - 1e-9) < 1e-12
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[1] for l in lines if l.startswith("FAIL ")] == [
        "products_hyperbolic"
    ]
    assert lines[-1] == "FAILED: 17/18 checks passed"


def test_verify_large_perturbation_breaks_traces_too(capsys):
    assert cli.main(["verify", "--perturb", "0.5"]) == 1
    out = capsys.readouterr().out
    assert "FAIL example_generator_entries" in out
    assert "FAIL example_trace_regression" in out


# --- argv reading -----------------------------------------------------------

PARSER = cli._build_parser()


def argparse_fields(tokens) -> dict | None:
    """vars() of argparse's Namespace for tokens, or None where it exits."""
    quiet = io.StringIO()
    try:
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            return vars(PARSER.parse_args(tokens))
    except SystemExit:
        return None


def fields_repr(fields: dict) -> dict:
    # repr keeps nan equal to itself and -0.0 apart from 0.0
    return {k: repr(v) for k, v in fields.items()}


# each mode's long options as `_build_parser` declares them (genus takes
# two ints instead)
MODE_OPTIONS = {
    "genus": [],
    "generators": ["--genus", "--sign", "--fixed"],
    "whittaker": ["--genus"],
    "tessellation": ["--degree", "--genus"],
    "render": ["--genus", "--sign", "--out"],
    "verify": ["--perturb"],
}
MODES = list(MODE_OPTIONS)
OPTIONS = ["--genus", "--sign", "--fixed", "--degree", "--out", "--perturb"]
JUNK = [
    "-h", "--help", "--gen", "--genus=2", "--sign=minus", "-1e-2", "-0.01",
    "--", "", "-", "-5", "nan", "1e3", " 2", "2_0", "sideways", "fuchsian",
]
INT = st.integers(-3, 90).map(str)
FLOAT = st.floats(width=32).map(str)
TOKEN = st.sampled_from(
    MODES + OPTIONS + JUNK + ["--json-out", "plus", "minus", "out.json"]
) | INT | FLOAT
TYPED_VALUE = {"--sign": st.sampled_from(["plus", "minus"]),
               "--out": st.just("out.svg"), "--perturb": FLOAT}


@st.composite
def near_canonical(draw) -> list[str]:
    """A mode with its own options, in any order, perhaps one dropped and
    one other added, each mostly followed by a value of its type, after
    an optional --json-out."""
    mode = draw(st.sampled_from(MODES))
    argv = draw(st.sampled_from(
        [[], ["--json-out", "out.json"], ["--json-out", ""], ["--json-out", "-"],
         ["--json-out", "-1e-2"]]
    )) + [mode]
    if mode == "genus":
        return argv + draw(st.lists(INT, min_size=2, max_size=2) | st.lists(TOKEN))
    names = draw(st.permutations(MODE_OPTIONS[mode]))
    # hypothesis leans to the low end of a range: a draw of 3 is the rare case
    if draw(st.integers(0, 3)) == 3:
        names.pop()
    if draw(st.integers(0, 3)) == 3:
        names.append(draw(st.sampled_from(OPTIONS + JUNK[:5])))
    for name in names:
        typed = draw(st.integers(0, 3)) < 3
        argv += [name, draw(TYPED_VALUE.get(name, INT) if typed else TOKEN)]
    return argv


ARGV = st.lists(TOKEN, max_size=8) | near_canonical()


@settings(max_examples=600, deadline=None)
@given(ARGV)
@example(["verify", "--perturb", "-1e-2"])
@example(["verify", "--perturb", "-0.01"])
@example(["generators", "--gen", "2", "--sign", "minus"])
@example(["generators", "--genus=2", "--sign=minus", "--fixed=2"])
@example(["--json-out"])
@example(["--json-out", "--help", "verify"])
@example(["generators", "--genus", "2", "--sign", "sideways", "--sign", "plus"])
@example(["generators", "--genus", "2", "--sign", "plus", "stray"])
@example(["genus", "4", "-4"])
@example(["--json-out", "", "genus", " 4", "2_0"])
def test_fast_parse_agrees_with_argparse(tokens):
    fast = cli._fast_parse(tokens)
    slow = argparse_fields(tokens)
    # every argv argparse rejects (or answers with help) goes to argparse,
    # so its usage line, message and exit code are the only ones printed
    if slow is None:
        assert fast is None
    if fast is not None:
        assert fields_repr(vars(fast)) == fields_repr(slow)


# the golden argvs and argvs laid out like the benchmark's cli_mix requests
BENCHMARK_SPELLINGS = [
    ["--json-out", "out.json", "generators", "--genus", "7", "--sign", "plus",
     "--fixed", "3"],
    ["--json-out", "out.json", "genus", "12", "2"],
    ["render", "--genus", "9", "--sign", "minus", "--out", "out.svg"],
]
CANONICAL_SPELLINGS = [
    list(argv) for argv in (*GOLDEN_STDOUT, *GOLDEN_STDERR)
] + BENCHMARK_SPELLINGS


@pytest.mark.parametrize(
    "argv", CANONICAL_SPELLINGS, ids=[" ".join(argv) for argv in CANONICAL_SPELLINGS]
)
def test_canonical_spellings_take_the_fast_path(argv):
    fast = cli._fast_parse(argv)
    assert fast is not None
    assert fields_repr(vars(fast)) == fields_repr(argparse_fields(argv))


def main_exit(argv) -> int:
    """main's exit code, argparse's SystemExit included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# argvs that argparse reads and `_fast_parse` leaves to it, with the exit
# code they had before the fast path existed
FALLBACK_SPELLINGS = [
    (["verify", "--perturb", "-1e-2"], 2),  # argparse reads -1e-2 as an option
    (["verify", "--perturb", "-0.01"], 1),
    (["generators", "--gen", "2", "--sign", "minus"], 0),
    (["generators", "--genus=2", "--sign=minus", "--fixed=2"], 0),
    (["--json-out"], 2),
]


@pytest.mark.parametrize(
    "argv, code", FALLBACK_SPELLINGS,
    ids=[" ".join(argv) for argv, _ in FALLBACK_SPELLINGS],
)
def test_fallback_spellings_keep_their_outcomes(argv, code, capsys):
    assert cli._fast_parse(argv) is None
    assert main_exit(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        assert err.startswith("usage: fuchsian")
        assert err.splitlines()[-1].startswith("fuchsian")
    elif code == 1:
        assert out.splitlines()[-1] == "FAILED: 17/18 checks passed"
    else:
        canonical = ["generators", "--genus", "2", "--sign", "minus",
                     "--fixed", "2" if "--fixed=2" in argv else "1"]
        assert cli.main(canonical) == 0
        assert capsys.readouterr().out == out


# --- exit codes ------------------------------------------------------------


def error_lines(capsys) -> list[str]:
    """The stderr lines printed since the last read, each checked to be
    one `error: <message>` line."""
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("error: ") and line[7:] for line in lines), lines
    return lines


def test_exit_code_bad_arguments(capsys):
    assert cli.main(["generators", "--genus", "0", "--sign", "plus"]) == 2
    assert cli.main(["whittaker", "--genus", "1"]) == 2
    assert cli.main(["genus", "1", "5"]) == 2
    assert cli.main(["tessellation", "--degree", "7", "--genus", "2"]) == 2
    assert len(error_lines(capsys)) == 4


def test_argparse_errors_exit_two():
    result = run_cli("generators", "--genus", "2", "--sign", "sideways")
    assert result.returncode == 2
    result = run_cli()
    assert result.returncode == 2
    result = run_cli("no-such-mode")
    assert result.returncode == 2


def test_exit_code_algorithm_failure(monkeypatch, capsys):
    # every numerical error is a NumericalError, which main maps to 3,
    # and keeps the base class that callers caught before
    for error, old_base in (
        (NonRealTraceError, ValueError),
        (DegenerateMapError, ValueError),
        (whittaker.SeriesNotConvergedError, ValueError),
    ):
        assert issubclass(error, NumericalError)
        assert issubclass(error, old_base)

        def explode(*args, **kwargs):
            raise error("forced")

        monkeypatch.setattr(cli, "run_generators", explode)
        assert cli.main(["generators", "--genus", "2", "--sign", "minus"]) == 3
        assert error_lines(capsys) == ["error: forced"]


def test_exit_code_numerical_breakdown(monkeypatch, capsys):
    # valid input with a surface product whose entries (about cosh^2 s_c,
    # 4e7) give a determinant that rounds to exactly 0: a numerical
    # failure (3), not bad arguments (2)
    assert cli.main(["whittaker", "--genus", "10000"]) == 3
    # likewise a hypergeometric series that runs out of terms
    monkeypatch.setattr(whittaker, "SERIES_MAX_TERMS", 5)
    assert cli.main(["verify"]) == 3
    assert len(error_lines(capsys)) == 2


@pytest.mark.parametrize(
    "genus, sign", [(46, -1), (48, 1)], ids=["46-minus", "48-plus"]
)
def test_generators_reports_the_surface_determinant_drift(genus, sign):
    # with the default fixed index, these are the first genera where a
    # product's |det - 1| exceeds 1e-9; the bound scales with the size of
    # the entries, so the products pass, and the residual is reported
    # absolute
    doc = cli.run_generators(genus, sign)
    assert doc["verify"]["boundary"]["passed"]
    assert doc["verify"]["passed"]
    drift = max(e["det_residual"] for e in doc["verify"]["subgroup"]["entries"])
    assert drift == pytest.approx(1.40e-9, rel=1e-2)


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("genus", [81, 82, 200, 1000])
def test_render_draws_every_root_and_apex_at_large_genus(
    genus, sign, tmp_path, capsys
):
    # from genus 81 two reflected roots lie within 4e-6 of each other;
    # the closed-form sides between them keep every digit
    out = tmp_path / "f.svg"
    argv = ["render", "--genus", str(genus), "--sign", sign, "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ("", "")
    root = ET.parse(out).getroot()
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 1 + 2 * (2 * genus + 1)


def test_exit_code_io_failure(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "f.svg"
    assert cli.main(["render", "--genus", "2", "--sign", "minus",
                     "--out", str(missing_dir)]) == 4
    assert cli.main(["--json-out", str(tmp_path / "x" / "y.json"),
                     "genus", "4", "4"]) == 4
    assert len(error_lines(capsys)) == 2


def test_unexpected_error_propagates(monkeypatch):
    # only ValueError and OSError map to exit codes; a bug stays a traceback
    def explode(*args, **kwargs):
        raise RuntimeError("not an input or numerical error")

    monkeypatch.setattr(cli, "run_genus", explode)
    with pytest.raises(RuntimeError, match="not an input"):
        cli.main(["genus", "4", "4"])

