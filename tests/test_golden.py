"""Byte pins of command output: sha256 of what `fuchsian` writes, the
exact stderr and exit code of commands that fail, and the sha256 of the
reprs of the surface path's records.

A change to the arithmetic, the float formatting or the payload layout
changes these hashes; a refactor that keeps every float bit does not.
"""

import hashlib

import pytest

import json_reference
from fuchsian import (
    HyperellipticCurve,
    boundary_generators,
    cli,
    fundamental_polygon,
    subgroup_generators,
    verify_group,
)

# argv -> (sha256 of stdout, exit code); the --perturb runs pin the
# failing verify report as well as the passing one
GOLDEN_STDOUT = {
    ("generators", "--genus", "2", "--sign", "minus"): (
        "1d3c01142facf7e4d1501ab32f40b17552f8f2153f46068048e82162e409fb79", 0),
    ("generators", "--genus", "30", "--sign", "plus", "--fixed", "7"): (
        "e899fb4900969ecf606a544cb6a596832f54eaaa7137bfb6011a733efd7d8fe1", 0),
    ("generators", "--genus", "41", "--sign", "minus", "--fixed", "83"): (
        "25ac88544728bd531f3535635fe98d1bfc63a997be740fcf5b015ca90e27b935", 0),
    ("whittaker", "--genus", "2"): (
        "55f6085966f78c84bbb66518dd2f6d3342e485f058cb940be7d355d1d378e636", 0),
    ("whittaker", "--genus", "40"): (
        "9622604aa54e5f5adb7be64bd08eb5516dda806e501e06e0ee96f516182f7805", 0),
    ("whittaker", "--genus", "80"): (
        "6e738d56631495b076405bfb93c6de06aa956567c6d373ce5a6ba48dacd7ebc0", 0),
    ("verify",): (
        "f8ac48d50adfab0000d19a9312570be46f5e14ebd1cb7a8d0269746b2901538e", 0),
    ("verify", "--perturb", "1e-2"): (
        "96a0a9d23af15261856fe398707390ba25a960843a6f7a8439e54d726f792ffe", 1),
    ("verify", "--perturb", "0.5"): (
        "0ecdd00374aed08ff74e76d9e86a2bfe6bb07bae3cd709f1346d5c498069edc6", 1),
    ("genus", "5", "7"): (
        "5f9ae88ae06cf2167140d81ab5ea2d0b2077ddf022c8ab13b7a6703941338339", 0),
    ("tessellation", "--degree", "9", "--genus", "4"): (
        "e8fcc882f23a20d61c57674e05cd88328282bcc03e40d0f7c1f3e1ca33999b58", 0),
    ("tessellation", "--degree", "10", "--genus", "4"): (
        "5be91c12c0a8c431913bdbf573b0796c5f11d5e52bf1c11f4afefb12097d521e", 0),
    ("tessellation", "--degree", "22", "--genus", "4"): (
        "2688f5cc6cec1d47e54ba1a40445524e20f2d7900cdbe8505c4044f008e45004", 0),
}
# argv -> (stderr, exit code) of commands that fail; each writes nothing
# to stdout
GOLDEN_STDERR = {
    ("whittaker", "--genus", "10000"): (
        "error: degenerate map: determinant is zero\n", 3),
    ("generators", "--genus", "3", "--sign", "minus", "--fixed", "8"): (
        "error: fixed index 8 outside 1..7\n", 2),
}
GOLDEN_RENDER_GENUS_5_PLUS = (
    "6cfd8fa1af7f02501448166be5fbeff0c4e1a0b4cdab21d5abf3933f082805fa"
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    ("argv", "expected"), list(GOLDEN_STDOUT.items()),
    ids=[" ".join(argv) for argv in GOLDEN_STDOUT],
)
def test_stdout_bytes_are_pinned(argv, expected, capsys):
    digest, code = expected
    assert cli.main(list(argv)) == code
    out = capsys.readouterr().out
    assert sha256(out.encode("utf-8")) == digest


@pytest.mark.parametrize(
    ("argv", "expected"), list(GOLDEN_STDERR.items()),
    ids=[" ".join(argv) for argv in GOLDEN_STDERR],
)
def test_stderr_bytes_of_failing_commands_are_pinned(argv, expected, capsys):
    stderr, code = expected
    assert cli.main(list(argv)) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)


JSON_COMMANDS = [argv for argv in GOLDEN_STDOUT if argv[0] != "verify"]


@pytest.mark.parametrize(
    "argv", JSON_COMMANDS, ids=[" ".join(argv) for argv in JSON_COMMANDS]
)
def test_json_dumps_reference_writes_the_pinned_bytes(argv, capsys, monkeypatch):
    monkeypatch.setattr(cli, "to_json", json_reference.to_json)
    digest, code = GOLDEN_STDOUT[argv]
    assert cli.main(list(argv)) == code
    assert sha256(capsys.readouterr().out.encode("utf-8")) == digest


def test_render_svg_bytes_are_pinned(tmp_path):
    out = tmp_path / "genus5.svg"
    assert cli.main(["render", "--genus", "5", "--sign", "plus",
                     "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == GOLDEN_RENDER_GENUS_5_PLUS


# genus -> sha256 of the surface path's reprs for both signs and the
# fixed indices 1, g and 2g + 1 (surface_path_reprs), recorded when the
# boundary half-turns were first written in s_b from the side centers,
# and moved once, with the same floats, when GeodesicArc lost its `kind`
# and `direction` fields
GOLDEN_SURFACE_PATH = {
    2: "5fada23a5138d4ccb82b9ee403e5e3bac2b0c97b7dc09ee5321ce3f57b8cce53",
    3: "9240a15dfbd7d8ac1127698357d16040c35ec115fe85650d71253daf0e75c731",
    10: "066827c3a3953845ab3221c0ca2fd5d35be960cc80970021bdee7e62534855bb",
    41: "345b0bfc63a5e8a18a1025808eac48aa6e70c86f7fafe2d00cb9bfa85f884e12",
}


def surface_path_reprs(g: int):
    """The boundary group (generators and sides), the surface products,
    both verify reports and the fundamental polygon, as reprs."""
    for sign in (1, -1):
        curve = HyperellipticCurve(g, sign)
        base = boundary_generators(curve)
        yield repr(base)
        yield repr(verify_group(base))
        for k in (1, g, 2 * g + 1):
            surface = subgroup_generators(base, k)
            yield repr(surface)
            yield repr(verify_group(surface))
        yield repr(fundamental_polygon(curve))


@pytest.mark.parametrize("g", list(GOLDEN_SURFACE_PATH))
def test_surface_path_records_are_pinned(g):
    data = "\n".join(surface_path_reprs(g)).encode("utf-8")
    assert sha256(data) == GOLDEN_SURFACE_PATH[g]


# sha256 of every surface_sweep request's records, g = 1..41, both signs
# and every fixed index k = 1..2g+1 (full_surface_range_parts), recorded
# when the boundary half-turns were first written in s_b from the side
# centers, and moved as GOLDEN_SURFACE_PATH did. The worst product's
# |det - 1| is about 420 times under its bound, so a moved bit changes a
# digest here, not a verdict.
GOLDEN_FULL_SURFACE_RANGE = (
    "8101248b8e0fe92271cc2956545b64503ebc7c2ae361ced1544665f181a2df90"
)


def full_surface_range_parts():
    """The boundary group and its report, then each surface group and
    its report in k order, then the fundamental polygon, as reprs."""
    for g in range(1, 42):
        for sign in (1, -1):
            curve = HyperellipticCurve(g, sign)
            base = boundary_generators(curve)
            yield repr(base)
            yield repr(verify_group(base))
            for k in range(1, 2 * g + 2):
                surface = subgroup_generators(base, k)
                yield repr(surface)
                yield repr(verify_group(surface))
            yield repr(fundamental_polygon(curve))


def test_every_surface_sweep_request_is_pinned():
    digest = hashlib.sha256()
    for part in full_surface_range_parts():
        digest.update(part.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_FULL_SURFACE_RANGE
