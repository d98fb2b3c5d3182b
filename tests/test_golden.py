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
        "2304d9e5722e46e5c9627a10d9326c6e075f211d4fd99d22946ba82aa7591684", 0),
    ("generators", "--genus", "30", "--sign", "plus", "--fixed", "7"): (
        "ebf5ea29a00540f4cd1a091b0b94669c1b35fc76edfaafc57cbe4fee9098b351", 0),
    ("generators", "--genus", "41", "--sign", "minus", "--fixed", "83"): (
        "13754d4f46fe0f12e5fe48b4f1a39ffe81e43a413a16910629866009a310bfec", 0),
    ("whittaker", "--genus", "2"): (
        "a06fdc8aa20977c126739596b4b42fc9025bc6eb8e74dff84cf50d96e6f2214b", 0),
    ("whittaker", "--genus", "40"): (
        "bb84a3e6b69e8bb0681948084fe4b93a4a035f55af9189e5cc138593a538b2d1", 0),
    ("whittaker", "--genus", "80"): (
        "f1d89b085a5c86d33f24fd04c16195225ea422258e4f4b76917ab9026dceccdf", 0),
    ("verify",): (
        "55a08d487f4c6e4f3595376b7dac2e47a63420ab4799ce8c8ee08523c5b885de", 0),
    ("verify", "--perturb", "1e-2"): (
        "ecddaa808729d8ac9a4a44714cf709b6d5aeb3c807c12a49ac7a37a002e323ce", 1),
    ("verify", "--perturb", "0.5"): (
        "ac5a367d548649403e036416eb000d9e66c19bc42bf6a3d11ed4d5a8bb581997", 1),
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
# to stdout. "{out}" stands for a fresh file path, which stays unwritten.
GOLDEN_STDERR = {
    ("generators", "--genus", "44", "--sign", "plus"): (
        "error: normalized trace -2624.6+1.06938e-06j is not real: "
        "no isometry class\n", 3),
    ("generators", "--genus", "3", "--sign", "minus", "--fixed", "8"): (
        "error: fixed index 8 outside 1..7\n", 2),
    ("render", "--genus", "81", "--sign", "plus", "--out", "{out}"): (
        "error: geodesic through 0.999257+0.0385376j and "
        "0.999257+0.0385412j: computed center lies inside the unit circle "
        "(|C|^2 - 1 = -1.29e-13)\n", 3),
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
def test_stderr_bytes_of_failing_commands_are_pinned(
    argv, expected, capsys, tmp_path
):
    stderr, code = expected
    out = tmp_path / "f.svg"
    assert cli.main([str(out) if a == "{out}" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)
    assert not out.exists()


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
# fixed indices 1, g and 2g + 1 (surface_path_reprs), recorded at commit
# 77716ed, before geodesic_between and verify_group were trimmed
GOLDEN_SURFACE_PATH = {
    2: "ff968fae5a1664c3ea048cbe531dc7115b78b701f4d218020f1544c968208707",
    3: "79700f0678f5a008ff75b5ace62e057169ad9c5f6e7efb6d4610f4d0af91b222",
    10: "810f0285cfb6c6ab8243100beb3adfa4fa78c32acd4211c95d03404d497051bb",
    41: "1000c3725e0f219e9f9ce4a7d06be6e992452c25fb2b60f260b36425bfcd4edd",
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
