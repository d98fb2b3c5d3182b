"""Lazy loading: `import fuchsian` loads no layer, each CLI command loads
only the layers it uses and, spelled canonically, no `argparse`, and
every exported name still resolves to the object its defining module
holds."""

import importlib
import subprocess
import sys

import pytest

import fuchsian

LAYERS = ("curves", "disk_geometry", "group_builder", "moebius", "tessellation", "whittaker")
ALL = set(LAYERS)
DISK = {"curves", "disk_geometry"}
GEOMETRY = DISK | {"group_builder", "moebius"}


def run_importtime(*args):
    """A fresh interpreter's finished process and the names of the modules
    it imported.

    `-X importtime` lists every module a process imports on stderr, one
    `import time: self | cumulative | name` line each.
    """
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
    )
    names = set()
    for line in result.stderr.splitlines():
        if line.startswith("import time:"):
            names.add(line.rsplit("|", 1)[1].strip())
    return result, names


def imported_modules(*args):
    """Exit code and the names of the modules a fresh interpreter imported."""
    result, names = run_importtime(*args)
    return result.returncode, names


def loaded_layers(*args):
    """Exit code and the fuchsian submodules a fresh interpreter imported."""
    code, names = imported_modules(*args)
    return code, {
        name.removeprefix("fuchsian.") for name in names if name.startswith("fuchsian.")
    }


def test_bare_import_loads_no_layer():
    assert loaded_layers("-c", "import fuchsian") == (0, set())


COMMANDS = [
    (("genus", "4", "4"), 0, {"tessellation"}),
    # bad arguments: naming the exit-3 exceptions imports no layer
    (("genus", "1", "5"), 2, {"tessellation"}),
    (("tessellation", "--degree", "5", "--genus", "2"), 0, {"tessellation"}),
    (("whittaker", "--genus", "2"), 0, {"moebius", "whittaker"}),
    (("generators", "--genus", "2", "--sign", "minus"), 0, GEOMETRY),
    (("render", "--genus", "2", "--sign", "minus", "--out", "{out}"), 0, DISK),
    (("verify",), 0, ALL | {"checks"}),
]
# only the commands that build groups load group_builder, which alone
# imports `dataclasses` (and, through it, `inspect`)
WITHOUT_DATACLASSES = {"genus", "tessellation", "whittaker", "render"}


@pytest.mark.parametrize(
    "argv, code, want", COMMANDS, ids=[" ".join(argv) for argv, _, _ in COMMANDS]
)
def test_each_command_loads_only_its_layers(argv, code, want, tmp_path):
    argv = [a.format(out=tmp_path / "f.svg") for a in argv]
    assert loaded_layers("-m", "fuchsian.cli", *argv) == (code, want)


@pytest.mark.parametrize(
    "argv", [argv for argv, _, _ in COMMANDS], ids=[" ".join(argv) for argv, _, _ in COMMANDS]
)
def test_each_command_compiles_the_cli_once_and_skips_dataclasses(argv, tmp_path):
    argv = [a.format(out=tmp_path / "f.svg") for a in argv]
    _, names = imported_modules("-m", "fuchsian.cli", *argv)
    assert "fuchsian" in names
    # under -m the CLI runs as __main__; an import of fuchsian.cli would
    # compile and execute it a second time
    assert "fuchsian.cli" not in names
    if argv[0] in WITHOUT_DATACLASSES:
        assert not {"dataclasses", "inspect"} & names


@pytest.mark.parametrize(
    "argv", [argv for argv, _, _ in COMMANDS], ids=[" ".join(argv) for argv, _, _ in COMMANDS]
)
def test_no_command_imports_json(argv, tmp_path):
    argv = [a.format(out=tmp_path / "f.svg") for a in argv]
    _, names = imported_modules("-m", "fuchsian.cli", *argv)
    assert "fuchsian" in names
    assert "json" not in names


@pytest.mark.parametrize(
    "argv", [argv for argv, _, _ in COMMANDS], ids=[" ".join(argv) for argv, _, _ in COMMANDS]
)
def test_canonical_commands_load_neither_argparse_nor_gettext(argv, tmp_path):
    # main reads a canonical argv itself; argparse (and gettext, which it
    # imports) is only for help, argument errors and other spellings
    argv = [a.format(out=tmp_path / "f.svg") for a in argv]
    _, names = imported_modules("-m", "fuchsian.cli", *argv)
    assert "fuchsian" in names
    assert not {"argparse", "gettext"} & names


def test_a_rejected_argv_still_gets_argparse_usage_and_exit_two():
    result, names = run_importtime(
        "-m", "fuchsian.cli", "generators", "--genus", "2", "--sign", "sideways"
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert any(
        line.startswith("usage: fuchsian generators")
        for line in result.stderr.splitlines()
    )
    # the pins above would see argparse had it been loaded
    assert {"argparse", "gettext"} <= names


def test_every_exported_name_is_its_defining_modules_object():
    assert len(fuchsian.__all__) == len(set(fuchsian.__all__)) == 44
    for module_name, names in fuchsian._EXPORTS.items():
        module = importlib.import_module(f"fuchsian.{module_name}")
        for name in names:
            obj = getattr(fuchsian, name)
            assert obj is getattr(module, name), name
            if hasattr(obj, "__qualname__"):
                assert obj.__module__ == module.__name__, name
    assert set(fuchsian.__all__) <= set(dir(fuchsian))
    assert set(LAYERS) <= set(dir(fuchsian))


def test_star_import_binds_all_names():
    namespace = {}
    exec("from fuchsian import *", namespace)
    assert set(fuchsian.__all__) <= set(namespace)
    assert namespace["compose"] is fuchsian.moebius.compose
    assert namespace["hyp2f1"] is fuchsian.whittaker.hyp2f1


def test_layer_submodule_is_an_attribute_after_bare_import():
    code = (
        "import fuchsian; m = fuchsian.whittaker; "
        "print(m.__name__, m.hyp2f1 is fuchsian.hyp2f1)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["fuchsian.whittaker", "True"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fuchsian.no_such_name
    with pytest.raises(AttributeError):
        getattr(fuchsian, "cli_does_not_exist")
    assert not hasattr(fuchsian, "_private")
