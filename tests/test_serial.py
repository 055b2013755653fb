"""The file rule `serial` owns: every read and write goes through it, and
a path it cannot read fails as a ConfigError naming that path. No module
reads the environment. A bool field reads only JSON true or false, and a
config section may state a derived field only as its derived value."""

import ast
import re
from pathlib import Path

import pytest

from exitweave.checkpoint import load_run_checkpoint
from exitweave.datahub import load_cifar_bin, load_dataset, read_idx
from exitweave.errors import ConfigError
from exitweave.serial import read_config, read_value
from exitweave.wpn import WpnConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "exitweave"
READERS = {f.__name__: f for f in (load_run_checkpoint, load_dataset, read_idx, load_cifar_bin)}
FILE_CALLS = {"read_text", "read_bytes", "write_text", "write_bytes", "open", "mkdir"}
ENVIRONMENT = {"environ", "getenv", "putenv"}


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("reader", READERS.values(), ids=READERS)
def test_reader_names_a_path_it_cannot_read(tmp_path, reader, kind):
    # each raised a bare FileNotFoundError or IsADirectoryError
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        reader(path)


def file_calls(module: Path) -> list[str]:
    """`module:line name` of each call in module that opens, reads or writes a file itself."""
    found = []
    for node in ast.walk(ast.parse(module.read_text(), str(module))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in FILE_CALLS and (isinstance(func, ast.Attribute) or name == "open"):
            found.append(f"{module.name}:{node.lineno} {ast.unparse(func)}")
    return found


def test_only_serial_touches_files():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "serial.py" in modules
    assert [call for module in modules if module.name != "serial.py" for call in file_calls(module)] == []
    assert file_calls(SRC / "serial.py")  # the scan sees serial's own reads and writes


def environment_reads(module: Path) -> list[str]:
    """`module:line name` of each use of os.environ, os.getenv or os.putenv in module."""
    found = []
    for node in ast.walk(ast.parse(module.read_text(), str(module))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT and getattr(node.value, "id", None) == "os":
            found.append(f"{module.name}:{node.lineno} {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{module.name}:{node.lineno} os.{a.name}" for a in node.names if a.name in ENVIRONMENT]
    return found


def test_no_module_reads_the_environment():
    # a setting belongs in the run config or on the command line, where a run records it
    assert [read for module in sorted(SRC.glob("*.py")) for read in environment_reads(module)] == []


def test_write_text_creates_its_directory(tmp_path):
    from exitweave.serial import write_text

    write_text(tmp_path / "a" / "b" / "out.txt", "x\n")
    assert (tmp_path / "a" / "b" / "out.txt").read_text() == "x\n"


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_bool_reads_only_true_or_false(value):
    # bool("false") is True, so a string would switch a flag on
    with pytest.raises(ConfigError, match=re.escape(f"train: flag: cannot read {value!r} as bool")):
        read_value(bool, value, "train: flag")


def test_bool_keeps_true_and_false():
    assert read_value(bool, True, "flag") is True and read_value(bool, False, "flag") is False


@pytest.mark.parametrize("stated", [{}, {"num_exits": 3}, {"num_exits": "3"}, {"num_exits": 3.0}])
def test_a_derived_field_may_be_stated_as_its_value(stated):
    assert read_config(WpnConfig, stated, "run.json: wpn", num_exits=3).num_exits == 3


def test_a_derived_field_stated_otherwise_names_both_values():
    with pytest.raises(ConfigError, match=re.escape("run.json: wpn: num_exits: must equal the derived value 3, got 4")):
        read_config(WpnConfig, {"num_exits": 4}, "run.json: wpn", num_exits=3)
