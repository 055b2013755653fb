"""The file rule `serial` owns: every read and write goes through it, and
a path it cannot read fails as a ConfigError naming that path. No module
reads the environment. A bool field reads only JSON true or false, and a
config section may state a derived field only as its derived value.
Every config dataclass converts its fields by the rule a config file is
read by, so a config built in code and one read from a file agree."""

import ast
import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from exitweave.backbone import BackboneConfig
from exitweave.checkpoint import load_run_checkpoint
from exitweave.cli import OutputConfig
from exitweave.datahub import DATASET_KINDS, load_cifar_bin, load_dataset, read_idx
from exitweave.errors import ConfigError
from exitweave.serial import read_config, read_value
from exitweave.trainer import TrainConfig
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


# -- one conversion rule for a config built in code and one read from a file

REFUSED = object()  # the field refuses the value: "<field>: cannot read <value> as <type>"
SCALARS = (True, 2.5, 8.0, np.int64(8), "8", "x", None, math.nan, math.inf)
SEQUENCES = ([1, 1], (1, 1), np.array([1, 1]), "44", {"a": 1})
R = REFUSED
# what a field of each annotation stores for each of SCALARS, then (tuple fields) SEQUENCES
READS = {
    "int": (R, R, 8, 8, 8, R, R, R, R),
    "float": (R, 2.5, 8.0, 8.0, 8.0, R, R, R, R),
    "str": (R, R, R, R, "8", "x", R, R, R),
    "str | None": (R, R, R, R, "8", "x", None, R, R),
    "str | list": (R, R, R, R, "8", "x", R, R, R),
    "tuple[int, ...]": (R,) * 9 + ((1, 1), (1, 1), (1, 1), R, R),
    "tuple[float, ...] | None": (R,) * 6 + (None, R, R) + ((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), R, R),
}

# every config class, with the fields it needs to build: each case changes one field
BASES = {
    BackboneConfig: dict(input_dim=4, trunk_widths=[1, 1], num_classes=3),
    WpnConfig: dict(num_exits=2),
    TrainConfig: dict(epochs=1, batch_size=4, alpha=0.1, variant="fixed", exit_weights=[1.0, 1.0]),
    OutputConfig: {},
    **{cls: {f.name: 2 if f.type is int else "a" for f in fields(cls) if f.default is MISSING}
       for cls in DATASET_KINDS.values()},
}
FIELDS = [(cls, f) for cls in BASES for f in fields(cls)]


def annotation(f) -> str:
    return f.type if isinstance(f.type, str) else getattr(f.type, "__name__", str(f.type))


def outcome(build):
    """The config build() returns, or the text of the ConfigError it raises."""
    try:
        return build()
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("cls, f", FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in FIELDS])
def test_a_config_built_in_code_reads_each_value_as_a_file_does(cls, f):
    reads = READS[annotation(f)]
    values = SCALARS + SEQUENCES[: len(reads) - len(SCALARS)]
    assert len(values) == len(reads)
    where = f"run.json: {cls.__name__}"
    for value, expected in zip(values, reads):
        doc = {**BASES[cls], f.name: value}
        in_code = outcome(lambda: cls(**doc))
        from_file = outcome(lambda: read_config(cls, doc, where))
        if isinstance(from_file, str):
            assert from_file.startswith(f"{where}: "), (value, from_file)
            from_file = from_file[len(where) + 2:]
        assert in_code == from_file, value
        refused = isinstance(in_code, str) and in_code.startswith(f"{f.name}: cannot read {value!r} as ")
        assert refused == (expected is REFUSED), (value, in_code)
        if not isinstance(in_code, str) and expected is not REFUSED:
            stored = getattr(in_code, f.name)
            assert stored == expected and type(stored) is type(expected), (value, stored)
            if isinstance(stored, tuple):
                assert [type(v) for v in stored] == [type(v) for v in expected], (value, stored)


class BytesPath:
    """A path object whose path is bytes."""

    def __fspath__(self):
        return b"runs"


def test_a_str_field_takes_a_path_as_its_string_and_nothing_else():
    stored = OutputConfig(dir=Path("runs") / "a").dir
    assert stored == str(Path("runs") / "a") and type(stored) is str
    assert read_value(str | None, Path("b"), "train.frozen_wpn_path") == "b"
    for value in (None, 8, True, b"runs", BytesPath()):
        with pytest.raises(ConfigError, match=re.escape(f"dir: cannot read {value!r} as str")):
            OutputConfig(dir=value)
    with pytest.raises(ConfigError, match=re.escape("run.json: output: dir: cannot read None as str")):
        read_config(OutputConfig, {"dir": None}, "run.json: output")


def src_uses(names: set[str]) -> list[str]:
    """`module:line name` of each definition, import or use of one of names in src."""
    found = []
    for module in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                name = f"{node.value.id}.{node.attr}"
            elif isinstance(node, (ast.Name, ast.FunctionDef)):
                name = getattr(node, "id", getattr(node, "name", None))
            elif isinstance(node, ast.ImportFrom):
                found += [f"{module.name}:{node.lineno} {a.name}" for a in node.names if a.name in names]
                continue
            else:
                continue
            if name in names:
                found.append(f"{module.name}:{node.lineno} {name}")
    return found


def test_only_serial_sets_fields_and_reads_annotations():
    # a frozen field set anywhere else would be a second conversion rule
    uses = src_uses({"object.__setattr__", "get_type_hints"})
    assert uses and [use for use in uses if not use.startswith("serial.py:")] == []
    assert src_uses({"whole_fields", "_is_whole"}) == []
