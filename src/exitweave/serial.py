"""The file layer: every file read, and every JSON format this package writes.

Every read goes through `read_bytes`, so a missing or unreadable path
raises ConfigError naming it whichever reader asked. Run config, run
checkpoint, history, metrics and dataset container each open with a
`{"format", "version"}` header, and only this module knows it: the
format names, the `VERSIONS` table, the one writer (`write_doc`) and
the one reader (`read_doc`). Arrays are base64-encoded
little-endian float64 buffers, and documents are dumped with sorted
keys and a fixed layout, so rewriting the same content produces
byte-identical files, which reruns rely on. Every write goes through
`write_text` (documents and eval's `curves.csv`), which creates its
directory and replaces its target only once complete, so an interrupted
one leaves the old file intact. `output_dir` checks, before any work, a
directory such writes will fill.

Config sections (in run config files and in checkpoints) are read and
written against the config dataclasses themselves: their fields give
the allowed keys, their defaults fill missing ones, and their type
annotations say how each value is converted. Each config dataclass
converts its own fields when it is constructed (`convert_fields`), so a
config built in code is read by the same rule as a config file.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import MISSING, fields
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, FormatError

CONFIG_FORMAT = "exitweave-config"
RUN_FORMAT = "exitweave-run"
HISTORY_FORMAT = "exitweave-history"
METRICS_FORMAT = "exitweave-metrics"
DATASET_FORMAT = "exitweave-dataset"

# The version each format's writer stamps and reader requires, one per format
VERSIONS = {CONFIG_FORMAT: 1, RUN_FORMAT: 1, HISTORY_FORMAT: 1, METRICS_FORMAT: 2, DATASET_FORMAT: 1}
_HEADER = ("format", "version")


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def decode_array(obj, where: str) -> np.ndarray:
    """The array `encode_array` wrote; a malformed one raises FormatError naming where."""
    try:
        buf = base64.b64decode(obj["data"])
        arr = np.frombuffer(buf, dtype="<f8").astype(np.float64)
        return arr.reshape(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{where}: bad encoded array: {exc}") from exc


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def output_dir(path) -> Path:
    """path, checked as a directory to write into before any work is
    done: it, or else its nearest existing ancestor, must be a directory
    (`write_text` creates the rest). Otherwise ConfigError names path."""
    p = Path(path)
    base = next((a for a in (p, *p.parents) if a.exists()), p)
    if not base.is_dir():
        raise ConfigError(f"{p}: cannot create directory: {base} is not a directory")
    return p


def write_text(path, text: str) -> None:
    """Write text to path, creating its directory, through a temporary file next to it."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_doc(path, fmt: str, body: dict) -> None:
    """Write body under fmt's header, atomically (`write_text`)."""
    write_text(path, dump_json({"format": fmt, "version": VERSIONS[fmt], **body}))


def read_bytes(path) -> bytes:
    """The bytes of a file; a missing or unreadable path raises ConfigError naming it."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: file not found") from exc
    except OSError as exc:  # a directory, no permission
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc


def read_text(path) -> str:
    """The UTF-8 text of a file (`read_bytes`); undecodable bytes raise FormatError naming it."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path) -> dict:
    p = Path(path)
    try:
        doc = json.loads(read_text(p))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{p}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{p}: expected a JSON object at top level")
    return doc


def check_envelope(doc: dict, path, fmt: str) -> None:
    """Validate the format/version header of a loaded document."""
    version = VERSIONS[fmt]
    if doc.get("format") != fmt:
        raise FormatError(f"{path}: not an {fmt} document (format={doc.get('format')!r})")
    if doc.get("version") != version:
        raise FormatError(
            f"{path}: unsupported {fmt} version {doc.get('version')!r}, expected {version}"
        )


def read_doc(path, fmt: str, *, header_optional: bool = False) -> dict:
    """The body of a fmt document, header checked and removed. With
    header_optional (hand-written config files) the header may be left
    out, but one that is present must be fmt's."""
    doc = read_json(path)
    if not header_optional or any(k in doc for k in _HEADER):
        check_envelope(doc, path, fmt)
    return {k: v for k, v in doc.items() if k not in _HEADER}


def config_doc(config) -> dict:
    """A config dataclass as a JSON object: every field, tuples as lists."""
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        doc[f.name] = list(value) if isinstance(value, tuple) else value
    return doc


def _convert(hint, value):
    origin = get_origin(hint)
    if origin is tuple:  # a string, bytes or a mapping would read item by item
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise TypeError("expected a list")
        return tuple(_convert(get_args(hint)[0], v) for v in value)
    if hint is bool:  # bool("false") is True, so only JSON true/false count
        if not isinstance(value, bool):
            raise TypeError("expected true or false")
        return value
    if hint is str:  # str() would read null as "None" and 8 as "8"
        value = os.fspath(value) if isinstance(value, os.PathLike) else value
        if not isinstance(value, str):
            raise TypeError("expected a string or a path")
        return str(value)
    if hint in (int, float) and isinstance(value, (bool, np.bool_)):
        raise TypeError("not a number")  # int() and float() would read true as 1
    if hint is int and isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise ValueError("not a whole number")  # int() would read 2.9 as 2
    if hint is float and not math.isfinite(float(value)):  # json reads NaN and Infinity
        raise ValueError("not a finite number")
    if origin is None:  # a plain class such as int
        return hint(value)
    # a union such as str | None: convert by the member whose type value has, else by the first
    args = get_args(hint)
    member = next((a for a in args if isinstance(value, get_origin(a) or a)), args[0])
    return value if member is type(None) else _convert(member, value)


def require_keys(doc: dict, keys, where: str, error) -> None:
    """Raise `error` naming where and every one of keys that doc lacks."""
    missing = [key for key in keys if key not in doc]
    if missing:
        raise error(f"{where}: missing required key(s): {', '.join(missing)}")


def read_value(hint, value, where: str, error=ConfigError):
    """value converted to type hint as `convert_fields` converts a field;
    a value that does not convert raises `error` naming where."""
    try:
        return _convert(hint, value)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "finite float" if hint is float else hint.__name__ if isinstance(hint, type) else hint
        raise error(f"{where}: cannot read {value!r} as {kind}") from exc


_field_hints = cache(get_type_hints)  # a config class's annotations, resolved once


def convert_fields(config) -> None:
    """Convert each field of config dataclass config in place by its
    annotation: the one rule for a config value, from a file or from
    code, that every config dataclass applies first in `__post_init__`.
    Values convert as int() and float() do, a tuple item by item from a
    list, tuple or array, except that a number field takes no boolean,
    an int field no fraction, a float field no NaN or infinity and a
    bool field only true or false; a str field takes only a string or a
    path, which it stores as its string; a union field converts by the
    member type the value has. A value that does not convert raises
    ConfigError naming the field."""
    hints = _field_hints(type(config))
    for f in fields(config):
        object.__setattr__(config, f.name, read_value(hints[f.name], getattr(config, f.name), f.name))


def read_config(cls, doc, where: str, error=ConfigError, *, fill: bool = True, **given):
    """Build config dataclass cls, which converts the values itself
    (`convert_fields`), from the JSON section doc.

    Keyword arguments supply fields derived elsewhere, which doc may
    state only as their given values. With fill, a missing key takes its
    field's default if it has one; other missing keys are errors. A bad
    key, a value that does not convert or that differs from its given
    value, or one the dataclass rejects raises `error` naming where and
    the key (and both values if given).
    """
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise error(f"{where}: unknown key(s): {', '.join(unknown)}")
    optional = {*given, *(f.name for f in fields(cls) if fill and f.default is not MISSING)}
    require_keys(doc, [name for name in names if name not in optional], where, error)
    try:
        config = cls(**{**given, **doc})
    except ConfigError as exc:
        raise error(f"{where}: {exc}") from exc
    for name in given:
        if name in doc and getattr(config, name) != given[name]:
            raise error(f"{where}: {name}: must equal the derived value {given[name]!r}, got {doc[name]!r}")
    return config
