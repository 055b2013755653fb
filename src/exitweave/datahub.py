"""Datasets: synthetic mixtures, on-disk loaders, imbalancing, batching.

A Dataset is rows of float64 features plus int64 labels, and building
one is the only check of its contents. Loaders exist for three external
formats. Each reads through `serial` and checks only its own format; a
content error becomes a FormatError naming the file:

  * the classic big-endian IDX tensor format (images + labels as two
    files),
  * raw CIFAR-style binary batches (3073-byte records: one label byte
    followed by 3072 pixel bytes),
  * this package's own JSON container with base64-encoded float64
    buffers, which round-trips byte-identically.

`longtail_subsample` imposes an exponential class-size profile on a
balanced set, and `make_batches` produces the per-epoch shuffled index
batches every trainer run consumes. `DATASET_KINDS` holds the schema of
a run config's dataset section, one config dataclass per `kind` (its
`kind` attribute); `read_dataset` reads a section into one such config,
data files checked, and `build_datasets` builds its splits.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, make_dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, FormatError, NumericError, ShapeError
from .numkit import RngStream, require_finite
from .serial import (
    DATASET_FORMAT, convert_fields, decode_array, encode_array, read_bytes, read_config, read_doc, read_value,
    require_keys, write_doc,
)


@dataclass
class Dataset:
    """Feature rows with integer labels, validated on construction: each error names its field."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: str = "train"

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ShapeError(f"features: need a nonempty 2-D array, got shape {self.features.shape}")
        require_finite(self.features, "features")
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ShapeError(f"labels: shape {self.labels.shape} does not match {self.features.shape[0]} rows")
        if self.labels.dtype.kind not in "iu":  # signed or unsigned integers
            raise ShapeError(f"labels: need integers, got {self.labels.dtype}")
        self.labels = self.labels.astype(np.int64)
        if self.num_classes < 2:
            raise ConfigError(f"num_classes: need >= 2 classes, got {self.num_classes}")
        bad = self.labels[(self.labels < 0) | (self.labels >= self.num_classes)]
        if bad.size:
            raise ShapeError(f"labels: label {int(bad[0])} out of range [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray, split: str | None = None) -> "Dataset":
        return Dataset(
            self.features[indices], self.labels[indices], self.num_classes,
            self.split if split is None else split,
        )


def gen_synthetic_gaussians(
    num_classes: int,
    dim: int,
    per_class: int,
    spread: float,
    rng: RngStream,
    split: str = "train",
    radius: float = 3.0,
) -> Dataset:
    """Isotropic Gaussian blobs with class means spread on a circle.

    Means live in the first two feature dimensions (on a line when
    dim == 1); the remaining dimensions carry pure noise, so they make
    the problem harder without adding signal. Deterministic in rng.
    """
    if num_classes < 2:
        raise ConfigError(f"num_classes: need >= 2 classes, got {num_classes}")
    if dim < 1 or per_class < 1:
        raise ConfigError("dim and per_class must be >= 1")
    if spread <= 0:
        raise DomainError(f"spread must be positive, got {spread}")
    means = np.zeros((num_classes, dim))
    if dim == 1:
        means[:, 0] = np.linspace(-radius, radius, num_classes)
    else:
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    features = means[labels] + spread * rng.standard_normal((labels.shape[0], dim))
    return Dataset(features, labels, num_classes, split)


# ---------------------------------------------------------------------------
# IDX format (big-endian magic: 0x00 0x00 <dtype> <ndim>, then int32 dims)
# ---------------------------------------------------------------------------

_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def read_idx(path) -> np.ndarray:
    """Parse one IDX tensor file into a native-endian ndarray."""
    raw = read_bytes(path)
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated IDX header at byte {len(raw)}")
    if raw[0] != 0 or raw[1] != 0:
        raise FormatError(f"{path}: bad IDX magic at byte 0: {raw[:2].hex()}")
    code, ndim = raw[2], raw[3]
    if code not in _IDX_DTYPES:
        raise FormatError(f"{path}: unknown IDX dtype code 0x{code:02x} at byte 2")
    if ndim < 1:
        raise FormatError(f"{path}: IDX ndim must be >= 1, got {ndim}")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated IDX dims at byte {len(raw)}")
    shape = struct.unpack(f">{ndim}i", raw[4:header_end])
    if any(d < 0 for d in shape):
        raise FormatError(f"{path}: negative IDX dimension {shape}")
    dtype = _IDX_DTYPES[code]
    expected = header_end + math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{path}: IDX payload length mismatch at byte {min(len(raw), expected)}: "
            f"have {len(raw)} bytes, header promises {expected}"
        )
    data = np.frombuffer(raw, dtype=dtype, count=math.prod(shape), offset=header_end)
    return data.reshape(shape).astype(dtype.newbyteorder("="))


def _from_file(source: str, features, labels, num_classes: int, split: str) -> Dataset:
    """Dataset(features, labels, num_classes, split) read from source; a
    content error becomes a FormatError naming source."""
    try:
        return Dataset(features, labels, num_classes, split)
    except (ShapeError, NumericError, ConfigError) as exc:
        raise FormatError(f"{source}: {exc}") from exc


def load_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Pair an IDX image tensor with an IDX label vector.

    Image tensors are flattened to one row per sample; integer pixel
    types are scaled to [0, 1] by 255; the classes run up to the largest label.
    """
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim < 2:
        raise FormatError(f"{images_path}: image tensor must have >= 2 dims, got {images.ndim}")
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]} "
            f"({images_path} vs {labels_path})"
        )
    if images.shape[0] == 0:
        raise FormatError(f"{images_path}: no samples (image count 0)")
    if not np.issubdtype(labels.dtype, np.integer):
        raise FormatError(f"{labels_path}: labels must be an integer IDX tensor")
    feats = images.reshape(images.shape[0], -1).astype(np.float64)
    if np.issubdtype(images.dtype, np.integer):
        feats /= 255.0
    return _from_file(f"{images_path} with {labels_path}", feats, labels, int(labels.max()) + 1, split)


# ---------------------------------------------------------------------------
# CIFAR-style raw binary batches
# ---------------------------------------------------------------------------

_CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixel bytes


def load_cifar_bin(paths, num_classes: int = 10, split: str = "train") -> Dataset:
    """Concatenate one or more raw binary batch files into a Dataset.

    Each record is one label byte followed by 3072 pixel bytes; pixels
    are scaled to [0, 1]. A file whose size is not a whole number of
    records is rejected with the offending byte offset. The records of
    all files are checked once, as one Dataset; only when that check
    fails are the files checked one by one, so the error names the first
    bad file.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise ConfigError("at least one batch file is required")
    files = []
    for path in paths:
        raw = read_bytes(path)
        if len(raw) == 0 or len(raw) % _CIFAR_RECORD != 0:
            raise FormatError(
                f"{path}: size {len(raw)} is not a multiple of the {_CIFAR_RECORD}-byte "
                f"record; trailing fragment starts at byte {len(raw) - len(raw) % _CIFAR_RECORD}"
            )
        files.append((str(path), np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)))

    def scaled(records):
        return records[:, 1:].astype(np.float64) / 255.0, records[:, 0]

    try:
        return Dataset(*scaled(np.concatenate([records for _, records in files])), num_classes, split)
    except (ShapeError, NumericError, ConfigError):
        for path, records in files:
            _from_file(path, *scaled(records), num_classes, split)
        raise


# ---------------------------------------------------------------------------
# Native JSON container
# ---------------------------------------------------------------------------

def save_dataset(path, dataset: Dataset) -> None:
    write_doc(path, DATASET_FORMAT, {
        "split": dataset.split,
        "num_classes": dataset.num_classes,
        "features": encode_array(dataset.features),
        "labels": [int(v) for v in dataset.labels],
    })


def load_dataset(path) -> Dataset:
    doc = read_doc(path, DATASET_FORMAT)
    require_keys(doc, ("features", "labels", "num_classes"), str(path), FormatError)
    features = decode_array(doc["features"], f"{path}: features")
    if not isinstance(doc["labels"], list):
        raise FormatError(f"{path}: labels: expected a list of integers")
    # read as an int config field is: 1.5 and true are errors, not 1
    labels = [read_value(int, v, f"{path}: labels[{i}]", FormatError) for i, v in enumerate(doc["labels"])]
    try:
        labels = np.asarray(labels, dtype=np.int64)
    except OverflowError as exc:
        raise FormatError(f"{path}: labels: {exc}") from exc
    num_classes = read_value(int, doc["num_classes"], f"{path}: num_classes", FormatError)
    return _from_file(str(path), features, labels, num_classes, str(doc.get("split", "train")))


# ---------------------------------------------------------------------------
# Imbalancing and batching
# ---------------------------------------------------------------------------

def longtail_subsample(dataset: Dataset, factor: float, rng: RngStream) -> Dataset:
    """Impose an exponential head-to-tail class-size profile.

    Class c keeps round(N_c * mu**c) samples with mu = factor**(-1/(C-1)),
    so class 0 is untouched and the last class is factor times smaller.
    Selection within a class is a seeded draw without replacement; kept
    rows stay in their original order. A class never drops to zero: it
    is clamped to one sample with a warning.
    """
    if not factor >= 1.0:  # NaN fails too
        raise DomainError(f"imbalance factor must be >= 1, got {factor}")
    if factor == 1.0:
        return dataset
    c = dataset.num_classes
    mu = factor ** (-1.0 / (c - 1))
    keep: list[np.ndarray] = []
    for cls in range(c):
        idx = np.flatnonzero(dataset.labels == cls)
        if idx.size == 0:
            continue
        target = int(round(idx.size * mu**cls))
        if target < 1:
            warnings.warn(
                f"class {cls} would keep 0 of {idx.size} samples at factor {factor}; clamping to 1",
                stacklevel=2,
            )
            target = 1
        chosen = rng.child(f"longtail-{cls}").permutation(idx.size)[:target]
        keep.append(idx[chosen])
    kept = np.sort(np.concatenate(keep))
    return dataset.subset(kept)


def make_batches(
    dataset: Dataset, batch_size: int, epoch: int, seed: int, drop_last: bool = True
) -> list[np.ndarray]:
    """Shuffled index batches for one epoch, keyed by (seed, epoch).

    The shuffle comes from a child stream of the run seed labeled with
    the epoch, so epoch e always sees the same order no matter what was
    drawn before. With drop_last, a trailing partial batch is discarded.
    """
    n = len(dataset)
    if batch_size < 1 or batch_size > n:
        raise ConfigError(f"batch_size must lie in [1, {n}], got {batch_size}")
    perm = RngStream(seed).child(f"shuffle-{epoch}").permutation(n)
    batches = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
    if drop_last and batches and batches[-1].shape[0] < batch_size:
        batches.pop()
    return batches


# ---------------------------------------------------------------------------
# Dataset sections of a run config: one config dataclass per `kind`
# ---------------------------------------------------------------------------

# The least value of each bounded section field, whichever kinds have it
_FLOORS = {"classes": 2, "num_classes": 2, "dim": 1, "train_per_class": 1, "val_per_class": 1,
           "test_per_class": 1, "longtail_factor": 1.0, "seed": 0}


def _check_bounds(spec) -> None:
    """A section value no dataset can be built from raises ConfigError
    naming the key; `read_config` adds the file and the section."""
    convert_fields(spec)
    for key, floor in _FLOORS.items():
        value = getattr(spec, key, floor)
        if not value >= floor:  # NaN fails too
            raise ConfigError(f"{key}: must be >= {floor}, got {value}")
    if not getattr(spec, "spread", 1.0) > 0.0:
        raise ConfigError(f"spread: must be positive, got {spec.spread}")


def _source(kind: str, name: str, required: dict, **defaults) -> type:
    """A frozen config dataclass for dataset kind, its class attribute
    `kind` (not a field): the required fields, then the defaults (every
    kind also takes a split seed and a long-tail factor)."""
    defaults = {**defaults, "seed": 0, "longtail_factor": 1.0}
    entries = [*required.items(), *((key, type(value), value) for key, value in defaults.items())]
    return make_dataclass(name, entries, frozen=True, namespace={"kind": kind, "__post_init__": _check_bounds})


_SPLIT_FILES = {f"{split}_{part}": str for split in ("train", "val", "test") for part in ("images", "labels")}

DATASET_KINDS = {source.kind: source for source in (
    _source(
        "synthetic", "SyntheticSource",
        dict(classes=int, dim=int, train_per_class=int, val_per_class=int, test_per_class=int),
        spread=1.0, radius=3.0,
    ),
    _source("container", "ContainerSource", dict(train=str, val=str, test=str)),
    _source("idx", "IdxSource", _SPLIT_FILES),
    # train is one batch file or a list of them
    _source("cifar_bin", "CifarBinSource", dict(train=str | list, test=str, val_holdout=int), num_classes=10),
)}


def _data_file(value, key: str, base: Path, path: Path) -> str:
    """value, a data path of dataset key, made absolute against base; one
    that is not a string or names no file raises ConfigError naming path,
    the key and the data path."""
    if not isinstance(value, str):
        raise ConfigError(f"{path}: dataset.{key}: expected a file path string, got {value!r}")
    p = base / value
    if not p.is_file():
        raise ConfigError(f"{path}: dataset.{key}: data file not found: {p}")
    return str(p)


def read_dataset(section, path: Path):
    """The config of a dataset section, read from file path: one value,
    an instance of its kind's DATASET_KINDS dataclass, which carries the
    kind. Every string value of a dataset section, and every item of a
    list value (cifar_bin's `train`), names a data file. Each is checked
    here, once, and made absolute against path's directory, so the run
    document records where the data is wherever the run's outputs go."""
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError(f"{path}: dataset section must be an object with a 'kind' key")
    kind = section["kind"]
    if not isinstance(kind, str) or kind not in DATASET_KINDS:
        raise ConfigError(f"{path}: unknown dataset kind {kind!r}; expected one of {sorted(DATASET_KINDS)}")
    rest = {k: v for k, v in section.items() if k != "kind"}
    spec = read_config(DATASET_KINDS[kind], rest, f"{path}: dataset ({kind})")
    base = path.resolve().parent
    files = {}
    for key, value in vars(spec).items():
        if isinstance(value, str):
            files[key] = _data_file(value, key, base, path)
        elif isinstance(value, list):
            if not value:
                raise ConfigError(f"{path}: dataset.{key}: at least one batch file is required")
            files[key] = [_data_file(v, f"{key}[{i}]", base, path) for i, v in enumerate(value)]
    return replace(spec, **files)


def build_datasets(spec, config_path):
    """Materialize (train, val, test) Datasets from a dataset config of
    any kind as `read_dataset` returns it, its data files checked.
    config_path is the file the section came from, which errors name.
    """
    root = RngStream(spec.seed)
    splits = ("train", "val", "test")
    if spec.kind == "synthetic":
        train, val, test = (
            gen_synthetic_gaussians(
                spec.classes, spec.dim, getattr(spec, f"{split}_per_class"), spec.spread,
                root.child(f"synth-{split}"), split=split, radius=spec.radius,
            )
            for split in splits
        )
    elif spec.kind == "container":
        train, val, test = (load_dataset(getattr(spec, split)) for split in splits)
    elif spec.kind == "idx":
        loaded = [load_idx(getattr(spec, f"{s}_images"), getattr(spec, f"{s}_labels"), split=s) for s in splits]
        # one class count for the three splits: one more than the largest label of any
        classes = max(d.num_classes for d in loaded)
        train, val, test = (replace(d, num_classes=classes) for d in loaded)
    else:  # cifar_bin
        full = load_cifar_bin(spec.train, num_classes=spec.num_classes, split="train")
        holdout = spec.val_holdout
        if not (0 < holdout < len(full)):
            raise ConfigError(f"{config_path}: dataset.val_holdout: must lie in (0, {len(full)}), got {holdout}")
        perm = root.child("val-holdout").permutation(len(full))
        val = full.subset(np.sort(perm[:holdout]), split="val")
        train = full.subset(np.sort(perm[holdout:]), split="train")
        test = load_cifar_bin(spec.test, num_classes=spec.num_classes, split="test")
    if spec.longtail_factor != 1.0:
        train = longtail_subsample(train, spec.longtail_factor, root.child("longtail"))
    return train, val, test
