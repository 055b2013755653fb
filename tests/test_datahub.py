"""Dataset generation, file loaders, imbalancing and batching checks.

The IDX and CIFAR fixtures are assembled byte-by-byte in the tests, so
the parsers are checked against the format definitions rather than
against themselves. Container round-trips must be byte-identical.
"""

import json
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from exitweave import datahub
from exitweave.datahub import (
    Dataset,
    gen_synthetic_gaussians,
    load_cifar_bin,
    load_dataset,
    load_idx,
    longtail_subsample,
    make_batches,
    read_idx,
    save_dataset,
)
from exitweave.errors import ConfigError, DomainError, FormatError, ShapeError
from exitweave.numkit import RngStream
from exitweave.serial import dump_json


class TestDataset:
    def test_validation(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 2)), np.array([0.5, 1.0]), 2)
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)
        with pytest.raises(ConfigError):
            Dataset(np.zeros((2, 2)), np.array([0, 0]), 1)
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 2)), np.array([0]), 2)

    def test_accessors_and_subset(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 1, 0]), 2, "train")
        assert len(ds) == 4 and ds.dim == 2
        np.testing.assert_array_equal(np.bincount(ds.labels, minlength=2), [2, 2])
        sub = ds.subset(np.array([1, 3]), split="val")
        assert len(sub) == 2 and sub.split == "val"
        np.testing.assert_array_equal(sub.labels, [1, 0])


class TestSynthetic:
    def test_histogram_and_determinism(self):
        a = gen_synthetic_gaussians(5, 3, 7, 1.0, RngStream(1).child("d"))
        b = gen_synthetic_gaussians(5, 3, 7, 1.0, RngStream(1).child("d"))
        c = gen_synthetic_gaussians(5, 3, 7, 1.0, RngStream(2).child("d"))
        np.testing.assert_array_equal(np.bincount(a.labels, minlength=5), [7] * 5)
        np.testing.assert_array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_small_spread_is_separable(self):
        ds = gen_synthetic_gaussians(4, 2, 10, 1e-9, RngStream(3), radius=3.0)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        # nearest-mean classification is perfect at vanishing spread
        dists = np.linalg.norm(ds.features[:, None, :] - means[None], axis=2)
        np.testing.assert_array_equal(dists.argmin(axis=1), ds.labels)

    def test_one_dimensional_layout(self):
        ds = gen_synthetic_gaussians(3, 1, 5, 1e-6, RngStream(4), radius=2.0)
        centers = [ds.features[ds.labels == c, 0].mean() for c in range(3)]
        np.testing.assert_allclose(centers, [-2.0, 0.0, 2.0], atol=1e-3)

    def test_noise_dimensions_are_centered(self):
        ds = gen_synthetic_gaussians(4, 6, 500, 1.0, RngStream(5))
        np.testing.assert_allclose(ds.features[:, 2:].mean(axis=0), np.zeros(4), atol=0.2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            gen_synthetic_gaussians(1, 2, 5, 1.0, RngStream(0))
        with pytest.raises(DomainError):
            gen_synthetic_gaussians(3, 2, 5, 0.0, RngStream(0))

    def test_zero_dim(self):
        with pytest.raises(ConfigError, match="dim and per_class must be >= 1"):
            gen_synthetic_gaussians(3, 0, 5, 1.0, RngStream(0))

    @pytest.mark.parametrize("num_classes", [-1, 0, 1])
    def test_class_count_below_two(self, num_classes):
        with pytest.raises(ConfigError, match=rf"num_classes: need >= 2 classes, got {num_classes}"):
            gen_synthetic_gaussians(num_classes, 2, 5, 1.0, RngStream(0))


def idx_bytes(code: int, shape, payload: bytes) -> bytes:
    return bytes([0, 0, code, len(shape)]) + struct.pack(f">{len(shape)}i", *shape) + payload


class TestIdx:
    def test_hand_built_fixture_roundtrip(self, tmp_path):
        # two 2x3 uint8 images and matching labels, assembled by hand
        pixels = bytes([0, 51, 102, 153, 204, 255, 10, 20, 30, 40, 50, 60])
        img_path = tmp_path / "imgs.idx"
        img_path.write_bytes(idx_bytes(0x08, (2, 2, 3), pixels))
        lbl_path = tmp_path / "lbls.idx"
        lbl_path.write_bytes(idx_bytes(0x08, (2,), bytes([1, 0])))
        ds = load_idx(img_path, lbl_path)
        assert ds.dim == 6 and len(ds) == 2
        np.testing.assert_allclose(
            ds.features[0], np.array([0, 51, 102, 153, 204, 255]) / 255.0, atol=1e-15
        )
        np.testing.assert_allclose(
            ds.features[1], np.array([10, 20, 30, 40, 50, 60]) / 255.0, atol=1e-15
        )
        np.testing.assert_array_equal(ds.labels, [1, 0])
        assert ds.num_classes == 2

    def test_negative_label_names_the_file(self, tmp_path):
        # int8 labels may hold -1; Dataset's own error named no file
        img_path = tmp_path / "imgs.idx"
        img_path.write_bytes(idx_bytes(0x08, (3, 2), bytes(6)))
        lbl_path = tmp_path / "lbls.idx"
        lbl_path.write_bytes(idx_bytes(0x09, (3,), struct.pack(">3b", 0, 2, -1)))
        with pytest.raises(FormatError, match=rf"{lbl_path}: labels: label -1 out of range"):
            load_idx(img_path, lbl_path)

    def test_zero_samples_names_the_image_file(self, tmp_path):
        # a (0, 2) image tensor used to reach reshape(0, -1): a bare ValueError
        img_path = tmp_path / "imgs.idx"
        img_path.write_bytes(idx_bytes(0x08, (0, 2), b""))
        lbl_path = tmp_path / "lbls.idx"
        lbl_path.write_bytes(idx_bytes(0x08, (0,), b""))
        with pytest.raises(FormatError, match=rf"{img_path}: no samples"):
            load_idx(img_path, lbl_path)

    def test_one_class_names_the_label_file(self, tmp_path):
        # all-zero labels give one class; Dataset's ConfigError named no file
        img_path = tmp_path / "imgs.idx"
        img_path.write_bytes(idx_bytes(0x08, (3, 2), bytes(6)))
        lbl_path = tmp_path / "lbls.idx"
        lbl_path.write_bytes(idx_bytes(0x08, (3,), bytes(3)))
        with pytest.raises(FormatError, match=rf"{lbl_path}: num_classes: need >= 2 classes, got 1"):
            load_idx(img_path, lbl_path)

    def test_label_tensor_shape_names_both_files(self, tmp_path):
        # a (3, 1) label tensor reaches Dataset, whose error is re-raised naming the pair
        img_path = tmp_path / "imgs.idx"
        img_path.write_bytes(idx_bytes(0x08, (3, 2), bytes(6)))
        lbl_path = tmp_path / "lbls.idx"
        lbl_path.write_bytes(idx_bytes(0x08, (3, 1), bytes([0, 1, 1])))
        with pytest.raises(FormatError, match=rf"{img_path} with {lbl_path}: labels: shape \(3, 1\)"):
            load_idx(img_path, lbl_path)

    def test_big_endian_int32_payload(self, tmp_path):
        path = tmp_path / "t.idx"
        path.write_bytes(idx_bytes(0x0C, (2, 2), struct.pack(">4i", 1, -2, 300, 70000)))
        arr = read_idx(path)
        np.testing.assert_array_equal(arr, [[1, -2], [300, 70000]])

    def test_float_payload_not_rescaled(self, tmp_path):
        img = tmp_path / "f.idx"
        img.write_bytes(idx_bytes(0x0D, (2, 2), struct.pack(">4f", 0.5, 1.5, -1.0, 2.0)))
        lbl = tmp_path / "l.idx"
        lbl.write_bytes(idx_bytes(0x08, (2,), bytes([0, 1])))
        ds = load_idx(img, lbl)
        np.testing.assert_allclose(ds.features, [[0.5, 1.5], [-1.0, 2.0]], atol=1e-7)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.idx"
        # header 4 + 12 dims = 16 bytes, payload promises 12 -> 28 total;
        # writing 11 payload bytes stops the file at byte 27
        path.write_bytes(idx_bytes(0x08, (2, 2, 3), bytes(11)))
        with pytest.raises(FormatError, match="byte 27"):
            read_idx(path)

    def test_bad_magic_and_dtype(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(bytes([1, 0, 0x08, 1, 0, 0, 0, 0]))
        with pytest.raises(FormatError, match="magic"):
            read_idx(path)
        path.write_bytes(bytes([0, 0, 0x42, 1]) + struct.pack(">i", 0))
        with pytest.raises(FormatError, match="0x42"):
            read_idx(path)

    def test_zero_ndim(self, tmp_path):
        path = tmp_path / "scalar.idx"
        path.write_bytes(bytes([0, 0, 0x08, 0]) + bytes(1))
        with pytest.raises(FormatError, match=rf"{path}: IDX ndim must be >= 1, got 0"):
            read_idx(path)

    def test_header_cut_inside_its_dims(self, tmp_path):
        # ndim 2 promises 8 bytes of dims after the magic; 6 are there
        path = tmp_path / "dims.idx"
        path.write_bytes(bytes([0, 0, 0x08, 2]) + struct.pack(">i", 3) + bytes(2))
        with pytest.raises(FormatError, match=rf"{path}: truncated IDX dims at byte 10"):
            read_idx(path)

    def test_negative_dim(self, tmp_path):
        path = tmp_path / "neg.idx"
        path.write_bytes(idx_bytes(0x08, (2, -1), b""))
        with pytest.raises(FormatError, match=rf"{path}: negative IDX dimension \(2, -1\)"):
            read_idx(path)

    def test_one_dimensional_images(self, tmp_path):
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        img.write_bytes(idx_bytes(0x08, (3,), bytes(3)))
        lbl.write_bytes(idx_bytes(0x08, (3,), bytes([0, 1, 1])))
        with pytest.raises(FormatError, match=rf"{img}: image tensor must have >= 2 dims, got 1"):
            load_idx(img, lbl)

    def test_float_labels(self, tmp_path):
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        img.write_bytes(idx_bytes(0x08, (2, 2), bytes(4)))
        lbl.write_bytes(idx_bytes(0x0D, (2,), struct.pack(">2f", 0.0, 1.0)))
        with pytest.raises(FormatError, match=rf"{lbl}: labels must be an integer IDX tensor"):
            load_idx(img, lbl)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "hdr.idx"
        path.write_bytes(bytes([0, 0]))
        with pytest.raises(FormatError, match="truncated"):
            read_idx(path)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "i.idx"
        img.write_bytes(idx_bytes(0x08, (2, 2), bytes(4)))
        lbl = tmp_path / "l.idx"
        lbl.write_bytes(idx_bytes(0x08, (3,), bytes(3)))
        with pytest.raises(FormatError, match="image count 2 != label count 3"):
            load_idx(img, lbl)

    def test_element_count_past_int64_names_the_file(self, tmp_path):
        # 65536**4 = 2**64 elements wrapped to 0 in an int64 product, so a
        # header with no payload passed the length check and reshape raised
        # a bare ValueError
        path = tmp_path / "huge.idx"
        path.write_bytes(idx_bytes(0x08, (65536,) * 4, b""))
        with pytest.raises(FormatError, match=rf"{path}: IDX payload length mismatch at byte 20"):
            read_idx(path)


class TestCifarBin:
    def test_hand_built_records(self, tmp_path):
        rec1 = bytes([3]) + bytes([7]) * 3072
        rec2 = bytes([0]) + bytes(range(256)) * 12
        path = tmp_path / "batch.bin"
        path.write_bytes(rec1 + rec2)
        ds = load_cifar_bin(path, num_classes=10)
        assert len(ds) == 2 and ds.dim == 3072
        np.testing.assert_array_equal(ds.labels, [3, 0])
        np.testing.assert_allclose(ds.features[0], np.full(3072, 7 / 255.0), atol=1e-15)
        np.testing.assert_allclose(ds.features[1][:4], np.arange(4) / 255.0, atol=1e-15)

    def test_multiple_files_concatenate_in_order(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        a.write_bytes(bytes([1]) + bytes(3072))
        b.write_bytes(bytes([2]) + bytes(3072))
        ds = load_cifar_bin([a, b], num_classes=3)
        np.testing.assert_array_equal(ds.labels, [1, 2])

    def test_trailing_fragment_reports_offset(self, tmp_path):
        path = tmp_path / "frag.bin"
        path.write_bytes(bytes(3073) + bytes(10))
        with pytest.raises(FormatError, match="byte 3073"):
            load_cifar_bin(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lbl.bin"
        path.write_bytes(bytes([9]) + bytes(3072))
        with pytest.raises(FormatError, match="out of range"):
            load_cifar_bin(path, num_classes=5)

    def test_label_error_names_the_file(self, tmp_path):
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        good.write_bytes(bytes([3]) + bytes(3072))
        bad.write_bytes(bytes([1]) + bytes(3072) + bytes([12]) + bytes(3072))
        with pytest.raises(FormatError, match=rf"{bad}: labels: label 12 out of range \[0, 10\)"):
            load_cifar_bin([good, bad], num_classes=10)

    def test_label_error_names_the_middle_file(self, tmp_path):
        first, bad, last = tmp_path / "first.bin", tmp_path / "bad.bin", tmp_path / "last.bin"
        first.write_bytes(bytes([3]) + bytes(3072))
        bad.write_bytes(bytes([1]) + bytes(3072) + bytes([12]) + bytes(3072))
        last.write_bytes(bytes([4]) + bytes(3072))
        with pytest.raises(FormatError, match=rf"{re.escape(str(bad))}: labels: label 12 out of range \[0, 10\)"):
            load_cifar_bin([first, bad, last], num_classes=10)

    def test_good_files_are_checked_once(self, tmp_path, monkeypatch):
        # the concatenation is the one Dataset built; no file is checked on its own
        checked = []

        class CountingDataset(datahub.Dataset):
            def __post_init__(self):
                checked.append(len(self.labels))
                super().__post_init__()

        monkeypatch.setattr(datahub, "Dataset", CountingDataset)
        paths = [tmp_path / f"{i}.bin" for i in range(3)]
        for i, path in enumerate(paths):
            path.write_bytes((bytes([i]) + bytes(3072)) * (i + 1))
        ds = load_cifar_bin(paths, num_classes=10)
        assert checked == [6]
        np.testing.assert_array_equal(ds.labels, [0, 1, 1, 2, 2, 2])

    def test_requires_at_least_one_file(self):
        with pytest.raises(ConfigError):
            load_cifar_bin([])


class TestContainer:
    def test_round_trip_byte_identical(self, tmp_path):
        ds = gen_synthetic_gaussians(3, 4, 6, 1.0, RngStream(6), split="val")
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_dataset(p1, ds)
        loaded = load_dataset(p1)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == ds.num_classes and loaded.split == "val"
        save_dataset(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_wrong_format_and_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(dump_json({"format": "something-else", "version": 1}))
        with pytest.raises(FormatError, match="format"):
            load_dataset(path)
        path.write_text(dump_json({"format": "exitweave-dataset", "version": 99}))
        with pytest.raises(FormatError, match="version"):
            load_dataset(path)

    def test_label_error_names_the_file(self, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(path, gen_synthetic_gaussians(3, 4, 2, 1.0, RngStream(6)))
        doc = json.loads(path.read_text())
        doc["labels"][1] = 7
        path.write_text(dump_json(doc))
        with pytest.raises(FormatError, match=rf"{path}: labels: label 7 out of range \[0, 3\)"):
            load_dataset(path)

    def test_one_class_names_the_file(self, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(path, gen_synthetic_gaussians(3, 4, 2, 1.0, RngStream(6)))
        doc = json.loads(path.read_text())
        doc["num_classes"] = 1
        doc["labels"] = [0] * len(doc["labels"])
        path.write_text(dump_json(doc))
        with pytest.raises(FormatError, match=rf"{path}: num_classes: need >= 2 classes, got 1"):
            load_dataset(path)

    def test_labels_not_a_list(self, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(path, gen_synthetic_gaussians(3, 4, 2, 1.0, RngStream(6)))
        doc = json.loads(path.read_text())
        doc["labels"] = {"0": 1}
        path.write_text(dump_json(doc))
        with pytest.raises(FormatError, match=rf"{path}: labels: expected a list of integers"):
            load_dataset(path)

    def test_label_beyond_int64(self, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(path, gen_synthetic_gaussians(3, 4, 2, 1.0, RngStream(6)))
        doc = json.loads(path.read_text())
        doc["labels"][0] = 2**63
        path.write_text(dump_json(doc))
        with pytest.raises(FormatError, match=rf"{path}: labels: "):
            load_dataset(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_dataset(path)


class TestLongtail:
    @staticmethod
    def balanced(per_class=400, classes=10):
        labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
        feats = RngStream(7).standard_normal((labels.shape[0], 3))
        return Dataset(feats, labels, classes)

    def test_factor_one_is_identity(self):
        ds = self.balanced()
        assert longtail_subsample(ds, 1.0, RngStream(8)) is ds

    def test_counts_follow_exponential_rule(self):
        ds = self.balanced(per_class=400, classes=10)
        out = longtail_subsample(ds, 100.0, RngStream(9))
        mu = 100.0 ** (-1.0 / 9.0)
        expected = [int(round(400 * mu**c)) for c in range(10)]
        counts = np.bincount(out.labels, minlength=out.num_classes)
        np.testing.assert_array_equal(counts, expected)
        assert np.all(np.diff(counts) <= 0)
        assert counts[0] == 400 and counts[-1] == 4

    def test_mu_closed_form(self):
        # C=100, F=100 -> mu = 100**(-1/99)
        mu = 100.0 ** (-1.0 / 99.0)
        assert abs(mu - 0.95455) < 1e-3

    def test_deterministic_and_order_preserving(self):
        ds = self.balanced(per_class=50, classes=4)
        a = longtail_subsample(ds, 10.0, RngStream(10))
        b = longtail_subsample(ds, 10.0, RngStream(10))
        np.testing.assert_array_equal(a.features, b.features)
        kept = [np.flatnonzero((ds.features == row).all(axis=1))[0] for row in a.features]
        assert kept == sorted(kept)

    def test_clamps_to_one_with_warning(self):
        ds = self.balanced(per_class=5, classes=4)
        with pytest.warns(UserWarning, match="clamping to 1"):
            out = longtail_subsample(ds, 200.0, RngStream(11))
        assert np.bincount(out.labels, minlength=out.num_classes).min() == 1

    def test_rejects_factor_below_one(self):
        with pytest.raises(DomainError):
            longtail_subsample(self.balanced(), 0.5, RngStream(12))

    @pytest.mark.parametrize("factor", [float("nan"), -float("inf")])
    def test_rejects_factor_that_is_not_a_number_at_least_one(self, factor):
        # NaN passed `factor < 1` and failed later as a bare ValueError
        with pytest.raises(DomainError, match="imbalance factor"):
            longtail_subsample(self.balanced(), factor, RngStream(12))


class TestMakeBatches:
    @staticmethod
    def dataset(n=23):
        labels = np.zeros(n, dtype=np.int64)
        labels[: n // 2] = 1
        return Dataset(RngStream(13).standard_normal((n, 2)), labels, 2)

    def test_same_seed_epoch_reproduces(self):
        ds = self.dataset()
        a = make_batches(ds, 4, epoch=3, seed=5)
        b = make_batches(ds, 4, epoch=3, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_different_epochs_differ(self):
        ds = self.dataset()
        a = np.concatenate(make_batches(ds, 4, epoch=0, seed=5, drop_last=False))
        b = np.concatenate(make_batches(ds, 4, epoch=1, seed=5, drop_last=False))
        assert not np.array_equal(a, b)

    def test_permutation_property(self):
        ds = self.dataset(20)
        batches = make_batches(ds, 5, epoch=2, seed=9)
        joined = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(joined), np.arange(20))

    def test_drop_last_behavior(self):
        ds = self.dataset(23)
        dropped = make_batches(ds, 4, epoch=0, seed=0, drop_last=True)
        kept = make_batches(ds, 4, epoch=0, seed=0, drop_last=False)
        assert len(dropped) == 5 and all(len(b) == 4 for b in dropped)
        assert len(kept) == 6 and len(kept[-1]) == 3

    def test_batch_size_validation(self):
        ds = self.dataset(10)
        with pytest.raises(ConfigError):
            make_batches(ds, 0, epoch=0, seed=0)
        with pytest.raises(ConfigError):
            make_batches(ds, 11, epoch=0, seed=0)


def test_each_dataset_kind_carries_its_kind():
    # kind is a class attribute, not a field: the section's other keys are the whole config document
    for kind, source in datahub.DATASET_KINDS.items():
        assert source.kind == kind
        assert "kind" not in {f.name for f in fields(source)}
