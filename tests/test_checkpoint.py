"""Serialization and checkpoint round trips.

Array payloads are base64-wrapped little-endian float64, and documents
are written with sorted keys and a fixed indent, so identical state must
serialize to identical bytes. Round trips are therefore checked at the
byte level, not just value level.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from exitweave.backbone import BackboneConfig, init_params
from exitweave.checkpoint import load_run_checkpoint, save_run_checkpoint
from exitweave.errors import CompatibilityError, FormatError
from exitweave.numkit import RngStream
from exitweave.serial import decode_array, dump_json, encode_array, read_json
from exitweave.trainer import TrainConfig, TrainState
from exitweave.wpn import AdamState, WpnConfig, init_wpn


class TestSerial:
    def test_array_round_trip_exact(self):
        arr = RngStream(0).standard_normal((7, 3))
        doc = encode_array(arr)
        back = decode_array(doc, "x")
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr)

    def test_special_values_survive(self):
        arr = np.array([0.0, -0.0, 1e-308, 1.7976931348623157e308, np.pi])
        back = decode_array(encode_array(arr), "x")
        np.testing.assert_array_equal(back, arr)
        assert np.signbit(back[1])

    def test_dump_is_deterministic_and_sorted(self):
        a = dump_json({"b": 1, "a": [1.5, 2]})
        b = dump_json({"a": [1.5, 2], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert a.index('"a"') < a.index('"b"')

    def test_decode_rejects_garbage(self):
        with pytest.raises(FormatError):
            decode_array({"shape": [2], "data": "!!notbase64!!"}, "x")

    def test_decode_rejects_wrong_length(self):
        doc = encode_array(np.zeros(4))
        doc["shape"] = [5]
        with pytest.raises(FormatError):
            decode_array(doc, "x")


BB = BackboneConfig(4, (5, 4), 3)
WPN = WpnConfig(2, hidden_width=6, hidden_depth=2, delta=0.7)


class TestRunContainer:
    def make_state(self, with_wpn=True):
        backbone = init_params(BB, RngStream(8).child("b"))
        velocity = RngStream(8).child("v").standard_normal(backbone.num_params)
        if with_wpn:
            wpn = init_wpn(WPN, RngStream(8).child("w"))
            adam = AdamState(
                m=RngStream(8).child("m").standard_normal(wpn.num_params),
                v=np.abs(RngStream(8).child("vv").standard_normal(wpn.num_params)),
                step=17,
            )
        else:
            wpn, adam = None, None
        return TrainState(backbone=backbone, wpn=wpn, velocity=velocity,
                          adam=adam, iteration=42)

    def test_interrupted_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        # the write stops halfway: the old checkpoint must survive whole, with no file left beside it
        cfg = TrainConfig(epochs=3, batch_size=8, alpha=0.2, variant="learned")
        path = tmp_path / "checkpoint.json"
        save_run_checkpoint(path, self.make_state(), cfg)
        old = path.read_bytes()

        def half_write(self, text, *args, **kwargs):
            with open(self, "w") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_write)
        state = self.make_state()
        state.iteration = 43
        with pytest.raises(OSError, match="disk full"):
            save_run_checkpoint(path, state, cfg)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert load_run_checkpoint(path)[0].iteration == 42
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_full_round_trip(self, tmp_path):
        state = self.make_state()
        cfg = TrainConfig(epochs=3, batch_size=8, alpha=0.2, q=0.6, seed=9,
                          interval=2, variant="learned")
        path = tmp_path / "run.json"
        save_run_checkpoint(path, state, cfg)
        loaded_state, loaded_cfg = load_run_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded_state.iteration == 42
        np.testing.assert_array_equal(loaded_state.backbone.flatten(), state.backbone.flatten())
        np.testing.assert_array_equal(loaded_state.wpn.flatten(), state.wpn.flatten())
        np.testing.assert_array_equal(loaded_state.velocity, state.velocity)
        np.testing.assert_array_equal(loaded_state.adam.m, state.adam.m)
        np.testing.assert_array_equal(loaded_state.adam.v, state.adam.v)
        assert loaded_state.adam.step == 17
        save_run_checkpoint(tmp_path / "run2.json", loaded_state, loaded_cfg)
        assert (tmp_path / "run2.json").read_bytes() == path.read_bytes()

    def test_baseline_round_trip_without_wpn(self, tmp_path):
        state = self.make_state(with_wpn=False)
        cfg = TrainConfig(epochs=1, batch_size=4, alpha=0.1, variant="baseline")
        path = tmp_path / "run.json"
        save_run_checkpoint(path, state, cfg)
        loaded_state, loaded_cfg = load_run_checkpoint(path)
        assert loaded_state.wpn is None and loaded_state.adam is None
        assert loaded_cfg.variant == "baseline"
        np.testing.assert_array_equal(loaded_state.velocity, state.velocity)

    def test_velocity_length_mismatch_rejected(self, tmp_path):
        state = self.make_state()
        cfg = TrainConfig(epochs=1, batch_size=4, alpha=0.1)
        path = tmp_path / "run.json"
        save_run_checkpoint(path, state, cfg)
        doc = read_json(path)
        doc["optimizer"]["velocity"] = encode_array(np.zeros(3))
        path.write_text(dump_json(doc))
        with pytest.raises(CompatibilityError):
            load_run_checkpoint(path)

    def test_adam_length_mismatch_rejected(self, tmp_path):
        state = self.make_state()
        cfg = TrainConfig(epochs=1, batch_size=4, alpha=0.1)
        path = tmp_path / "run.json"
        save_run_checkpoint(path, state, cfg)
        doc = read_json(path)
        doc["optimizer"]["adam_m"] = encode_array(np.zeros(2))
        path.write_text(dump_json(doc))
        with pytest.raises(CompatibilityError):
            load_run_checkpoint(path)

    def test_no_float_values_printed_in_decimal(self, tmp_path):
        # params live only in base64 buffers, so the document text must not
        # contain long decimal float literals that could round differently
        state = self.make_state()
        cfg = TrainConfig(epochs=1, batch_size=4, alpha=0.1)
        path = tmp_path / "run.json"
        save_run_checkpoint(path, state, cfg)
        doc = json.loads(path.read_text())
        assert isinstance(doc["backbone"]["params"]["data"], str)
        assert isinstance(doc["wpn"]["params"]["data"], str)


class TestMalformedRunCheckpoint:
    def saved(self, tmp_path):
        path = tmp_path / "run.json"
        save_run_checkpoint(path, TestRunContainer().make_state(), TrainConfig(epochs=1, batch_size=4, alpha=0.1))
        return path, read_json(path)

    def load_error(self, path, doc) -> str:
        path.write_text(dump_json(doc))
        with pytest.raises(FormatError) as err:
            load_run_checkpoint(path)
        return str(err.value)

    @pytest.mark.parametrize("edit, error, words", [
        (lambda d: d.update(format="something-else"), FormatError, ["format", "something-else"]),
        (lambda d: d.update(version=99), FormatError, ["version", "99"]),
        (lambda d: d["backbone"].update(params=encode_array(np.zeros(4))), CompatibilityError,
         ["backbone", "entries"]),
        (None, FormatError, ["not valid JSON"]),
        # the weight network alone, as its own container: a run checkpoint is the only model document
        (lambda d: {"format": "exitweave-wpn", "version": 1, **d["wpn"]}, FormatError, ["exitweave-wpn"]),
        # Adam moments with nothing to step: the writer never writes them without a weight network
        (lambda d: d.update(wpn=None), CompatibilityError, ["optimizer", "Adam", "no weight network"]),
    ], ids=["wrong-format", "future-version", "backbone-params-length", "invalid-json", "standalone-wpn",
            "adam-without-wpn"])
    def test_rejected_container(self, tmp_path, edit, error, words):
        path, doc = self.saved(tmp_path)
        path.write_text("{not json" if edit is None else dump_json(edit(doc) or doc))
        with pytest.raises(error) as err:
            load_run_checkpoint(path)
        assert str(path) in str(err.value) and all(w in str(err.value) for w in words), err.value

    def test_missing_train_field_names_file_section_and_key(self, tmp_path):
        path, doc = self.saved(tmp_path)
        del doc["train_config"]["beta"]
        msg = self.load_error(path, doc)
        assert str(path) in msg and "train_config" in msg and "beta" in msg

    def test_missing_backbone_field(self, tmp_path):
        path, doc = self.saved(tmp_path)
        del doc["backbone"]["config"]["trunk_widths"]
        msg = self.load_error(path, doc)
        assert str(path) in msg and "backbone.config" in msg and "trunk_widths" in msg

    def test_unreadable_wpn_field(self, tmp_path):
        path, doc = self.saved(tmp_path)
        doc["wpn"]["config"]["hidden_width"] = "abc"
        msg = self.load_error(path, doc)
        assert str(path) in msg and "wpn.config" in msg and "hidden_width" in msg

    def test_unknown_train_field(self, tmp_path):
        path, doc = self.saved(tmp_path)
        doc["train_config"]["learning_rate"] = 0.1
        assert "learning_rate" in self.load_error(path, doc)

    def test_train_field_read_lossily(self, tmp_path):
        # int() would read an interval of 2.5 as 2
        path, doc = self.saved(tmp_path)
        doc["train_config"]["interval"] = 2.5
        msg = self.load_error(path, doc)
        assert str(path) in msg and "train_config: interval" in msg and "2.5" in msg

    def test_boolean_float_field_names_the_key(self, tmp_path):
        # float() would read true as 1.0
        path, doc = self.saved(tmp_path)
        doc["train_config"]["beta"] = True
        msg = self.load_error(path, doc)
        assert str(path) in msg and "train_config: beta" in msg

    def test_missing_iteration(self, tmp_path):
        # every writer wrote the iteration counter, so a missing one is not read as 0
        path, doc = self.saved(tmp_path)
        del doc["iteration"]
        msg = self.load_error(path, doc)
        assert str(path) in msg and "iteration" in msg

    def test_missing_adam_m(self, tmp_path):
        path, doc = self.saved(tmp_path)
        del doc["optimizer"]["adam_m"]
        msg = self.load_error(path, doc)
        assert str(path) in msg and "optimizer" in msg and "adam_m" in msg

    def test_missing_adam_step(self, tmp_path):
        path, doc = self.saved(tmp_path)
        del doc["optimizer"]["adam_step"]
        msg = self.load_error(path, doc)
        assert str(path) in msg and "optimizer" in msg and "adam_step" in msg

    @pytest.mark.parametrize("where", ["adam_step", "iteration"])
    def test_unreadable_counter(self, tmp_path, where):
        path, doc = self.saved(tmp_path)
        (doc["optimizer"] if where == "adam_step" else doc)[where] = "abc"
        msg = self.load_error(path, doc)
        assert str(path) in msg and where in msg and "abc" in msg

    def test_backbone_not_an_object(self, tmp_path):
        path, doc = self.saved(tmp_path)
        doc["backbone"] = []
        assert f"{path}: backbone: expected a JSON object" in self.load_error(path, doc)

    def test_optimizer_not_an_object(self, tmp_path):
        path, doc = self.saved(tmp_path)
        doc["optimizer"] = []
        msg = self.load_error(path, doc)
        assert str(path) in msg and "optimizer" in msg

    def test_adam_v_of_wrong_length(self, tmp_path):
        path, doc = self.saved(tmp_path)
        doc["optimizer"]["adam_v"] = encode_array(np.zeros(3))
        path.write_text(dump_json(doc))
        with pytest.raises(CompatibilityError, match="Adam"):
            load_run_checkpoint(path)

    def test_missing_scatter_cap_names_the_key(self, tmp_path):
        # every writer wrote every train_config field, so no key reads a default
        path, doc = self.saved(tmp_path)
        del doc["train_config"]["scatter_cap"]
        msg = self.load_error(path, doc)
        assert str(path) in msg and "train_config" in msg and "scatter_cap" in msg

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_train_field_names_the_key(self, tmp_path, value):
        path, doc = self.saved(tmp_path)
        doc["train_config"]["q"] = value
        msg = self.load_error(path, doc)
        assert str(path) in msg and "train_config: q" in msg and "finite" in msg
