"""Command-line behavior: exit codes, emitted files, and reproducibility.

Everything runs in-process through main(argv) so exit codes and stderr
text can be asserted directly. The console-script tests are the exception:
they run the entry point that pyproject.toml declares in a subprocess, the
way an installed `exitweave` wrapper runs it.
"""

import hashlib
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from exitweave.cli import main
from exitweave.errors import FormatError
from exitweave.serial import encode_array


# a train section whose run overflows within its first epoch
DIVERGENT_TRAIN = {"epochs": 50, "batch_size": 10, "alpha": 1e8, "variant": "baseline",
                   "momentum": 0.0, "weight_decay": 0.0, "lr_schedule": "constant"}


def write_config(path, **overrides):
    doc = {
        "dataset": {
            "kind": "synthetic",
            "classes": 3,
            "dim": 4,
            "train_per_class": 20,
            "val_per_class": 8,
            "test_per_class": 8,
            "spread": 1.0,
            "seed": 1,
        },
        "backbone": {"trunk_widths": [6, 5]},
        "wpn": {"hidden_width": 8, "delta": 0.6},
        "train": {"epochs": 2, "batch_size": 10, "alpha": 0.1, "seed": 3},
    }
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))
    return doc


class TestTrain:
    def test_writes_outputs_and_succeeds(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("resolved_config.json", "checkpoint.json", "history.json"):
            assert (out / name).is_file(), name
        hist = json.loads((out / "history.json").read_text())
        assert hist["format"] == "exitweave-history"
        assert hist["version"] == 1
        assert len(hist["run_id"]) == 12
        assert hist["run_id"] == hist["config_hash"][:12]
        assert len(hist["epochs"]) == 2
        # 60 train samples, batch 10 -> 6 iterations per epoch
        assert len(hist["iterations"]) == 12
        assert "outputs in" in capsys.readouterr().out

    def test_rerun_reproduces_history_bytes(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "history.json").read_bytes() == (b / "history.json").read_bytes()
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_seed_override_changes_hash_and_history(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(b), "--seed", "9"]) == 0
        ha = json.loads((a / "history.json").read_text())
        hb = json.loads((b / "history.json").read_text())
        assert ha["config_hash"] != hb["config_hash"]

    def test_missing_config_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["train", "--config", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        doc["train"]["learning_rate"] = 0.1  # wrong name
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_missing_required_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        del doc["train"]["alpha"]
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{broken")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_divergent_run_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, train=DIVERGENT_TRAIN)
        with np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "diverged" in capsys.readouterr().err

    def test_network_too_large_to_allocate_exits_1(self, tmp_path, capsys):
        # a 10**15-wide block lies past any address space, so numpy refuses at once
        cfg = tmp_path / "run.json"
        write_config(cfg, backbone={"trunk_widths": [8, 10**15]})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: out of memory: ")

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, extra=1)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}: unknown section(s): extra" in capsys.readouterr().err

    def test_missing_section_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset=None)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}: missing required section(s): dataset" in capsys.readouterr().err

    def test_section_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, wpn=[])
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{cfg}: wpn: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["wpn", "output"])
    def test_null_optional_section_reads_as_the_defaults(self, tmp_path, section):
        # "output": null exited 2 with "output: expected a JSON object"
        absent, null = tmp_path / "absent.json", tmp_path / "null.json"
        doc = write_config(absent, **{section: None})
        null.write_text(json.dumps({**doc, section: None}))
        for cfg in (absent, null):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
        resolved = [(tmp_path / name / "resolved_config.json").read_bytes() for name in ("absent", "null")]
        assert resolved[0] == resolved[1]

    def test_config_hash_ignores_output_section(self, tmp_path):
        # output.dir says where a run goes, not what it is
        cfg = tmp_path / "run.json"
        hashes = []
        for name in ("a", "b"):
            write_config(cfg, output={"dir": str(tmp_path / name)})
            assert main(["train", "--config", str(cfg)]) == 0
            hashes.append(json.loads((tmp_path / name / "history.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "run.json"
    write_config(cfg)
    out = root / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestEval:
    def test_writes_metrics_and_curves(self, trained, tmp_path, capsys):
        out = tmp_path / "ev"
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.json"),
                   "--out", str(out), "--q-grid", "0.3,0.8,1.5"])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["format"] == "exitweave-metrics"
        assert metrics["variant"] == "learned"
        assert [r["q"] for r in metrics["dynamic"]] == [0.3, 0.8, 1.5]
        assert len(metrics["anytime"]["accuracy"]) == 2
        assert metrics["anytime"]["exit_muladds"][0] < metrics["anytime"]["exit_muladds"][1]
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "q,accuracy,expected_muladds,exit_count_1,exit_count_2,threshold_1,threshold_2"
        assert len(lines) == 4

    def test_reeval_is_byte_identical(self, trained, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["eval", "--checkpoint", str(trained / "checkpoint.json"), "--q-grid", "0.2:1.4:7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()

    def test_range_grid_parsed(self, trained, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.json"),
                     "--out", str(out), "--q-grid", "0.5:2.0:4"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        np.testing.assert_allclose([r["q"] for r in metrics["dynamic"]], [0.5, 1.0, 1.5, 2.0])

    def test_explicit_dataset_flag(self, trained, tmp_path):
        ds = tmp_path / "data.json"
        write_config(ds)  # full config works; only the dataset section is read
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.json"),
                     "--dataset", str(ds), "--out", str(out), "--q-grid", "1.0"]) == 0

    def test_dataset_shape_mismatch_exits_2(self, trained, tmp_path, capsys):
        ds = tmp_path / "data.json"
        doc = write_config(ds)
        doc["dataset"]["dim"] = 7
        ds.write_text(json.dumps(doc))
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.json"),
                   "--dataset", str(ds), "--out", str(tmp_path / "ev"), "--q-grid", "1.0"])
        assert rc == 2
        assert "dim" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        path = tmp_path / "none.json"
        assert main(["eval", "--checkpoint", str(path)]) == 2
        assert f"{path}: file not found" in capsys.readouterr().err

    def test_checkpoint_directory_exits_2(self, tmp_path, capsys):
        # the pre-check said "checkpoint file not found" of a directory that exists
        assert main(["eval", "--checkpoint", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path}: cannot read" in err and "not found" not in err, err

    def test_bad_grid_exits_2(self, trained, tmp_path, capsys):
        base = ["eval", "--checkpoint", str(trained / "checkpoint.json"), "--out", str(tmp_path / "x")]
        assert main(base + ["--q-grid", "0.1:2.0"]) == 2
        assert main(base + ["--q-grid=-1.0,0.5"]) == 2
        assert main(base + ["--q-grid", "abc"]) == 2
        assert main(base + ["--q-grid", "1:2:0"]) == 2
        assert "--q-grid count must be >= 1" in capsys.readouterr().err

    def test_checkpoint_without_resolved_config_names_the_file(self, trained, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.json"
        shutil.copy(trained / "checkpoint.json", ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path.resolve() / 'resolved_config.json'}: file not found" in err, err
        assert "--dataset" in err

    def test_grid_too_large_to_allocate_exits_1(self, trained, tmp_path, capsys):
        # 10**15 float64 values lie past any address space, so numpy refuses at once
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--out", str(tmp_path / "x"),
                   "--q-grid", f"1:2:{10**15}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: out of memory: ")

    @pytest.mark.parametrize("grid", ["nan", "0.5,inf", "0.5:inf:3"])
    def test_non_finite_grid_names_the_flag(self, trained, tmp_path, capsys, grid):
        # nan and inf used to pass the flag and fail in exitpolicy, naming no flag
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--out", str(tmp_path / "x"),
                   "--q-grid", grid])
        assert rc == 2
        assert "--q-grid" in capsys.readouterr().err

    def test_huge_q_warns_nothing(self, trained, tmp_path):
        # q**2 overflowed in exit_fractions: two RuntimeWarnings, exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--out", str(tmp_path / "x"),
                         "--q-grid", "1e300"]) == 0


class TestPreciseFileErrors:
    """Malformed checkpoints and run configs exit 2 naming file, section and key."""

    def eval_edited_checkpoint(self, trained, tmp_path, capsys, edit):
        ckpt = tmp_path / "checkpoint.json"
        doc = json.loads((trained / "checkpoint.json").read_text())
        edit(doc)
        ckpt.write_text(json.dumps(doc))
        shutil.copy(trained / "resolved_config.json", tmp_path / "resolved_config.json")
        rc = main(["eval", "--checkpoint", str(ckpt), "--q-grid", "1.0"])
        return rc, capsys.readouterr().err, str(ckpt)

    def test_checkpoint_train_config_without_beta(self, trained, tmp_path, capsys):
        rc, err, path = self.eval_edited_checkpoint(
            trained, tmp_path, capsys, lambda d: d["train_config"].pop("beta"))
        assert rc == 2
        assert path in err and "train_config" in err and "beta" in err

    def test_checkpoint_backbone_without_trunk_widths(self, trained, tmp_path, capsys):
        rc, err, path = self.eval_edited_checkpoint(
            trained, tmp_path, capsys, lambda d: d["backbone"]["config"].pop("trunk_widths"))
        assert rc == 2
        assert path in err and "backbone.config" in err and "trunk_widths" in err

    def test_checkpoint_wpn_hidden_width_not_a_number(self, trained, tmp_path, capsys):
        rc, err, path = self.eval_edited_checkpoint(
            trained, tmp_path, capsys, lambda d: d["wpn"]["config"].update(hidden_width="abc"))
        assert rc == 2
        assert path in err and "wpn.config" in err and "hidden_width" in err

    def test_checkpoint_velocity_not_an_array(self, trained, tmp_path, capsys):
        rc, err, path = self.eval_edited_checkpoint(
            trained, tmp_path, capsys, lambda d: d["optimizer"].update(velocity=5))
        assert rc == 2
        assert path in err and "optimizer.velocity" in err and "bad encoded array" in err

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.pop("labels"), "labels"),
        (lambda d: d.update(labels=["cat"] * len(d["labels"])), "labels"),
        (lambda d: d.update(num_classes="three"), "num_classes"),
        # np.asarray(..., dtype=np.int64) would read these as 1
        (lambda d: d["labels"].__setitem__(0, 1.5), "labels"),
        (lambda d: d["labels"].__setitem__(0, True), "labels"),
        # Dataset's own shape errors named no file
        (lambda d: d.update(features=encode_array(np.zeros((0, 4))), labels=[]), "features"),
        (lambda d: d["labels"].pop(), "labels"),
        (lambda d: d.update(features=encode_array(np.zeros(72))), "features"),
    ], ids=["labels-missing", "labels-strings", "num_classes-not-a-number",
            "labels-fractional", "labels-boolean", "features-no-rows", "labels-one-short",
            "features-1d"])
    def test_container_dataset_payload(self, tmp_path, capsys, edit, key):
        from exitweave.datahub import gen_synthetic_gaussians, save_dataset
        from exitweave.numkit import RngStream

        for split in ("train", "val", "test"):
            save_dataset(tmp_path / f"{split}.json",
                         gen_synthetic_gaussians(3, 4, 6, 1.0, RngStream(5).child(split), split=split))
        doc = json.loads((tmp_path / "train.json").read_text())
        edit(doc)
        (tmp_path / "train.json").write_text(json.dumps(doc))
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "container", "train": "train.json", "val": "val.json",
                                   "test": "test.json"})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "train.json") in err and key in err

    def test_config_epochs_not_a_number(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        doc["train"]["epochs"] = "three"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "train" in err and "epochs" in err

    def test_config_hidden_width_list(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg, wpn={"hidden_width": [32]})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "wpn" in err and "hidden_width" in err

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.9), ("batch_size", 10.9), ("epochs", True), ("alpha", True),
    ])
    def test_config_value_read_lossily(self, tmp_path, capsys, key, value):
        # int() would train 2 epochs on 2.9, batch 10 on 10.9 and 1 epoch on
        # true; float() would train at learning rate 1.0 on true
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        doc["train"][key] = value
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "train" in err and key in err
        assert not (tmp_path / "o").exists()

    def test_numeric_strings_still_accepted(self, tmp_path):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        doc["train"].update(epochs="1", alpha="0.1")
        doc["wpn"]["hidden_width"] = 8.0
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


class TestEvalReadsNoHistory:
    """eval reads the checkpoint and the dataset source only; the weight scatter stays in history.json."""

    def eval_beside(self, trained, run_dir, history):
        run_dir.mkdir()
        for name in ("checkpoint.json", "resolved_config.json"):
            shutil.copy(trained / name, run_dir / name)
        if history is not None:
            (run_dir / "history.json").write_text(history)
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"), "--q-grid", "1.0"]) == 0
        return (run_dir / "metrics.json").read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda text: text[:40],
        lambda text: text.replace('"exitweave-history"', '"exitweave-metrics"'),
        lambda text: json.dumps({**json.loads(text), "version": 2}),
    ], ids=["corrupt", "other-format", "version-2"])
    def test_history_beside_the_checkpoint_is_not_read(self, trained, tmp_path, edit):
        alone = self.eval_beside(trained, tmp_path / "alone", None)
        history = edit((trained / "history.json").read_text())
        assert self.eval_beside(trained, tmp_path / "beside", history) == alone

    def test_metrics_body_keys(self, trained, tmp_path):
        from exitweave.serial import METRICS_FORMAT, read_doc

        assert main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--out", str(tmp_path),
                     "--q-grid", "1.0"]) == 0
        body = read_doc(tmp_path / "metrics.json", METRICS_FORMAT)
        assert set(body) == {"run_id", "config_hash", "iteration", "variant", "anytime", "dynamic"}

    def test_interrupted_curves_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        # the write stops halfway: the old curves.csv must survive whole, with no file left beside it
        from exitweave.cli import _write_curves_csv

        def rows(q):
            return [{"q": q, "accuracy": 0.5, "expected_muladds": 12.0, "exit_counts": [3, 1],
                     "thresholds": [0.75, 0.0]}]

        path = tmp_path / "curves.csv"
        _write_curves_csv(path, rows(0.5), 2)
        old = path.read_bytes()

        def half_write(self, text, *args, **kwargs):
            with open(self, "w") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_write)
        with pytest.raises(OSError, match="disk full"):
            _write_curves_csv(path, rows(1.5), 2)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]


class TestEvalSiblingConfig:
    """Without --dataset, eval reads the dataset section of resolved_config.json."""

    @pytest.mark.parametrize("dataset", [
        {"classes": 3, "dim": 4}, {"kind": "cifar"}, {"kind": ["synthetic"]}, ["synthetic"], None,
    ], ids=["no-kind", "unknown-kind", "kind-not-a-string", "not-an-object", "missing"])
    def test_bad_dataset_section_exits_2(self, trained, tmp_path, capsys, dataset):
        shutil.copy(trained / "checkpoint.json", tmp_path / "checkpoint.json")
        doc = json.loads((trained / "resolved_config.json").read_text())
        if dataset is None:
            del doc["dataset"]
        else:
            doc["dataset"] = dataset
        (tmp_path / "resolved_config.json").write_text(json.dumps(doc))
        assert main(["eval", "--checkpoint", str(tmp_path / "checkpoint.json"), "--q-grid", "1.0"]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "resolved_config.json") in err and "dataset" in err, err
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("key, value", [("format", "exitweave-history"), ("version", 99)])
    def test_bad_envelope_exits_2(self, trained, tmp_path, capsys, key, value):
        shutil.copy(trained / "checkpoint.json", tmp_path / "checkpoint.json")
        doc = json.loads((trained / "resolved_config.json").read_text())
        doc[key] = value
        (tmp_path / "resolved_config.json").write_text(json.dumps(doc))
        assert main(["eval", "--checkpoint", str(tmp_path / "checkpoint.json"), "--q-grid", "1.0"]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "resolved_config.json") in err and key in err and str(value) in err, err
        assert not (tmp_path / "metrics.json").exists()


class TestEvalDatasetFile:
    """eval --dataset checks the envelope of a file that has one."""

    @pytest.mark.parametrize("key, value", [("format", "exitweave-history"), ("version", 99)])
    def test_bad_envelope_exits_2(self, trained, tmp_path, capsys, key, value):
        ds = tmp_path / "copy.json"
        doc = json.loads((trained / "resolved_config.json").read_text())
        doc[key] = value
        ds.write_text(json.dumps(doc))
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--dataset", str(ds),
                   "--out", str(tmp_path / "ev"), "--q-grid", "1.0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(ds) in err and key in err and str(value) in err, err
        assert not (tmp_path / "ev").exists()

    def test_bare_dataset_section_loads(self, trained, tmp_path):
        ds = tmp_path / "section.json"
        ds.write_text(json.dumps(json.loads((trained / "resolved_config.json").read_text())["dataset"]))
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--dataset", str(ds),
                     "--out", str(tmp_path / "ev"), "--q-grid", "1.0"]) == 0


class TestDocuments:
    """Every document a run writes carries its own format's header, which serial alone checks."""

    def test_each_document_reads_back_as_its_format(self, trained, tmp_path):
        from exitweave.datahub import gen_synthetic_gaussians, save_dataset
        from exitweave.numkit import RngStream
        from exitweave.serial import (CONFIG_FORMAT, DATASET_FORMAT, HISTORY_FORMAT, METRICS_FORMAT,
                                      RUN_FORMAT, read_doc)

        assert main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--out", str(tmp_path),
                     "--q-grid", "1.0"]) == 0
        save_dataset(tmp_path / "ds.json", gen_synthetic_gaussians(3, 4, 2, 1.0, RngStream(1)))
        documents = {trained / "resolved_config.json": CONFIG_FORMAT, trained / "checkpoint.json": RUN_FORMAT,
                     trained / "history.json": HISTORY_FORMAT, tmp_path / "metrics.json": METRICS_FORMAT,
                     tmp_path / "ds.json": DATASET_FORMAT}
        for path, fmt in documents.items():
            body = read_doc(path, fmt)
            assert body and "format" not in body and "version" not in body
            other = METRICS_FORMAT if fmt == HISTORY_FORMAT else HISTORY_FORMAT
            with pytest.raises(FormatError, match=other):
                read_doc(path, other)

    def test_versions_are_per_format(self, trained, tmp_path, capsys, monkeypatch):
        # eval reads the run checkpoint and the config it takes the dataset from, never history.json
        from exitweave.checkpoint import load_run_checkpoint
        from exitweave.serial import CONFIG_FORMAT, HISTORY_FORMAT, VERSIONS

        args = ["eval", "--checkpoint", str(trained / "checkpoint.json"), "--q-grid", "1.0"]
        monkeypatch.setitem(VERSIONS, HISTORY_FORMAT, 2)
        assert main(args + ["--out", str(tmp_path / "history-2")]) == 0
        monkeypatch.undo()
        monkeypatch.setitem(VERSIONS, CONFIG_FORMAT, 2)
        assert main(args + ["--out", str(tmp_path / "config-2")]) == 2
        err = capsys.readouterr().err
        assert str(trained / "resolved_config.json") in err and "version 1, expected 2" in err, err
        assert not (tmp_path / "config-2").exists()
        load_run_checkpoint(trained / "checkpoint.json")


class TestResolvedConfigRerun:
    """A run's resolved_config.json is a run config that reproduces the run."""

    @pytest.mark.parametrize("variant", ["learned", "baseline"])
    def test_rerun_is_byte_identical(self, tmp_path, variant):
        cfg = tmp_path / "run.json"
        write_config(cfg, train={"epochs": 2, "batch_size": 10, "alpha": 0.1, "seed": 3, "variant": variant})
        first, second = tmp_path / "o1", tmp_path / "o2"
        assert main(["train", "--config", str(cfg), "--out", str(first)]) == 0
        resolved = json.loads((first / "resolved_config.json").read_text())
        # the rerun's config states every derived key, as the data and the trunk give it
        assert (resolved["backbone"]["input_dim"], resolved["backbone"]["num_classes"]) == (4, 3)
        if variant == "learned":
            assert resolved["wpn"]["num_exits"] == 2
        assert main(["train", "--config", str(first / "resolved_config.json"), "--out", str(second)]) == 0
        for name in ("checkpoint.json", "history.json", "resolved_config.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_wpn_num_exits_must_match_the_trunk(self, trained, tmp_path, capsys):
        doc = json.loads((trained / "resolved_config.json").read_text())
        doc["wpn"]["num_exits"] = 3  # the trunk has 2 exits
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: wpn: num_exits: must equal the derived value 2, got 3" in err, err

    @pytest.mark.parametrize("key, value", [("input_dim", 5), ("num_classes", 4)])
    def test_backbone_width_must_match_the_data(self, tmp_path, capsys, key, value):
        # the data are 4 features wide with 3 classes; the error used to name no file and no key
        cfg = tmp_path / "run.json"
        write_config(cfg, backbone={"trunk_widths": [6, 5], key: value})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        derived = {"input_dim": 4, "num_classes": 3}[key]
        assert f"{cfg}: backbone: {key}: must equal the derived value {derived}, got {value}" in err, err

    def test_header_of_another_format_exits_2(self, trained, tmp_path, capsys):
        doc = json.loads((trained / "resolved_config.json").read_text())
        doc["format"] = "exitweave-history"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "exitweave-history" in err, err


class TestEvalForwardPasses:
    def test_one_forward_pass_per_split(self, trained, tmp_path, monkeypatch):
        import exitweave.backbone
        import exitweave.cli
        import exitweave.evaluate

        calls = []
        real = exitweave.backbone.forward_all

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (exitweave.backbone, exitweave.cli, exitweave.evaluate):
            monkeypatch.setattr(module, "forward_all", counted)
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--out", str(tmp_path),
                     "--q-grid", "0.5,1.0"]) == 0
        assert len(calls) == 2


class TestNarrowLateHead:
    def test_eval_accepts_costs_that_fall_across_exits(self, tmp_path):
        # 16 -> 64 -> 4 with 10 classes: exit 1 costs 16*64 + 64*10 = 1664
        # mul-adds, exit 2 16*64 + 64*4 + 4*10 = 1320
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "synthetic", "classes": 10, "dim": 16, "train_per_class": 4,
                                   "val_per_class": 3, "test_per_class": 3, "seed": 2},
                     backbone={"trunk_widths": [64, 4]})
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--q-grid", "0.2,1.0,3.0"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        costs = [1664, 1320]
        assert metrics["anytime"]["exit_muladds"] == costs
        for row in metrics["dynamic"]:
            counts = row["exit_counts"]
            assert row["expected_muladds"] == (counts[0] * costs[0] + counts[1] * costs[1]) / sum(counts)


class TestNonFiniteConfigValues:
    """json reads NaN and Infinity; a float field refuses them, naming the file, section and key."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("section, key", [("train", "alpha"), ("train", "q"), ("wpn", "delta"),
                                              ("dataset", "spread"), ("dataset", "radius")])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        doc[section][key] = value
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and section in err and f": {key}: cannot read" in err, err
        assert not (tmp_path / "o").exists()


def exit_code(argv) -> int:
    """main's exit code, argparse's own exits included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestNegativeSeeds:
    """PCG64 takes no negative seed; each path used to end in numpy's ValueError traceback and exit 1."""

    @pytest.mark.parametrize("section, key, value", [("train", "seed", -1), ("dataset", "seed", -5)])
    def test_config_seed_exits_2_naming_the_key(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        doc[section][key] = value
        cfg.write_text(json.dumps(doc))
        assert exit_code(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and section in err and key in err, err
        assert f"must be >= 0, got {value}" in err, err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_train_flag_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        write_config(cfg)
        assert exit_code(["train", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-2"]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be a whole number >= 0, got '-2'" in err and "Traceback" not in err, err
        assert not (tmp_path / "o").exists()

    def test_gradcheck_flag_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert exit_code(["gradcheck", "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert "argument --seed: must be a whole number >= 0, got '-3'" in captured.err
        assert "Traceback" not in captured.err
        assert not captured.out and list(tmp_path.iterdir()) == []


class TestTrainingChecksNameTheFile:
    """The checks that need the trunk's exit count run in training; their errors used to name no file."""

    TRAIN = {"epochs": 1, "batch_size": 10, "alpha": 0.1}

    def train_err(self, tmp_path, capsys, **overrides) -> tuple[Path, str]:
        cfg = tmp_path / "run.json"
        write_config(cfg, **overrides)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return cfg, err

    def test_exit_weights_of_the_wrong_length(self, tmp_path, capsys):
        cfg, err = self.train_err(tmp_path, capsys, train={**self.TRAIN, "variant": "fixed",
                                                           "exit_weights": [0.5, 1.0, 1.5]})
        assert f"{cfg}: train.exit_weights has 3 entries for 2 exits" in err, err

    def test_one_block_trunk(self, tmp_path, capsys):
        cfg, err = self.train_err(tmp_path, capsys, backbone={"trunk_widths": [6]}, train=self.TRAIN)
        assert f"{cfg}: backbone.trunk_widths: training requires at least 2 exits, got 1" in err, err

    def test_frozen_network_of_another_exit_count(self, trained, tmp_path, capsys):
        train = {**self.TRAIN, "variant": "frozen_wpn", "frozen_wpn_path": str(trained / "checkpoint.json")}
        cfg, err = self.train_err(tmp_path, capsys, backbone={"trunk_widths": [6, 5, 4]}, train=train)
        assert f"{cfg}: train.frozen_wpn_path: weight network is sized for 2 exits, backbone has 3" in err, err

    def test_batch_larger_than_the_train_split(self, tmp_path, capsys):
        # 3 classes x 20 rows: the message named no section
        cfg, err = self.train_err(tmp_path, capsys, train={**self.TRAIN, "batch_size": 64})
        assert f"{cfg}: train.batch_size must lie in [1, 60], got 64" in err, err

    def test_batch_larger_than_the_train_split_without_epochs(self, tmp_path):
        # no epoch draws a batch, so nothing is checked, as before
        write_config(tmp_path / "run.json", train={**self.TRAIN, "epochs": 0, "batch_size": 64})
        assert main(["train", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "o")]) == 0


class TestExitWeights:
    """exit_weights is the row of a fixed run: given with that variant only, finite, mean 1, one entry per exit."""

    def train_err(self, tmp_path, capsys, **train) -> str:
        """stderr of a train run that must exit 2 before writing anything."""
        cfg = tmp_path / "run.json"
        write_config(cfg, train={"epochs": 1, "batch_size": 10, "alpha": 0.1, **train})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("train, message", [
        ({"variant": "fixed"}, "variant 'fixed' requires exit_weights"),
        ({"exit_weights": [1.0, 1.0]}, "exit_weights applies only to variant 'fixed', not 'learned'"),
        ({"variant": "baseline", "frozen_wpn_path": "learned/checkpoint.json"},
         "frozen_wpn_path applies only to variant 'frozen_wpn', not 'baseline'"),
        ({"variant": "fixed", "exit_weights": [1.0, 1.0 + 2e-9]}, "exit_weights must be finite with mean 1"),
    ], ids=["fixed-without-row", "row-with-learned", "path-with-baseline", "mean-off-by-1e-9"])
    def test_config_error_names_the_key(self, tmp_path, capsys, train, message):
        # a frozen_wpn_path beside another variant used to be ignored, yet it entered the run id
        err = self.train_err(tmp_path, capsys, **train)
        assert f"{tmp_path / 'run.json'}: train: {message}" in err, err

    def test_non_finite_entry_in_the_file_exits_2(self, tmp_path, capsys):
        err = self.train_err(tmp_path, capsys, variant="fixed", exit_weights=[math.nan, 1.0])  # json writes NaN
        assert f"{tmp_path / 'run.json'}: train: exit_weights: cannot read [nan, 1.0]" in err, err

    def test_row_of_the_wrong_length_exits_2(self, tmp_path, capsys):
        err = self.train_err(tmp_path, capsys, variant="fixed", exit_weights=[0.5, 1.0, 1.5])  # the trunk has 2 exits
        assert "exit_weights has 3 entries for 2 exits" in err, err

    def test_resolved_config_records_the_row_and_reruns(self, tmp_path):
        cfg = tmp_path / "run.json"
        write_config(cfg, train={"epochs": 1, "batch_size": 10, "alpha": 0.1, "variant": "fixed",
                                 "exit_weights": [1.4, 0.6]})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        resolved = tmp_path / "a" / "resolved_config.json"
        assert json.loads(resolved.read_text())["train"]["exit_weights"] == [1.4, 0.6]
        assert main(["train", "--config", str(resolved), "--out", str(tmp_path / "b")]) == 0
        for name in ("resolved_config.json", "checkpoint.json", "history.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTupleFields:
    """A tuple field takes only a JSON list: a string or an object used to read item by item."""

    @pytest.mark.parametrize("value", ["64", {"16": 1, "8": 2}], ids=["string", "object"])
    def test_trunk_widths_not_a_list_exits_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.json"
        write_config(cfg, backbone={"trunk_widths": value})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: backbone: trunk_widths: cannot read {value!r}" in err, err
        assert not (tmp_path / "o").exists()


class TestUndecodableFiles:
    """A file that is not UTF-8 text exits 2 naming it; each used to end in a traceback and exit 1."""

    @pytest.mark.parametrize("command", ["train", "eval", "allocate"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe{}\n")
        argv = {"train": ["train", "--config", str(path)],
                "eval": ["eval", "--checkpoint", str(path)],
                "allocate": ["allocate", str(path), "--q", "1.0"]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err, err


class TestNonFiniteInputs:
    """A NaN in a data file or a confidence CSV exits 2 naming the file; it used to exit 1."""

    def test_container_features(self, tmp_path, capsys):
        from exitweave.datahub import gen_synthetic_gaussians, save_dataset
        from exitweave.numkit import RngStream
        from exitweave.serial import encode_array

        for split in ("train", "val", "test"):
            save_dataset(tmp_path / f"{split}.json",
                         gen_synthetic_gaussians(3, 4, 6, 1.0, RngStream(5).child(split), split=split))
        doc = json.loads((tmp_path / "train.json").read_text())
        features = np.zeros((18, 4))
        features[3, 1] = np.nan
        doc["features"] = encode_array(features)
        (tmp_path / "train.json").write_text(json.dumps(doc))
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "container", "train": "train.json", "val": "val.json",
                                   "test": "test.json"})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'train.json'}: features" in err and "non-finite" in err, err

    def test_idx_float_images(self, tmp_path, capsys):
        import struct

        def idx_file(path, code, shape, payload):
            head = struct.pack(">BBBB", 0, 0, code, len(shape)) + b"".join(struct.pack(">I", d) for d in shape)
            path.write_bytes(head + payload)

        rng = np.random.default_rng(6)
        for split in ("train", "val", "test"):
            pixels = rng.uniform(0.0, 1.0, (8, 2, 3))
            if split == "train":
                pixels[5, 1, 2] = np.nan
            idx_file(tmp_path / f"{split}-images.idx", 0x0E, (8, 2, 3), pixels.astype(">f8").tobytes())
            idx_file(tmp_path / f"{split}-labels.idx", 0x08, (8,), rng.integers(0, 3, 8).astype(np.uint8).tobytes())
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "idx", **{f"{s}_{part}": f"{s}-{part}.idx"
                                                     for s in ("train", "val", "test") for part in ("images", "labels")}})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "train-images.idx") in err and "non-finite" in err, err

    def test_idx_zero_samples(self, tmp_path, capsys):
        # a (0, 2) image file used to end in a ValueError traceback and exit 1
        import struct

        def idx_file(path, code, shape, payload):
            head = struct.pack(">BBBB", 0, 0, code, len(shape)) + b"".join(struct.pack(">I", d) for d in shape)
            path.write_bytes(head + payload)

        for split in ("train", "val", "test"):
            idx_file(tmp_path / f"{split}-images.idx", 0x08, (0, 2), b"")
            idx_file(tmp_path / f"{split}-labels.idx", 0x08, (0,), b"")
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "idx", **{f"{s}_{part}": f"{s}-{part}.idx"
                                                     for s in ("train", "val", "test") for part in ("images", "labels")}})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'train-images.idx'}: no samples" in err, err

    def test_allocate_csv_cell(self, tmp_path, capsys):
        path = tmp_path / "conf.csv"
        path.write_text("0.5,0.6\n0.7,nan\n")
        assert main(["allocate", str(path), "--q", "1.0"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 2" in err and "non-finite" in err, err


def semantic_hash(resolved: dict) -> str:
    """SHA-256 of the canonical JSON of a resolved config's four semantic sections."""
    semantic = {k: resolved[k] for k in ("dataset", "backbone", "wpn", "train")}
    return hashlib.sha256(json.dumps(semantic, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class TestRunId:
    @pytest.mark.parametrize("variant", ["learned", "baseline", "frozen_wpn"])
    def test_history_and_metrics_share_the_run_id(self, tmp_path, variant):
        # the other runs' wpn section (hidden width 5) is not the network they
        # use: none for baseline, the learned run's (width 8) for frozen_wpn
        cfg = tmp_path / "learned.json"
        write_config(cfg)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "learned")]) == 0
        if variant != "learned":
            train = {"epochs": 2, "batch_size": 10, "alpha": 0.1, "seed": 3, "variant": variant}
            if variant == "frozen_wpn":
                train["frozen_wpn_path"] = str(tmp_path / "learned" / "checkpoint.json")
            cfg = tmp_path / f"{variant}.json"
            write_config(cfg, train=train, wpn={"hidden_width": 5})
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / variant)]) == 0
        out = tmp_path / variant
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--q-grid", "1.0"]) == 0
        history = json.loads((out / "history.json").read_text())
        metrics = json.loads((out / "metrics.json").read_text())
        assert history["config_hash"] == metrics["config_hash"]
        assert history["run_id"] == metrics["run_id"] == metrics["config_hash"][:12]
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert semantic_hash(resolved) == history["config_hash"]
        # the weight network the run used: none, or the learned run's for frozen_wpn
        if variant == "baseline":
            assert resolved["wpn"] is None
        else:
            assert resolved["wpn"] == {"num_exits": 2, "hidden_width": 8, "hidden_depth": 1, "delta": 0.6}

    def test_spelling_of_a_value_keeps_the_run_id(self, tmp_path):
        # "6" and 1 convert to the 6 and 1.0 the run uses, so the run is the same
        cfg = tmp_path / "run.json"
        for name, classes, spread in (("canonical", 6, 1.0), ("spelled", "6", 1)):
            doc = write_config(cfg)
            doc["dataset"].update(classes=classes, spread=spread)
            cfg.write_text(json.dumps(doc))
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        for name in ("resolved_config.json", "history.json", "checkpoint.json"):
            assert (tmp_path / "canonical" / name).read_bytes() == (tmp_path / "spelled" / name).read_bytes()
        resolved = json.loads((tmp_path / "spelled" / "resolved_config.json").read_text())
        assert resolved["dataset"]["classes"] == 6 and resolved["dataset"]["spread"] == 1.0


class TestFrozenWpn:
    """A frozen_wpn run applies the weight network of another run's checkpoint."""

    def train_frozen(self, tmp_path, source: str) -> int:
        train = {"epochs": 2, "batch_size": 10, "alpha": 0.1, "seed": 3, "variant": "frozen_wpn",
                 "frozen_wpn_path": source}
        write_config(tmp_path / "frozen.json", train=train)
        return main(["train", "--config", str(tmp_path / "frozen.json"), "--out", str(tmp_path / "frozen")])

    def test_applies_the_learned_network_unchanged(self, tmp_path, monkeypatch):
        from exitweave.checkpoint import load_run_checkpoint

        monkeypatch.chdir(tmp_path)  # a relative path is read from the working directory
        write_config(tmp_path / "learned.json")
        assert main(["train", "--config", "learned.json", "--out", "learned"]) == 0
        assert self.train_frozen(tmp_path, "learned/checkpoint.json") == 0
        source, _ = load_run_checkpoint(tmp_path / "learned" / "checkpoint.json")
        frozen, cfg = load_run_checkpoint(tmp_path / "frozen" / "checkpoint.json")
        assert cfg.frozen_wpn_path == str(Path.cwd() / "learned" / "checkpoint.json")
        assert frozen.wpn.buffer.tobytes() == source.wpn.buffer.tobytes()
        assert frozen.adam.step == 0

    def test_resolved_config_reruns_from_a_sibling_directory(self, tmp_path, monkeypatch):
        # the relative path is recorded absolute, so the rerun finds the source checkpoint
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path / "learned.json")
        assert main(["train", "--config", "learned.json", "--out", "learned"]) == 0
        assert self.train_frozen(tmp_path, "learned/checkpoint.json") == 0
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["train", "--config", "../frozen/resolved_config.json", "--out", "rerun"]) == 0
        rerun = tmp_path / "elsewhere" / "rerun" / "checkpoint.json"
        assert rerun.read_bytes() == (tmp_path / "frozen" / "checkpoint.json").read_bytes()

    def test_baseline_checkpoint_exits_2(self, tmp_path, capsys):
        train = {"epochs": 1, "batch_size": 10, "alpha": 0.1, "variant": "baseline"}
        write_config(tmp_path / "baseline.json", train=train)
        assert main(["train", "--config", str(tmp_path / "baseline.json"), "--out", str(tmp_path / "baseline")]) == 0
        source = str(tmp_path / "baseline" / "checkpoint.json")
        assert self.train_frozen(tmp_path, source) == 2
        err = capsys.readouterr().err
        assert source in err and "carries no weight network" in err
        # the message named the checkpoint alone, not the config file or the key that points at it
        assert f"{tmp_path / 'frozen.json'}: train.frozen_wpn_path: {source}: run checkpoint" in err, err
        assert not (tmp_path / "frozen").exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys, monkeypatch):
        # opening the file used to raise FileNotFoundError: a traceback and exit 1
        monkeypatch.chdir(tmp_path)
        assert self.train_frozen(tmp_path, "missing.json") == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "frozen.json") in err and "train.frozen_wpn_path" in err
        assert str(tmp_path / "missing.json") in err
        assert not (tmp_path / "frozen").exists()

    def test_checkpoint_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        # the pre-check said "run checkpoint not found" of a directory that exists
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert self.train_frozen(tmp_path, "adir") == 2
        err = capsys.readouterr().err
        assert "adir: cannot read" in err and "not found" not in err, err
        assert not (tmp_path / "frozen").exists()

    def test_malformed_checkpoint_names_the_config_and_key(self, tmp_path, capsys):
        from exitweave.serial import RUN_FORMAT, write_doc

        source = tmp_path / "bad.json"
        write_doc(source, RUN_FORMAT, {})  # a header and nothing else
        assert self.train_frozen(tmp_path, str(source)) == 2
        err = capsys.readouterr().err
        expected = f"{tmp_path / 'frozen.json'}: train.frozen_wpn_path: {source}: missing required key(s): iteration"
        assert expected in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "frozen").exists()


class TestOutputDir:
    """An --out that cannot be a directory exits 2 naming it, before any work is done."""

    @pytest.fixture
    def afile(self, tmp_path):
        path = tmp_path / "afile"
        path.write_text("")
        return path

    @staticmethod
    def never(*args, **kwargs):
        raise AssertionError("the work ran")

    @pytest.mark.parametrize("child", ["", "sub"], ids=["file", "under-a-file"])
    def test_train(self, tmp_path, capsys, monkeypatch, afile, child):
        # the directory was made after training: a FileExistsError traceback and exit 1
        import exitweave.cli

        monkeypatch.setattr(exitweave.cli, "run_training", self.never)
        cfg = tmp_path / "run.json"
        write_config(cfg)
        out = afile / child if child else afile
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{out}: cannot create directory: {afile} is not a directory" in err, err

    @pytest.mark.parametrize("child", ["", "sub"], ids=["file", "under-a-file"])
    def test_eval(self, trained, capsys, monkeypatch, afile, child):
        # the directory was made after the forward passes: a FileExistsError traceback and exit 1
        import exitweave.cli

        monkeypatch.setattr(exitweave.cli, "forward_all", self.never)
        out = afile / child if child else afile
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--out", str(out),
                     "--q-grid", "1.0"]) == 2
        err = capsys.readouterr().err
        assert f"{out}: cannot create directory: {afile} is not a directory" in err, err


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "all suites passed" in out

    def test_sabotage_env_fails(self, capsys, flipped_weighted_grad):
        assert main(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_seed_flag(self):
        assert main(["gradcheck", "--seed", "5"]) == 0

    def gradcheck_config(self, tmp_path, backbone):
        cfg = tmp_path / "tiny.json"
        write_config(cfg, backbone=backbone)
        return main(["gradcheck", "--config", str(cfg)])

    def test_config_stating_widths_passes(self, tmp_path, capsys):
        backbone = {"input_dim": 3, "trunk_widths": [4, 3], "num_classes": 3}
        assert self.gradcheck_config(tmp_path, backbone) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "all suites passed" in out

    def test_config_without_widths_exits_2(self, tmp_path, capsys):
        # no data is loaded, so nothing fills them in
        assert self.gradcheck_config(tmp_path, {"trunk_widths": [4, 3]}) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "tiny.json") in err
        assert "backbone: missing required key(s): input_dim, num_classes" in err

    def test_config_above_param_cap_exits_2(self, tmp_path, capsys):
        from exitweave.gradcheck import PARAM_CAP

        backbone = {"input_dim": 32, "trunk_widths": [32, 32], "num_classes": 10}
        assert self.gradcheck_config(tmp_path, backbone) == 2
        assert str(PARAM_CAP) in capsys.readouterr().err


class TestAllocate:
    def make_csv(self, path, n=100, k=5, seed=0):
        rng = np.random.default_rng(seed)
        table = rng.uniform(0.0, 1.0, (n, k))
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in table) + "\n")
        return table

    def test_reference_sizes(self, tmp_path, capsys):
        path = tmp_path / "conf.csv"
        self.make_csv(path)
        assert main(["allocate", str(path), "--q", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sizes"] == [51, 25, 12, 6, 6]
        assert doc["num_samples"] == 100 and doc["num_exits"] == 5
        assert sorted(i for s in doc["subsets"] for i in s) == list(range(100))
        assert doc["thresholds"][-1] == 0.0

    def test_num_exits_validation(self, tmp_path, capsys):
        path = tmp_path / "conf.csv"
        self.make_csv(path, k=3)
        assert main(["allocate", str(path), "--q", "0.5", "--num-exits", "4"]) == 2
        assert "columns" in capsys.readouterr().err

    def test_malformed_cell_names_line(self, tmp_path, capsys):
        path = tmp_path / "conf.csv"
        path.write_text("0.5,0.6\n0.7,oops\n")
        assert main(["allocate", str(path), "--q", "1.0"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_ragged_row_names_line(self, tmp_path, capsys):
        path = tmp_path / "conf.csv"
        path.write_text("0.5,0.6\n0.7\n")
        assert main(["allocate", str(path), "--q", "1.0"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_empty_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "conf.csv"
        path.write_text("\n\n")
        assert main(["allocate", str(path), "--q", "1.0"]) == 2

    def test_nonpositive_q_rejected(self, tmp_path, capsys):
        path = tmp_path / "conf.csv"
        self.make_csv(path)
        assert main(["allocate", str(path), "--q", "0.0"]) == 2


REPO = Path(__file__).resolve().parents[1]


def declared_scripts():
    """The [project.scripts] table of the repository's pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def distribution_installed():
    try:
        importlib.metadata.distribution("exitweave")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestParser:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_script_installed(self, tmp_path):
        scripts = declared_scripts()
        assert list(scripts) == ["exitweave"]
        value = scripts["exitweave"]
        # the module:attr resolution an installer's wrapper performs
        importlib.metadata.EntryPoint("exitweave", value, group="console_scripts").load()

        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"target = EntryPoint('exitweave', {value!r}, group='console_scripts').load()\n"
            "sys.argv[0] = 'exitweave'\n"
            "sys.exit(target())\n"
        )

        def run(*args, **env):
            return subprocess.run(
                [sys.executable, "-c", wrapper, *args],
                env=dict(os.environ, PYTHONPATH=str(REPO / "src"), **env),
                cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )

        shown = run("--help")
        assert shown.returncode == 0, shown.stderr
        assert shown.stdout.startswith("usage: exitweave")
        assert run().returncode == 2
        assert run("allocate", "--help").returncode == 0
        # exit codes a command returns, not only argparse's own SystemExit
        missing = run("allocate", str(tmp_path / "none.csv"), "--q", "0.5")
        assert missing.returncode == 2
        assert "not found" in missing.stderr
        cfg = tmp_path / "diverge.json"
        write_config(cfg, train=DIVERGENT_TRAIN)
        diverged = run("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert diverged.returncode == 1
        assert "diverged" in diverged.stderr

    @pytest.mark.skipif(not distribution_installed(),
                        reason="the exitweave distribution is not installed "
                               "(importlib.metadata.PackageNotFoundError)")
    def test_console_script_on_path_matches_declaration(self):
        assert shutil.which("exitweave") is not None
        installed = importlib.metadata.distribution("exitweave").entry_points.select(
            group="console_scripts", name="exitweave")
        assert [ep.value for ep in installed] == [declared_scripts()["exitweave"]]


class TestFileDatasetKinds:
    def test_container_kind_trains(self, tmp_path):
        from exitweave.datahub import gen_synthetic_gaussians, save_dataset
        from exitweave.numkit import RngStream

        root = RngStream(5)
        names = {}
        for split, n in (("train", 15), ("val", 6), ("test", 6)):
            ds = gen_synthetic_gaussians(3, 4, n, 1.0, root.child(split), split=split)
            save_dataset(tmp_path / f"{split}.json", ds)
            names[split] = f"{split}.json"  # relative: resolves against the config dir
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "dataset": {"kind": "container", **names},
            "backbone": {"trunk_widths": [6, 5]},
            "wpn": {"hidden_width": 8},
            "train": {"epochs": 1, "batch_size": 10, "alpha": 0.1},
        }))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "history.json").is_file()

    def test_eval_finds_relative_data_from_another_out_dir(self, tmp_path):
        # the data paths are relative to the config's directory, not to the run's outputs
        from exitweave.datahub import gen_synthetic_gaussians, save_dataset
        from exitweave.numkit import RngStream

        (tmp_path / "A" / "data").mkdir(parents=True)
        for split, n in (("train", 15), ("val", 6), ("test", 6)):
            ds = gen_synthetic_gaussians(3, 4, n, 1.0, RngStream(5).child(split), split=split)
            save_dataset(tmp_path / "A" / "data" / f"{split}.json", ds)
        cfg = tmp_path / "A" / "run.json"
        write_config(cfg, dataset={"kind": "container",
                                   **{split: f"data/{split}.json" for split in ("train", "val", "test")}})
        out = tmp_path / "B"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--q-grid", "1.0"]) == 0
        history = json.loads((out / "history.json").read_text())
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["run_id"] == history["run_id"]
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["dataset"]["train"] == str((tmp_path / "A" / "data" / "train.json").resolve())

    @pytest.mark.parametrize("dim, classes", [(9, 4), (8, 3)], ids=["wider", "fewer-classes"])
    def test_eval_checks_the_test_split_against_the_model(self, tmp_path, capsys, dim, classes):
        # the test split is checked against the model as the val split is, and the error names it
        from exitweave.datahub import gen_synthetic_gaussians, save_dataset
        from exitweave.numkit import RngStream

        for split, n in (("train", 10), ("val", 5), ("test", 5)):
            ds = gen_synthetic_gaussians(4, 8, n, 1.0, RngStream(5).child(split), split=split)
            save_dataset(tmp_path / f"{split}.json", ds)
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "container",
                                   **{split: f"{split}.json" for split in ("train", "val", "test")}},
                     train={"epochs": 1, "batch_size": 10, "alpha": 0.1})
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        save_dataset(tmp_path / "test.json",
                     gen_synthetic_gaussians(classes, dim, 15, 1.0, RngStream(6), split="test"))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--q-grid", "1.0"]) == 2
        err = capsys.readouterr().err
        assert str(out / "resolved_config.json") in err and "test split" in err, err
        assert f"dim={dim}, classes={classes}" in err, err

    def test_cifar_bin_kind_with_holdout(self, tmp_path):
        rng = np.random.default_rng(9)
        def records(n, path):
            buf = bytearray()
            for _ in range(n):
                buf.append(int(rng.integers(0, 10)))
                buf.extend(rng.integers(0, 256, 3072).astype(np.uint8).tobytes())
            path.write_bytes(bytes(buf))
        records(40, tmp_path / "train.bin")
        records(12, tmp_path / "test.bin")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "dataset": {"kind": "cifar_bin", "train": ["train.bin"],
                        "test": "test.bin", "val_holdout": 10},
            "backbone": {"trunk_widths": [6, 5]},
            "wpn": {"hidden_width": 8},
            "train": {"epochs": 1, "batch_size": 10, "alpha": 0.1},
        }))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["dataset"]["val_holdout"] == 10

    def test_cifar_bin_holdout_bounds(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        buf = bytearray()
        for _ in range(5):
            buf.append(int(rng.integers(0, 10)))
            buf.extend(rng.integers(0, 256, 3072).astype(np.uint8).tobytes())
        (tmp_path / "train.bin").write_bytes(bytes(buf))
        (tmp_path / "test.bin").write_bytes(bytes(buf))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "dataset": {"kind": "cifar_bin", "train": ["train.bin"],
                        "test": "test.bin", "val_holdout": 5},
            "backbone": {"trunk_widths": [6, 5]},
            "wpn": {"hidden_width": 8},
            "train": {"epochs": 1, "batch_size": 2, "alpha": 0.1},
        }))
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "dataset.val_holdout" in err

    @pytest.mark.parametrize("dataset, key", [
        ({"kind": "cifar_bin", "train": "train.bin", "test": "test.bin", "val_holdout": 2, "num_classes": 1},
         "num_classes"),
        ({"classes": 1}, "classes"),
        ({"dim": 0}, "dim"),
        ({"test_per_class": 0}, "test_per_class"),
        ({"spread": -1.0}, "spread"),
        ({"longtail_factor": 0.5}, "longtail_factor"),
    ], ids=["cifar_bin-num_classes", "classes", "dim", "test_per_class", "spread", "longtail_factor"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_section_value_out_of_range(self, trained, tmp_path, capsys, dataset, key, command):
        # each exited 2 with a bare message that named neither the file nor the key
        cfg = tmp_path / "run.json"
        doc = write_config(cfg)
        doc["dataset"] = dataset if "kind" in dataset else {**doc["dataset"], **dataset}
        cfg.write_text(json.dumps(doc))
        if command == "train":
            rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        else:
            rc = main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--dataset", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and f" {key}: must be" in err, err

    @pytest.mark.parametrize("dataset, key, name", [
        ({"kind": "container", "train": "train.json", "val": "val.json", "test": "test.json"},
         "dataset.train", "train.json"),
        ({"kind": "idx", **{f"{s}_{part}": f"{s}-{part}.idx"
                            for s in ("train", "val", "test") for part in ("images", "labels")}},
         "dataset.train_images", "train-images.idx"),
        ({"kind": "cifar_bin", "train": ["train.bin"], "test": "test.bin", "val_holdout": 2},
         "dataset.train[0]", "train.bin"),
    ], ids=["container", "idx", "cifar_bin"])
    def test_missing_data_file_exits_2(self, tmp_path, capsys, dataset, key, name):
        # reading the file used to raise FileNotFoundError: a traceback and exit 1
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset=dataset)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err and str(tmp_path / name) in err
        assert not (tmp_path / "o").exists()

    def test_missing_data_file_through_eval_dataset_exits_2(self, trained, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        ds.write_text(json.dumps({"kind": "container", "train": "train.json", "val": "val.json",
                                  "test": "test.json"}))
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.json"), "--dataset", str(ds),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{ds}: dataset.train: data file not found: {tmp_path / 'train.json'}" in err, err

    def test_cifar_bin_train_entry_not_a_string_exits_2(self, tmp_path, capsys):
        # the schema types train as str | list, so [5] reached Path(5): TypeError, exit 1
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "cifar_bin", "train": [5], "test": "test.bin", "val_holdout": 2})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "dataset.train[0]" in err

    def test_cifar_bin_empty_train_list_exits_2(self, tmp_path, capsys):
        # the loader's own message named neither the config file nor the key
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "cifar_bin", "train": [], "test": "test.bin", "val_holdout": 2})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "dataset.train" in err and "at least one batch file" in err

    def test_idx_kind_trains(self, tmp_path):
        import struct

        def idx_file(path, code, shape, payload):
            head = struct.pack(">BBBB", 0, 0, code, len(shape))
            head += b"".join(struct.pack(">I", d) for d in shape)
            path.write_bytes(head + payload)

        rng = np.random.default_rng(4)
        for split, n in (("train", 20), ("val", 8), ("test", 8)):
            pixels = rng.integers(0, 256, n * 6).astype(np.uint8)
            labels = rng.integers(0, 3, n).astype(np.uint8)
            idx_file(tmp_path / f"{split}-images.idx", 0x08, (n, 2, 3), pixels.tobytes())
            idx_file(tmp_path / f"{split}-labels.idx", 0x08, (n,), labels.tobytes())
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "dataset": {"kind": "idx",
                        **{f"{s}_images": f"{s}-images.idx" for s in ("train", "val", "test")},
                        **{f"{s}_labels": f"{s}-labels.idx" for s in ("train", "val", "test")}},
            "backbone": {"trunk_widths": [5, 4]},
            "wpn": {"hidden_width": 8},
            "train": {"epochs": 1, "batch_size": 10, "alpha": 0.1},
        }))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["backbone"]["input_dim"] == 6

    @pytest.mark.parametrize("short", ["val", "test"])
    def test_idx_splits_share_one_class_count(self, tmp_path, short):
        # each split counted its own classes: a test split without the top class
        # failed eval, and a val split without it failed train
        import struct

        rng = np.random.default_rng(6)
        for split, n in (("train", 24), ("val", 9), ("test", 9)):
            labels = (np.arange(n) % (2 if split == short else 3)).astype(np.uint8)
            pixels = rng.integers(0, 256, n * 4).astype(np.uint8).tobytes()
            (tmp_path / f"{split}-images.idx").write_bytes(struct.pack(">4B3i", 0, 0, 0x08, 3, n, 2, 2) + pixels)
            (tmp_path / f"{split}-labels.idx").write_bytes(struct.pack(">4Bi", 0, 0, 0x08, 1, n) + labels.tobytes())
        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "idx", **{f"{s}_{part}": f"{s}-{part}.idx"
                                                     for s in ("train", "val", "test") for part in ("images", "labels")}})
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "resolved_config.json").read_text())["backbone"]["num_classes"] == 3
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--q-grid", "1.0"]) == 0

    def test_longtail_factor_subsamples_the_train_split(self, tmp_path):
        from exitweave.datahub import build_datasets, read_dataset

        cfg = tmp_path / "run.json"
        write_config(cfg, dataset={"kind": "synthetic", "classes": 3, "dim": 4, "train_per_class": 40,
                                   "val_per_class": 8, "test_per_class": 8, "seed": 1, "longtail_factor": 4})
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = out / "resolved_config.json"
        section = json.loads(resolved.read_text())["dataset"]
        assert section["longtail_factor"] == 4.0
        train, val, test = build_datasets(read_dataset(section, resolved), resolved)
        # class c keeps round(40 * 4 ** (-c / 2)) rows: class 0 whole, the last a quarter
        assert np.bincount(train.labels).tolist() == [40, 20, 10]
        assert np.bincount(val.labels).tolist() == np.bincount(test.labels).tolist() == [8, 8, 8]
        # 70 train rows in batches of 10, two epochs
        assert len(json.loads((out / "history.json").read_text())["iterations"]) == 14
