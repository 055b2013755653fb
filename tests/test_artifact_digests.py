"""The byte-identity tool's reference runs stay loadable.

`tools/artifact_digests.py` runs fourteen reference configs on two
checkouts and compares the artifacts. No run here: each config and the
tool's data files are only read back through the package, so a schema
change that breaks the tool's inputs fails this suite, not the next
digest run. Every section of each config is converted, backbone and
wpn against the train split the config builds, as `train` converts
them. A non-empty --out is refused before any run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from exitweave.cli import _model_configs, load_config
from exitweave.datahub import build_datasets

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_configs_load_and_build(tmp_path):
    tool = load_tool()
    tool.write_data_files(tmp_path / "data")
    configs = tool.reference_configs()
    assert len(configs) == 14
    for name, config in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config, indent=1) + "\n")
        run = load_config(path)
        train_set, _, _ = build_datasets(run["dataset"], path)
        _model_configs(run, path, input_dim=train_set.dim, num_classes=train_set.num_classes)


def test_non_empty_out_is_refused_before_any_run(tmp_path):
    # a leftover file would get its own digest line and could hide an artifact a run stopped writing
    (tmp_path / "leftover.json").write_text("{}\n")
    with pytest.raises(SystemExit, match=f"{tmp_path}: not empty"):
        load_tool().main(["--src", "src", "--out", str(tmp_path)])
    assert [p.name for p in tmp_path.iterdir()] == ["leftover.json"]
