import os

import numpy as np
import pytest

from subnetpack.config import (KEYS, apply_overrides, build_run_config,
                               build_suite, key_default, load_run_config,
                               parse_config_text)
from subnetpack.errors import ConfigError
from subnetpack.scenario import save_idx


def test_defaults_from_empty_text():
    cfg = build_run_config(parse_config_text("scenario.kind = synthetic"))
    assert cfg.mode == "full"
    assert cfg.model.layer_sizes == (784, 100, 10)
    assert cfg.train.batch_size == 128
    assert cfg.prune.population == 16
    assert cfg.prune.alpha == 0.9
    assert cfg.quant.psi_init == 2
    assert cfg.output_dir == "run_out"
    assert cfg.seed == 0


def test_comments_and_blank_lines_skipped():
    raw = parse_config_text(
        "# a comment\n\n  scenario.kind = synthetic  \n# run.seed = 9\n")
    assert raw == {"scenario.kind": "synthetic"}


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("scenario.kind = synthetic\n\nscnario.seed = 1\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")


def test_bad_int_value():
    with pytest.raises(ConfigError, match="run.seed"):
        build_run_config(parse_config_text(
            "scenario.kind = synthetic\nrun.seed = twelve\n"))


def test_run_seed_feeds_stages():
    cfg = build_run_config(parse_config_text(
        "scenario.kind = synthetic\nrun.seed = 77\n"))
    assert cfg.scenario.seed == 77
    assert cfg.train.seed == 77
    assert cfg.prune.seed == 77
    assert cfg.quant.seed == 77
    # a stage override wins over the run seed
    cfg = build_run_config(parse_config_text(
        "scenario.kind = synthetic\nrun.seed = 77\nscenario.seed = 5\n"))
    assert cfg.scenario.seed == 5
    assert cfg.prune.seed == 77


def test_stage_validation_becomes_config_error():
    with pytest.raises(ConfigError):
        build_run_config(parse_config_text(
            "scenario.kind = synthetic\nprune.v_min = 0.9\nprune.v_max = 0.2\n"))
    with pytest.raises(ConfigError):
        build_run_config(parse_config_text(
            "scenario.kind = synthetic\nquant.psi_init = 9\nquant.psi_max = 4\n"))
    with pytest.raises(ConfigError):
        build_run_config(parse_config_text(
            "scenario.kind = synthetic\nmodel.layers = 784\n"))
    with pytest.raises(ConfigError, match="model.layers"):
        build_run_config(parse_config_text(
            "scenario.kind = synthetic\nmodel.layers = 784,ten,10\n"))
    with pytest.raises(ConfigError, match="run.mode"):
        build_run_config(parse_config_text(
            "scenario.kind = synthetic\nrun.mode = both\n"))
    with pytest.raises(ConfigError, match="scenario.kind"):
        build_run_config(parse_config_text("scenario.kind = mnist\n"))


def test_idx_scenario_requires_existing_paths(tmp_path):
    text = "scenario.kind = permuted\n"
    with pytest.raises(ConfigError, match="train_images"):
        build_run_config(parse_config_text(text))
    missing = text + "".join(
        f"scenario.{k} = {tmp_path / (k + '.idx')}\n"
        for k in ("train_images", "train_labels", "test_images", "test_labels"))
    cfg = build_run_config(parse_config_text(missing))
    with pytest.raises(ConfigError, match="no such file"):
        build_suite(cfg.scenario)


def test_overrides_merge_and_validate():
    raw = parse_config_text("scenario.kind = synthetic\nrun.seed = 1\n")
    merged = apply_overrides(raw, ["run.seed=9", "prune.population = 4"])
    cfg = build_run_config(merged)
    assert cfg.seed == 9
    assert cfg.prune.population == 4
    with pytest.raises(ConfigError):
        apply_overrides(raw, ["nonsense"])
    with pytest.raises(ConfigError):
        apply_overrides(raw, ["no.such.key=1"])


def test_load_run_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "scenario.kind = synthetic\nscenario.dim = 6\nscenario.classes = 3\n"
        "model.layers = 6,8,3\nrun.seed = 4\n")
    cfg = load_run_config(str(path), overrides=["scenario.samples=40"])
    assert cfg.model.layer_sizes == (6, 8, 3)
    assert cfg.scenario.samples == 40
    # canonical text is sorted, stable, and reparses to the same config
    text = cfg.canonical_text()
    assert text == "".join(
        f"{k} = {cfg.raw[k]}\n" for k in sorted(cfg.raw))
    again = build_run_config(parse_config_text(text))
    assert again.raw == cfg.raw


def test_build_suite_synthetic():
    cfg = build_run_config(parse_config_text(
        "scenario.kind = synthetic\nscenario.dim = 6\nscenario.classes = 3\n"
        "scenario.samples = 30\nscenario.n_tasks = 2\nmodel.layers = 6,8,3\n"))
    suite = build_suite(cfg.scenario)
    assert suite.kind == "synthetic"
    assert suite.n_tasks == 2
    assert suite.input_dim == 6
    task = suite.get_task(0)
    assert task.x_train.shape[1] == 6


def test_build_suite_permuted(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 256, size=(30, 16)).astype(np.float64) / 255.0
    y = rng.integers(0, 3, size=30)
    files = {}
    for tag in ("train", "test"):
        ip, lp = str(tmp_path / f"{tag}i.idx"), str(tmp_path / f"{tag}l.idx")
        save_idx(ip, lp, x, y)
        files[tag] = (ip, lp)
    text = (
        "scenario.kind = permuted\nscenario.n_tasks = 2\n"
        f"scenario.train_images = {files['train'][0]}\n"
        f"scenario.train_labels = {files['train'][1]}\n"
        f"scenario.test_images = {files['test'][0]}\n"
        f"scenario.test_labels = {files['test'][1]}\n"
        "model.layers = 16,8,3\n")
    suite = build_suite(build_run_config(parse_config_text(text)).scenario)
    assert suite.kind == "permuted"
    assert suite.input_dim == 16
    assert suite.n_classes == 3
    assert suite.descriptors[0] is None


def test_readme_config_table_matches_key_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default, meaning = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((key.strip("`"), default, meaning))

    def shown(key):
        if key == "scenario.seed":  # see test_run_seed_feeds_stages
            return "`run.seed`"
        default = key_default(key)
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        return "none" if default is None else f"`{default}`"

    assert rows == [(key, shown(key), meaning) for key, meaning in KEYS.items()]
