"""Run configuration: flat key=value files with typed sections.

The file format is one `key = value` pair per line, `#` comments, no nesting.
Unknown keys are rejected so typos fail loudly. Values are merged with
`--set key=value` overrides before validation.

`KEYS` lists every key with its meaning; README.md shows it as a table. A key
`section.field` takes the type and default of that field of the section's
dataclass (`_SECTIONS`), so each default is written once. `run.seed` feeds
every stage's seed, and `scenario.seed` too when that is not set.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .network import ModelSpec, TrainConfig
from .pruning import PruneConfig
from .quantization import QuantConfig
from .scenario import (ScenarioSuite, load_idx, permuted_scenario,
                       split_scenario, synthetic_blobs)

KEYS = {
    "scenario.kind": "`permuted`, `split`, or `synthetic`",
    "scenario.seed": "scenario-level seed (permutations, splits, blobs)",
    "scenario.n_tasks": "task count (`permuted`, `synthetic`)",
    "scenario.train_images": "IDX train image file (`permuted`, `split`)",
    "scenario.train_labels": "IDX train label file (`permuted`, `split`)",
    "scenario.test_images": "IDX test image file (`permuted`, `split`)",
    "scenario.test_labels": "IDX test label file (`permuted`, `split`)",
    "scenario.classes_per_task": "classes per task (`split`)",
    "scenario.classes": "classes per task (`synthetic`)",
    "scenario.dim": "feature dimension (`synthetic`)",
    "scenario.samples": "train samples per class, at least 2 (`synthetic`)",
    "scenario.separation": "class-mean spacing (`synthetic`)",
    "model.layers": "comma list: input dim, hidden sizes, class count",
    "train.batch_size": "minibatch size",
    "train.lr_initial": "initial learning rate",
    "train.lr_decay": "per-epoch decay factor, in (0, 1]",
    "train.lr_floor": "learning-rate floor",
    "prune.population": "candidate masks per task",
    "prune.alpha": "accuracy weight in candidate scoring",
    "prune.beta": "sparsity weight in candidate scoring",
    "prune.v_min": "per-layer sparsity band, lower edge",
    "prune.v_max": "per-layer sparsity band, upper edge",
    "prune.short_epochs": "epochs per candidate before scoring",
    "prune.full_epochs": "epochs for the winning candidate",
    "prune.t_l": "max components per slot",
    "prune.psi_min": "bits a slot must still have free to be claimable",
    "quant.psi_init": "starting bit-width",
    "quant.psi_max": "bit-width ceiling before accepting the shortfall",
    "quant.delta": "allowed accuracy drop vs full precision",
    "quant.kmeans_iters": "Lloyd iterations per restart (large inputs)",
    "quant.kmeans_restarts": "extra seeded restarts (large inputs)",
    "run.mode": "`full`, `pruning-only`, or `quantization-only`",
    "run.output_dir": "report and checkpoint directory",
    "run.seed": "master seed for init, candidates, training, k-means",
}

MODES = ("full", "pruning-only", "quantization-only")
_IDX_FIELDS = ("train_images", "train_labels", "test_images", "test_labels")


@dataclass
class ScenarioConfig:
    kind: str = "permuted"
    seed: int = 0
    n_tasks: int = 3
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None
    classes_per_task: int = 2
    classes: int = 5
    dim: int = 16
    samples: int = 200
    separation: float = 8.0


@dataclass
class RunConfig:
    scenario: ScenarioConfig
    model: ModelSpec
    train: TrainConfig
    prune: PruneConfig
    quant: QuantConfig
    mode: str = "full"
    output_dir: str = "run_out"
    seed: int = 0
    raw: dict = field(default_factory=dict)

    def canonical_text(self) -> str:
        """The merged key=value pairs, sorted; embedded in checkpoints."""
        return "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw)) + "\n"


_SECTIONS = {"scenario": ScenarioConfig, "model": ModelSpec, "train": TrainConfig,
             "prune": PruneConfig, "quant": QuantConfig, "run": RunConfig}


def _key_field(key):
    section, _, name = key.partition(".")
    name = "layer_sizes" if key == "model.layers" else name
    return next(f for f in fields(_SECTIONS[section]) if f.name == name)


_FIELDS = {key: _key_field(key) for key in KEYS}


def key_default(key):
    """The field default behind a key; a left-out scenario.seed takes run.seed's."""
    return _FIELDS[key].default


def _pair(text, where):
    """`key = value` split and stripped; rejects a missing `=` or unknown key."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key = value, got {text!r}")
    key, _, value = text.partition("=")
    key, value = key.strip(), value.strip()
    if key not in KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value


def parse_config_text(text) -> dict:
    """key=value lines to a raw string dict; rejects unknown or malformed keys."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            key, value = _pair(stripped, f"line {lineno}")
            raw[key] = value
    return raw


def apply_overrides(raw, overrides) -> dict:
    merged = dict(raw)
    for item in overrides or []:
        key, value = _pair(item, "override")
        merged[key] = value
    return merged


def _typed(key, text):
    """A raw value as the type of its field's default; None means a path.

    A float key refuses `inf` and `nan`, which `float` parses.
    """
    default = key_default(key)
    try:
        if isinstance(default, tuple):
            return tuple(int(v) for v in text.split(","))
        if not isinstance(default, (int, float)):
            return text
        value = type(default)(text)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r}") from None
    # an int above 1e308 would overflow math.isfinite
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: {text!r} is not a finite number")
    return value


def build_run_config(raw: dict) -> RunConfig:
    """Validate merged raw keys into a RunConfig; raises ConfigError."""
    given = {section: {} for section in _SECTIONS}
    for key, text in raw.items():
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}")
        given[key.partition(".")[0]][_FIELDS[key].name] = _typed(key, text)
    seed = given["run"].get("seed", key_default("run.seed"))
    try:
        scenario = ScenarioConfig(**{"seed": seed, **given["scenario"]})
        model = ModelSpec(**given["model"])
        prune = PruneConfig(**given["prune"], seed=seed)
        train = TrainConfig(**given["train"], epochs=prune.full_epochs, seed=seed)
        quant = QuantConfig(**given["quant"], seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = RunConfig(scenario, model, train, prune, quant, **given["run"], raw=dict(raw))

    if cfg.mode not in MODES:
        raise ConfigError(f"run.mode must be one of {MODES}, got {cfg.mode!r}")
    if scenario.kind not in ("permuted", "split", "synthetic"):
        raise ConfigError(f"scenario.kind {scenario.kind!r} not recognized")
    if scenario.kind != "synthetic":
        for name in _IDX_FIELDS:
            if getattr(scenario, name) is None:
                raise ConfigError(f"scenario.{name} required for {scenario.kind}")
    return cfg


def load_run_config(path, overrides=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return build_run_config(apply_overrides(parse_config_text(text), overrides))


def _read_idx(cfg: ScenarioConfig, split):
    """load_idx of a split's image and label files; ConfigError if one is unreadable."""
    images, labels = f"{split}_images", f"{split}_labels"
    try:
        return load_idx(getattr(cfg, images), getattr(cfg, labels))
    except OSError as exc:
        key = images if exc.filename == getattr(cfg, images) else labels
        raise ConfigError(f"scenario.{key}: cannot read {getattr(cfg, key)!r}: "
                          f"{exc.strerror or exc}") from None


def build_suite(cfg: ScenarioConfig) -> ScenarioSuite:
    """Materialize the scenario a config describes; the only reader of its files.

    A file that cannot be read, or a value the scenario's constructor
    refuses, raises ConfigError.
    """
    if cfg.kind != "synthetic":
        for name in _IDX_FIELDS:
            path = getattr(cfg, name)
            if not os.path.exists(path):
                raise ConfigError(f"scenario.{name}: no such file {path!r}")
        train, test = _read_idx(cfg, "train"), _read_idx(cfg, "test")
        for split, (x, _) in (("train", train), ("test", test)):
            if len(x) == 0:
                name = f"{split}_images"
                raise ConfigError(f"scenario.{name}: {getattr(cfg, name)!r} holds "
                                  f"no images, so the {split} split is empty")
    try:
        if cfg.kind == "synthetic":
            return synthetic_blobs(cfg.n_tasks, cfg.classes, cfg.dim,
                                   cfg.samples, cfg.separation, cfg.seed)
        if cfg.kind == "permuted":
            return permuted_scenario(train, test, cfg.n_tasks, cfg.seed)
        return split_scenario(train, test, cfg.classes_per_task, cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from None
