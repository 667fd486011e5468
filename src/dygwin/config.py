"""Flat run configuration: ``key = value`` files with CLI-flag overrides.

Unknown keys are rejected; missing keys fall back to the documented
defaults. The fully resolved configuration is written into every run
directory so an experiment can be re-run from its artifacts alone.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

SEED_ENV_VAR = "DYGWIN_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


@dataclass
class RunConfig:
    dataset: str = ""
    output_dir: str = "runs"
    seed: int = field(default_factory=_default_seed)
    precision: str = "float32"          # float32 | float64
    task: str = "flp"                   # flp | dnc

    # window framework
    window_size: int = 4096
    target_size: int = 200
    stride: int = 0                     # 0 -> equal to target_size
    num_neighbors: int = 20

    # encoder
    num_layers: int = 3
    num_heads: int = 2
    node_dim: int = 100
    time_dim: int = 100
    dropout: float = 0.1
    edge_enc_scale: str = "log1p"       # log1p | raw

    # pre-training
    ssl_window: int = 32000
    ssl_stride: int = 200
    p_drop_edge: float = 0.3
    p_mask_feat: float = 0.3

    # optimization
    epochs: int = 100
    lr: float = 1e-4
    weight_decay: float = -1.0          # negative -> task default (0 FLP, 1e-5 DNC)
    val_every: int = 1
    hidden_dim: int = 0                 # 0 -> node_dim

    # protocols
    freeze_encoder: bool = False
    encoder_init: str = "random"        # random | checkpoint
    checkpoint: str = ""
    label_fraction: float = 1.0

    # splitting
    split_mode: str = "transductive"    # transductive | inductive
    node_fraction: float = 0.1
    split_file: str = ""

    # evaluation
    eval_horizon: tuple[int, ...] = (1, 200, 2000)
    eval_split: str = "test"            # test | val | both
    rank_negatives: int = 0

    def validate(self) -> None:
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be float32 or float64, got {self.precision!r}")
        if self.task not in ("flp", "dnc"):
            raise ConfigError(f"task must be flp or dnc, got {self.task!r}")
        if self.split_mode not in ("transductive", "inductive"):
            raise ConfigError(f"split_mode must be transductive or inductive, got {self.split_mode!r}")
        if self.encoder_init not in ("random", "checkpoint"):
            raise ConfigError(f"encoder_init must be random or checkpoint, got {self.encoder_init!r}")
        if self.edge_enc_scale not in ("log1p", "raw"):
            raise ConfigError(f"edge_enc_scale must be log1p or raw, got {self.edge_enc_scale!r}")
        if self.eval_split not in ("test", "val", "both"):
            raise ConfigError(f"eval_split must be test, val or both, got {self.eval_split!r}")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ConfigError(f"label_fraction must be in (0, 1], got {self.label_fraction}")
        for key in ("window_size", "target_size", "num_neighbors", "num_layers",
                    "num_heads", "node_dim", "time_dim", "ssl_window", "ssl_stride",
                    "epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.encoder_init == "checkpoint" and not self.checkpoint:
            raise ConfigError("encoder_init=checkpoint requires a checkpoint path")

    @property
    def effective_weight_decay(self) -> float:
        if self.weight_decay >= 0:
            return self.weight_decay
        return 1e-5 if self.task == "dnc" else 0.0

    @property
    def effective_hidden_dim(self) -> int:
        return self.hidden_dim if self.hidden_dim > 0 else self.node_dim


_FIELD_TYPES = {f.name: f for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    if key == "eval_horizon":
        try:
            return tuple(int(x) for x in raw.split(",") if x.strip() != "")
        except ValueError:
            raise ConfigError(f"eval_horizon must be comma-separated integers, got {raw!r}") from None
    spec = _FIELD_TYPES[key]
    kind = spec.type
    try:
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw.strip()
    except ValueError:
        raise ConfigError(f"cannot parse config key {key!r} from {raw!r}") from None


def parse_config_file(path) -> dict[str, object]:
    values: dict[str, object] = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def resolve_config(file_values: dict | None = None,
                   overrides: dict | None = None) -> RunConfig:
    """Defaults, then file values, then CLI overrides (flags win)."""
    merged: dict[str, object] = {}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            needs_parse = isinstance(value, str) and _FIELD_TYPES[key].type != "str"
            merged[key] = _coerce(key, value) if needs_parse else value
    config = RunConfig(**merged)
    config.validate()
    return config


def config_lines(config: RunConfig) -> list[str]:
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if f.name == "eval_horizon":
            value = ",".join(str(x) for x in value)
        lines.append(f"{f.name} = {value}")
    return lines


def config_hash(config: RunConfig) -> str:
    digest = hashlib.sha256("\n".join(config_lines(config)).encode("utf-8"))
    return digest.hexdigest()[:12]


def write_config(path, config: RunConfig) -> None:
    Path(path).write_text("\n".join(config_lines(config)) + "\n")
