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

from .errors import ConfigError, read_text

SEED_ENV_VAR = "DYGWIN_SEED"
INT64_BOUND = 2 ** 63  # integer settings become numpy int64 sizes, indices and seeds


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
    num_neighbors: int = 20

    # encoder
    num_layers: int = 3
    num_heads: int = 2
    node_dim: int = 100
    time_dim: int = 100
    dropout: float = 0.1

    # pre-training
    ssl_window: int = 32000
    ssl_stride: int = 200
    p_drop_edge: float = 0.3
    p_mask_feat: float = 0.3

    # optimization
    epochs: int = 100
    lr: float = 1e-4
    val_every: int = 1

    # protocols
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
        if self.eval_split not in ("test", "val", "both"):
            raise ConfigError(f"eval_split must be test, val or both, got {self.eval_split!r}")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ConfigError(f"label_fraction must be in (0, 1], got {self.label_fraction}")
        for key in ("window_size", "target_size", "num_neighbors", "num_layers",
                    "num_heads", "node_dim", "time_dim", "ssl_window", "ssl_stride",
                    "epochs", "val_every"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in (f.name for f in fields(self) if f.type == "int"):
            if getattr(self, key) >= INT64_BOUND:
                raise ConfigError(f"{key} must be < 2**63, got {getattr(self, key)}")
        if not self.eval_horizon or not all(1 <= k < INT64_BOUND for k in self.eval_horizon):
            raise ConfigError(f"eval_horizon needs one or more horizons in [1, 2**63), "
                              f"got {self.eval_horizon!r}")
        if self.seed < 0:  # numpy's generators take non-negative seeds only
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.rank_negatives < 0:
            raise ConfigError(f"rank_negatives must be >= 0, got {self.rank_negatives}")
        if self.task == "dnc" and self.rank_negatives > 0:
            raise ConfigError("rank_negatives ranks FLP candidates only, not dnc's")
        if not 0.0 < self.lr < float("inf"):  # also rejects NaN
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.encoder_init == "checkpoint" and not self.checkpoint:
            raise ConfigError("encoder_init=checkpoint requires a checkpoint path")


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
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw.strip()
    except ValueError:
        raise ConfigError(f"cannot parse config key {key!r} from {raw!r}") from None


def parse_config_file(path) -> dict[str, object]:
    values: dict[str, object] = {}
    for line_no, line in enumerate(read_text(path, ConfigError).splitlines(), start=1):
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
