"""Operator entry point: ingest, split, pretrain, train, probe, eval.

Every subcommand resolves one configuration (defaults < config file < CLI
flags), writes it into a fresh run directory named by config hash and
timestamp, and leaves all artifacts there. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric failure, 5 internal error
(a broken invariant, such as a row the encoder was not asked for).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_model, save_model
from .config import RunConfig, config_hash, parse_config_file, resolve_config, write_config
from .data import (CTDG, chronological_split, inductive_split, load_cache, load_csv,
                   load_split_manifest, save_cache, save_split_manifest,
                   split_edge_indices)
from .downstream import TrainConfig, evaluate, init_decoder, train_downstream
from .encoder import EncoderParams, init_encoder
from .errors import ConfigError, ConsistencyError, ContractError, DataError, NumericFailure
from .metrics import write_metrics_report
from .pretrain import PretrainConfig, init_predictor, pretrain
from .timing import PhaseTimer


def _fail(kind: str, message: str, code: int) -> int:
    print(f'error kind={kind} reason="{message}"', file=sys.stderr)
    return code


def _make_run_dir(config: RunConfig, subcommand: str) -> Path:
    base = Path(config.output_dir)
    try:
        base.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output_dir {base} is not a directory") from exc
    name = f"{subcommand}-{config_hash(config)}-{time.strftime('%Y%m%d-%H%M%S')}"
    for counter in itertools.count():
        candidate = base / (f"{name}-{counter}" if counter else name)
        try:
            candidate.mkdir()  # claims the name; a run starting alongside takes the next
        except FileExistsError:
            continue
        write_config(candidate / "config.txt", config)
        return candidate


def _load_dataset(config: RunConfig) -> CTDG:
    if not config.dataset:
        raise ConfigError("no dataset configured")
    path = Path(config.dataset)
    if path.suffix == ".npz":
        return load_cache(path)
    return load_csv(path)


def _get_split(config: RunConfig, ctdg: CTDG):
    if config.split_file:
        return load_split_manifest(config.split_file)
    if config.split_mode == "inductive":
        return inductive_split(ctdg, node_fraction=config.node_fraction, seed=config.seed)
    return chronological_split(ctdg)


def _dtype(config: RunConfig):
    return np.float64 if config.precision == "float64" else np.float32


def _make_encoder(config: RunConfig, ctdg: CTDG) -> EncoderParams:
    """The run's encoder: no decoder or predictor matrix is larger than its own."""
    try:
        return init_encoder(num_layers=config.num_layers, node_dim=config.node_dim,
                            time_dim=config.time_dim, edge_dim=ctdg.edge_dim,
                            node_feature_dim=ctdg.node_dim, heads=config.num_heads,
                            dropout=config.dropout, seed=config.seed, dtype=_dtype(config))
    except ContractError:
        raise
    except (ValueError, MemoryError) as exc:  # numpy: a size it cannot allocate
        raise ConfigError(f"node_dim / time_dim too large to allocate: {exc}") from exc


def _train_config(config: RunConfig) -> TrainConfig:
    return TrainConfig(window=config.window_size, target_size=config.target_size,
                       epochs=config.epochs, lr=config.lr,
                       max_neighbors=config.num_neighbors, seed=config.seed,
                       val_every=config.val_every)


def _write_history(path: Path, history: list[dict]) -> None:
    keys = sorted({key for row in history for key in row})
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in history:
            writer.writerow([row.get(k, "") for k in keys])


def cmd_ingest(config: RunConfig) -> int:
    ctdg = _load_dataset(config)
    run_dir = _make_run_dir(config, "ingest")
    save_cache(ctdg, run_dir / "ctdg.npz")
    with (run_dir / "idmap.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["original_id", "compact_id"])
        writer.writerows(zip(ctdg.original_ids.tolist(), range(ctdg.num_nodes)))
    print(f"ingested {len(ctdg)} edges over {ctdg.num_nodes} nodes -> {run_dir / 'ctdg.npz'}")
    return 0


def cmd_split(config: RunConfig) -> int:
    ctdg = _load_dataset(config)
    split = _get_split(config, ctdg)
    train, val, test = split_edge_indices(ctdg, split)
    run_dir = _make_run_dir(config, "split")
    save_split_manifest(run_dir / "split.txt", split)
    print(f"split {split.mode}: train={len(train)} val={len(val)} test={len(test)}"
          f" -> {run_dir / 'split.txt'}")
    return 0


def cmd_pretrain(config: RunConfig) -> int:
    ctdg = _load_dataset(config)
    split = _get_split(config, ctdg)
    train_idx, _, _ = split_edge_indices(ctdg, split)
    train_ctdg = ctdg.subset(train_idx)
    encoder = _make_encoder(config, ctdg)
    predictor = init_predictor(config.node_dim, seed=config.seed, dtype=_dtype(config))
    settings = PretrainConfig(window=config.ssl_window, stride=config.ssl_stride,
                              epochs=config.epochs, lr=config.lr,
                              max_neighbors=config.num_neighbors, seed=config.seed,
                              p_drop_edge=config.p_drop_edge, p_mask_feat=config.p_mask_feat)
    run_dir = _make_run_dir(config, "pretrain")
    timer = PhaseTimer()
    log_path = run_dir / "ssl_log.csv"
    with log_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "v", "c", "s"])
        history, skipped = pretrain(
            train_ctdg, encoder, predictor, settings, timer=timer,
            log_fn=lambda row: writer.writerow(
                [row["epoch"], f"{row['loss']:.8f}", f"{row['v']:.8f}",
                 f"{row['c']:.8f}", f"{row['s']:.8f}"]))
    save_model(run_dir / "model.dygw", encoder=encoder, predictor=predictor)
    timer.write(run_dir / "timings.csv")
    final = history[-1]["loss"] if history else float("nan")
    print(f"pre-trained {config.epochs} epochs (skipped {skipped} batches), "
          f"final loss {final:.6f} -> {run_dir / 'model.dygw'}")
    return 0


def cmd_train(config: RunConfig, force_freeze: bool = False) -> int:
    ctdg = _load_dataset(config)
    split = _get_split(config, ctdg)
    split.masked_filter(ctdg)  # a split that does not fit the log leaves no run dir
    encoder = _make_encoder(config, ctdg)
    if config.encoder_init == "checkpoint":
        load_model(config.checkpoint, encoder=encoder)
    run_dir = _make_run_dir(config, "probe" if force_freeze else "train")
    timer = PhaseTimer()
    result = train_downstream(ctdg, split, config.task, encoder,
                              freeze_encoder=force_freeze,
                              label_fraction=config.label_fraction,
                              config=_train_config(config), timer=timer)
    save_model(run_dir / "model.dygw", encoder=result.encoder, decoder=result.decoder)
    _write_history(run_dir / "history.csv", result.history)
    timer.write(run_dir / "timings.csv")
    best = "n/a" if result.best_val_ap is None else f"{result.best_val_ap:.4f}"
    print(f"trained {config.task} ({'frozen' if force_freeze else 'full'} encoder), "
          f"best val AP {best} at epoch {result.best_epoch} -> {run_dir / 'model.dygw'}")
    return 0


def cmd_eval(config: RunConfig) -> int:
    if not config.checkpoint:
        raise ConfigError("eval requires a checkpoint path")
    ctdg = _load_dataset(config)
    split = _get_split(config, ctdg)
    encoder = _make_encoder(config, ctdg)
    decoder = init_decoder(config.task, config.node_dim, config.time_dim, seed=config.seed,
                           dtype=encoder.dtype)
    load_model(config.checkpoint, encoder=encoder, decoder=decoder)

    train_end, val_end = split.boundaries
    regions = {"val": (train_end, val_end), "test": (val_end, len(ctdg))}
    wanted = ("val", "test") if config.eval_split == "both" else (config.eval_split,)
    target_filter = split.masked_filter(ctdg)

    rows = []
    for split_name in wanted:
        for horizon in config.eval_horizon:
            report = evaluate(config.task, ctdg, regions[split_name], encoder, decoder,
                              config.window_size, horizon, config.num_neighbors,
                              config.seed, target_filter=target_filter,
                              rank_negatives=config.rank_negatives)
            rows.extend((metric, horizon, split_name, value, config.seed)
                        for metric, value in report.items() if not metric.startswith("num_"))
    run_dir = _make_run_dir(config, "eval")
    write_metrics_report(run_dir / "report.csv", rows)
    for metric, horizon, split_name, value, _ in rows:
        shown = "absent" if value is None else f"{value:.4f}"
        print(f"{split_name} {metric}@K={horizon}: {shown}")
    print(f"report -> {run_dir / 'report.csv'}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "split": cmd_split,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "probe": lambda config: cmd_train(config, force_freeze=True),
    "eval": cmd_eval,
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """Every flag but ``--config`` and ``--set`` sets the config key of its dest;
    a flag not given is absent from the parsed namespace."""
    parser.add_argument("--config", default=None, help="flat key = value config file")
    parser.add_argument("--dataset", help="CSV dataset or .npz cache")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--task", choices=("flp", "dnc"))
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--window-size", dest="window_size", type=int)
    parser.add_argument("--checkpoint")
    parser.add_argument("--encoder-init", dest="encoder_init", choices=("random", "checkpoint"))
    parser.add_argument("--label-fraction", dest="label_fraction", type=float)
    parser.add_argument("--split-mode", dest="split_mode", choices=("transductive", "inductive"))
    parser.add_argument("--split-file", dest="split_file")
    parser.add_argument("--eval-horizon", dest="eval_horizon",
                        help="comma-separated evaluation horizons, e.g. 1,200,2000")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key")


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("subcommand", "config", "set")}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dygwin",
                                     description="Window-based dynamic graph learning engine")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        _add_common_flags(subparsers.add_parser(name, argument_default=argparse.SUPPRESS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        config = resolve_config(file_values, _collect_overrides(args))
        return _COMMANDS[args.subcommand](config)
    except (ConfigError, ContractError) as exc:
        return _fail("config", str(exc), 2)
    except (DataError, FileNotFoundError, IsADirectoryError) as exc:
        return _fail("data", str(exc), 3)
    except NumericFailure as exc:
        return _fail("numeric", str(exc), 4)
    except ConsistencyError as exc:
        return _fail("internal", str(exc), 5)


if __name__ == "__main__":
    sys.exit(main())
