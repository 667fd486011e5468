"""End-to-end runs of the operator entry point."""

import argparse
import csv
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dygwin.tensor as T
from dygwin import checkpoint
from dygwin.checkpoint import load_checkpoint
from dygwin.cli import _add_common_flags, _make_run_dir, build_parser, main
from dygwin.config import config_hash, parse_config_file, resolve_config
from dygwin.data import load_cache
from dygwin.errors import ConfigError, ConsistencyError

from synthetic import make_synthetic_ctdg, write_synthetic_csv


SMALL_MODEL = ["--set", "node_dim=16", "--set", "time_dim=8", "--set", "num_layers=2",
               "--set", "num_neighbors=8"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    write_synthetic_csv(path, make_synthetic_ctdg(num_nodes=30, num_edges=300,
                                                  history=50, label_threshold=5, seed=3))
    return path


def run_dir_of(output_dir, prefix):
    matches = sorted(output_dir.glob(f"{prefix}-*"))
    assert matches, f"no {prefix} run directory under {output_dir}"
    return matches[-1]


def timing_report(run_dir) -> list[tuple[int, str, float]]:
    """Read back a run's per-epoch phase timing table."""
    with (Path(run_dir) / "timings.csv").open() as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(int(epoch), phase, float(ms)) for epoch, phase, ms in reader]


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("window_sise = 100\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("epochs = 7\nlr = 0.01\n")
        resolved = resolve_config(parse_config_file(cfg), {"epochs": 3})
        assert resolved.epochs == 3
        assert resolved.lr == 0.01

    def test_hash_stable_and_sensitive(self):
        a = resolve_config({}, {"epochs": 5})
        b = resolve_config({}, {"epochs": 5})
        c = resolve_config({}, {"epochs": 6})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("DYGWIN_SEED", "99")
        assert resolve_config().seed == 99

    def test_checkpoint_required_for_checkpoint_init(self):
        with pytest.raises(ConfigError):
            resolve_config({}, {"encoder_init": "checkpoint"})

    def test_readme_cli_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\n.*?```bash\n(.*?)```", readme, re.S).group(1)
        commands = [shlex.split(line, comments=True)
                    for line in block.replace("\\\n", " ").splitlines()]
        commands = [c for c in commands if c and c[0] == "dygwin"]
        assert {c[1] for c in commands} == {"ingest", "split", "pretrain", "train",
                                           "probe", "eval"}
        for command in commands:
            build_parser().parse_args(command[1:])  # argparse exits on an unknown flag


class TestSubcommands:
    def test_ingest_writes_cache_and_idmap(self, dataset, tmp_path):
        code = main(["ingest", "--dataset", str(dataset), "--output-dir", str(tmp_path)])
        assert code == 0
        run = run_dir_of(tmp_path, "ingest")
        assert (run / "ctdg.npz").exists()
        assert (run / "config.txt").exists()
        with (run / "idmap.csv").open() as fh:
            rows = list(csv.reader(fh))
        ctdg = load_cache(run / "ctdg.npz")
        assert rows[0] == ["original_id", "compact_id"]
        assert rows[1:] == [[str(orig), str(comp)]
                            for comp, orig in enumerate(ctdg.original_ids.tolist())]

    def test_loading_a_csv_leaves_its_directory_unchanged(self, dataset, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        copy = data_dir / dataset.name
        copy.write_bytes(dataset.read_bytes())
        out = tmp_path / "runs"
        assert main(["split", "--dataset", str(copy), "--output-dir", str(out)]) == 0
        assert main(["train", "--dataset", str(copy), "--output-dir", str(out),
                     "--epochs", "1", "--window-size", "120", "--set", "target_size=40",
                     *SMALL_MODEL]) == 0
        assert [p.name for p in data_dir.iterdir()] == [dataset.name]

    def test_split_manifest(self, dataset, tmp_path):
        code = main(["split", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--split-mode", "inductive"])
        assert code == 0
        manifest = (run_dir_of(tmp_path, "split") / "split.txt").read_text()
        assert "mode = inductive" in manifest

    @pytest.mark.parametrize("field, value", [
        ("masked_nodes", "999"),   # past the last node
        ("masked_nodes", "-1"),    # would wrap to the last node
        ("train_end", "500"),      # past the log's end, and after val_end
        ("train_end", "x"),        # not a number
        ("mode", "\udcff"),        # the byte 0xff, not UTF-8
        ("directory", None),       # a directory in place of the file
    ], ids=["masked_past_last_node", "masked_negative", "boundary_past_log", "boundary_text",
            "non_utf8", "directory"])
    def test_bad_split_manifest_is_data_error(self, dataset, tmp_path, capsys, field, value):
        fields = {"mode": "inductive", "train_end": "210", "val_end": "250", "seed": "0",
                  "masked_nodes": "3", field: value}
        manifest = tmp_path / "split.txt"
        if value is None:
            manifest.mkdir()
        else:
            manifest.write_bytes("".join(f"{key} = {text}\n" for key, text in fields.items())
                                 .encode("utf-8", "surrogateescape"))
        code = main(["split", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--split-file", str(manifest)])
        assert code == 3
        assert not list(tmp_path.glob("split-*"))
        err = capsys.readouterr().err
        assert "error kind=data" in err and "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["train", "probe"])
    def test_split_past_log_leaves_no_run_dir(self, dataset, tmp_path, subcommand):
        manifest = tmp_path / "split.txt"
        manifest.write_text("mode = transductive\ntrain_end = 500\nval_end = 250\n"
                            "seed = 0\nmasked_nodes = \n")
        out = tmp_path / "runs"
        code = main([subcommand, "--dataset", str(dataset), "--output-dir", str(out),
                     "--split-file", str(manifest), "--epochs", "1", *SMALL_MODEL])
        assert code == 3
        assert not list(out.glob("*"))

    def test_eval_without_checkpoint_is_config_error(self, dataset, tmp_path):
        code = main(["eval", "--dataset", str(dataset), "--output-dir", str(tmp_path)])
        assert code == 2

    def test_unknown_set_key_is_config_error(self, dataset, tmp_path):
        code = main(["ingest", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--set", "bogus=1"])
        assert code == 2

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_is_config_error(self, dataset, tmp_path, capsys, monkeypatch,
                                           source):
        out = tmp_path / "runs"
        seed_args = ["--seed", "-1"] if source == "flag" else []
        if source == "env":
            monkeypatch.setenv("DYGWIN_SEED", "-3")
        code = main(["train", "--dataset", str(dataset), "--output-dir", str(out),
                     "--epochs", "1", *seed_args, *SMALL_MODEL])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
    def test_lr_not_finite_and_positive_is_config_error(self, dataset, tmp_path, capsys, lr):
        out = tmp_path / "runs"
        code = main(["train", "--dataset", str(dataset), "--output-dir", str(out),
                     "--epochs", "1", "--set", f"lr={lr}", *SMALL_MODEL])
        assert code == 2
        assert "lr must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["seed", "window_size", "target_size", "num_neighbors",
                                     "num_layers", "num_heads", "node_dim", "time_dim",
                                     "ssl_window", "ssl_stride", "epochs", "val_every",
                                     "rank_negatives", "eval_horizon"])
    def test_integer_past_int64_is_config_error(self, dataset, tmp_path, capsys, key):
        out = tmp_path / "runs"
        value = f"1,{2 ** 63}" if key == "eval_horizon" else str(2 ** 63)
        code = main(["train", "--dataset", str(dataset), "--output-dir", str(out),
                     "--epochs", "1", *SMALL_MODEL, "--set", f"{key}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert f'error kind=config reason="{key} ' in err and "2**63" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["train", "pretrain", "eval"])
    @pytest.mark.parametrize("key", ["node_dim", "time_dim"])
    def test_dimension_too_large_to_allocate_is_config_error(self, dataset, tmp_path, capsys,
                                                             key, subcommand):
        # numpy rejects an array of 2**62 rows before it allocates anything
        out = tmp_path / "runs"
        code = main([subcommand, "--dataset", str(dataset), "--output-dir", str(out),
                     "--epochs", "1", "--checkpoint", str(tmp_path / "absent.dygw"),
                     *SMALL_MODEL, "--set", f"{key}={2 ** 62}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "too large to allocate" in err and "Traceback" not in err
        assert not out.exists()

    def test_encoder_contract_error_keeps_its_message(self, dataset, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(["train", "--dataset", str(dataset), "--output-dir", str(out),
                     "--epochs", "1", *SMALL_MODEL, "--set", "num_heads=3"])  # 16 % 3 != 0
        assert code == 2
        err = capsys.readouterr().err
        assert "must divide node_dim" in err and "too large" not in err
        assert not out.exists()

    def test_dnc_rank_negatives_is_config_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(["eval", "--task", "dnc", "--dataset", str(dataset), "--output-dir",
                     str(out), "--checkpoint", str(tmp_path / "absent.dygw"),
                     "--set", "rank_negatives=5", *SMALL_MODEL])
        assert code == 2
        assert "rank_negatives ranks FLP candidates only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["stride", "weight_decay", "hidden_dim",
                                     "edge_enc_scale", "freeze_encoder"])
    def test_removed_key_is_unknown(self, dataset, tmp_path, capsys, key):
        out = tmp_path / "runs"
        code = main(["train", "--dataset", str(dataset), "--output-dir", str(out),
                     "--epochs", "1", "--set", f"{key}=4", *SMALL_MODEL])
        assert code == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_every_common_flag_lands_in_config(self, dataset, tmp_path):
        out = tmp_path / "runs"
        given = {  # flag -> (value, config.txt line)
            "--dataset": (str(dataset), f"dataset = {dataset}"),
            "--output-dir": (str(out), f"output_dir = {out}"),
            "--seed": ("5", "seed = 5"),
            "--task": ("dnc", "task = dnc"),
            "--epochs": ("3", "epochs = 3"),
            "--window-size": ("64", "window_size = 64"),
            "--checkpoint": ("model.dygw", "checkpoint = model.dygw"),
            "--encoder-init": ("checkpoint", "encoder_init = checkpoint"),
            "--label-fraction": ("0.5", "label_fraction = 0.5"),
            "--split-mode": ("inductive", "split_mode = inductive"),
            "--split-file": ("split.txt", "split_file = split.txt"),
            "--eval-horizon": ("1,7", "eval_horizon = 1,7"),
        }
        parser = argparse.ArgumentParser(add_help=False)
        _add_common_flags(parser)
        assert {action.option_strings[0] for action in parser._actions} \
            == {*given, "--config", "--set"}
        argv = ["ingest"]
        for flag, (value, _) in given.items():
            argv += [flag, value]
        assert main(argv) == 0
        lines = (run_dir_of(out, "ingest") / "config.txt").read_text().splitlines()
        for flag, (_, line) in given.items():
            assert line in lines, flag

    @pytest.mark.parametrize("case", ["empty_file", "not_a_zip", "truncated_zip",
                                      "missing_column", "non_scalar_num_nodes"])
    def test_malformed_cache_is_data_error(self, tmp_path, capsys, case):
        cache = tmp_path / "bad.npz"
        columns = {"u": [0, 1], "v": [1, 2], "t": [1.0, 2.0], "feats": np.zeros((2, 0)),
                   "labels": [np.nan] * 2, "label_present": [False] * 2,
                   "num_nodes": 3, "original_ids": [0, 1, 2]}
        if case == "empty_file":
            cache.write_bytes(b"")
        elif case == "not_a_zip":
            cache.write_bytes(b"u,v,t\n0,1,1.0\n")
        else:
            if case == "missing_column":
                del columns["v"]
            elif case == "non_scalar_num_nodes":
                columns["num_nodes"] = [3, 4]
            np.savez(cache, **columns)
            if case == "truncated_zip":
                cache.write_bytes(cache.read_bytes()[:-40])
        out = tmp_path / "runs"
        code = main(["ingest", "--dataset", str(cache), "--output-dir", str(out)])
        assert code == 3
        assert "error kind=data" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("column, rows", [("feats", 1), ("labels", 1),
                                              ("label_present", 1), ("original_ids", 2),
                                              ("node_features", 2)])
    def test_cache_column_of_another_length_is_data_error(self, tmp_path, capsys,
                                                          column, rows):
        # Two edges over three nodes: edge columns need 2 rows, node columns 3.
        columns = {"u": [0, 1], "v": [1, 2], "t": [1.0, 2.0], "feats": np.zeros((2, 1)),
                   "labels": [np.nan] * 2, "label_present": [False] * 2,
                   "num_nodes": 3, "original_ids": [0, 1, 2],
                   "node_features": np.zeros((3, 4))}
        columns[column] = np.asarray(columns[column])[:rows]
        cache = tmp_path / "short.npz"
        np.savez(cache, **columns)
        out = tmp_path / "runs"
        code = main(["ingest", "--dataset", str(cache), "--output-dir", str(out)])
        assert code == 3
        assert "error kind=data" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("column", ["t", "feats", "labels", "node_features"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_cache_column_is_data_error(self, tmp_path, capsys, column, value):
        # The second edge's label is absent, so its NaN is no error.
        columns = {"u": [0, 1], "v": [1, 2], "t": [1.0, 2.0], "feats": np.zeros((2, 1)),
                   "labels": [1.0, np.nan], "label_present": [True, False],
                   "num_nodes": 3, "original_ids": [0, 1, 2],
                   "node_features": np.zeros((3, 4))}
        np.savez(tmp_path / "good.npz", **columns)
        assert main(["ingest", "--dataset", str(tmp_path / "good.npz"),
                     "--output-dir", str(tmp_path / "ok")]) == 0
        columns[column] = np.array(columns[column], dtype=np.float64)
        columns[column].flat[0] = value
        cache = tmp_path / "bad.npz"
        np.savez(cache, **columns)
        out = tmp_path / "runs"
        code = main(["ingest", "--dataset", str(cache), "--output-dir", str(out)])
        assert code == 3
        assert "error kind=data" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main(["ingest", "--dataset", str(tmp_path / "nope.csv"),
                     "--output-dir", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("flag, case, code", [
        ("--dataset", "non_utf8", 3), ("--dataset", "directory", 3),
        ("--config", "non_utf8", 2), ("--config", "directory", 3),
        ("--split-file", "directory", 3), ("--checkpoint", "directory", 3),
    ])
    def test_unreadable_input_file_is_typed_error(self, dataset, tmp_path, capsys, flag, case,
                                                  code):
        """A file that is not UTF-8 text, or a directory where a file belongs, is a data
        error (exit 3), except that a config file that is not UTF-8 is a config error."""
        path = tmp_path / "input"
        if case == "directory":
            path.mkdir()
        elif flag == "--dataset":
            path.write_bytes(b"u,v,t\n0,1,1.0\n1,2,\xff2.0\n")
        else:
            path.write_bytes(b"# \xe9poques\nepochs = 1\n")  # Latin-1, not UTF-8
        args = {"--dataset": str(dataset), "--output-dir": str(tmp_path / "runs"),
                "--checkpoint": str(tmp_path / "model.dygw"), flag: str(path)}
        assert main(["eval", *(item for pair in args.items() for item in pair)]) == code
        err = capsys.readouterr().err
        assert f"error kind={'config' if code == 2 else 'data'}" in err
        assert "Traceback" not in err and (case != "non_utf8" or "not UTF-8 text" in err)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("text, message", [
        ("u,v,t\n0,1,1.0\n1e20,2,2.0\n", "line 3: node id '1e20' in column 'u' is outside int64"),
        ("u,v,t,f0\n0,1,1.0,0.5\n1,2,2.0,nan\n", "line 3: non-finite value 'nan' in column 'f0'"),
        ("u,v,t,label,f0\n0,1,1.0,1,inf\n1,2,2.0,0,1\n",
         "line 2: non-finite value 'inf' in column 'f0'"),
        ("u,v,t,label\n0,1,1.0,1\n1,2,2.0,nan\n", "line 3: non-finite value 'nan' in column 'label'"),
    ])
    def test_unrepresentable_csv_value_is_data_error(self, tmp_path, capsys, text, message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        out = tmp_path / "runs"
        code = main(["ingest", "--dataset", str(csv_path), "--output-dir", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error kind=data" in err and message in err
        assert not out.exists()

    def test_byte_order_mark_csv_ingests_to_the_same_cache(self, tmp_path):
        text = "u,v,t,label,f0\n0,1,1.0,1,0.5\n1,2,2.0,,0.25\n".encode()
        caches = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(prefix + text)
            out = tmp_path / name
            assert main(["ingest", "--dataset", str(path), "--output-dir", str(out)]) == 0
            caches.append((run_dir_of(out, "ingest") / "ctdg.npz").read_bytes())
        assert caches[0] == caches[1]

    @pytest.mark.allow_nonfinite  # let the loss itself go non-finite
    def test_diverging_loss_is_numeric_failure(self, dataset, tmp_path):
        code = main(["train", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--epochs", "3", "--window-size", "120", "--set", "target_size=40",
                     "--set", "lr=1e18", *SMALL_MODEL])
        assert code == 4

    @pytest.mark.parametrize("error", [ConsistencyError])
    def test_internal_error_exit_code(self, dataset, tmp_path, monkeypatch, capsys, error):
        import dygwin.cli as cli

        def broken(*args, **kwargs):
            raise error("no embedding row for node 7")

        monkeypatch.setattr(cli, "train_downstream", broken)
        code = main(["train", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--epochs", "1", *SMALL_MODEL])
        assert code == 5
        assert 'error kind=internal reason="no embedding row for node 7"' \
            in capsys.readouterr().err

    def test_reruns_create_new_directories(self, dataset, tmp_path):
        assert main(["ingest", "--dataset", str(dataset), "--output-dir", str(tmp_path)]) == 0
        assert main(["ingest", "--dataset", str(dataset), "--output-dir", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("ingest-*"))) == 2

    def test_run_dir_taken_between_check_and_mkdir(self, tmp_path, monkeypatch):
        config = resolve_config({}, {"output_dir": str(tmp_path)})
        first = _make_run_dir(config, "train")
        # another run creates the name after any existence check would have looked
        monkeypatch.setattr(Path, "exists", lambda self: False)
        second = _make_run_dir(config, "train")
        assert first != second and (second / "config.txt").is_file()


@pytest.fixture(scope="module")
def artifacts(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    base = ["--dataset", str(dataset), "--output-dir", str(out), "--seed", "1",
            "--window-size", "120", "--set", "target_size=40",
            "--set", "lr=0.001", *SMALL_MODEL]
    assert main(["pretrain", *base, "--epochs", "2", "--set", "ssl_window=150",
                 "--set", "ssl_stride=75"]) == 0
    ssl_ckpt = run_dir_of(out, "pretrain") / "model.dygw"
    assert main(["train", *base, "--epochs", "2"]) == 0
    trained = run_dir_of(out, "train") / "model.dygw"
    assert main(["probe", *base, "--epochs", "2", "--encoder-init", "checkpoint",
                 "--checkpoint", str(ssl_ckpt)]) == 0
    return out, trained


class TestPipeline:
    def test_training_artifacts_complete(self, artifacts):
        out, _ = artifacts
        train_dir = run_dir_of(out, "train")
        for name in ("model.dygw", "history.csv", "timings.csv", "config.txt"):
            assert (train_dir / name).exists()

    def test_timing_table_shape(self, artifacts):
        out, _ = artifacts
        rows = timing_report(run_dir_of(out, "train"))
        assert len(rows) == 3 * 5  # (initial validation + 2 epochs) x phases
        assert {phase for _, phase, _ in rows} == {"sample", "encode", "decode", "step",
                                                  "validate"}
        validate = [ms for _, phase, ms in rows if phase == "validate"]
        assert all(ms > 0 for ms in validate)
        assert sum(ms for epoch, _, ms in rows if epoch == 0) == validate[0]

    def test_probe_keeps_pretrained_encoder(self, artifacts):
        out, _ = artifacts
        ssl_state = load_checkpoint(run_dir_of(out, "pretrain") / "model.dygw")
        probe_state = load_checkpoint(run_dir_of(out, "probe") / "model.dygw")
        for name, arr in ssl_state.items():
            if name.startswith("encoder/"):
                assert probe_state[name].tobytes() == arr.tobytes()

    def test_eval_report_schema(self, artifacts, dataset):
        out, trained = artifacts
        code = main(["eval", "--dataset", str(dataset), "--output-dir", str(out),
                     "--seed", "1", "--window-size", "120", "--checkpoint", str(trained),
                     "--eval-horizon", "1,40", "--set", "eval_split=both", *SMALL_MODEL])
        assert code == 0
        report = (run_dir_of(out, "eval") / "report.csv").read_text().splitlines()
        assert report[0] == "metric,horizon,split,value,seed"
        assert len(report) == 1 + 2 * 2  # horizons x splits

    @pytest.mark.parametrize("subcommand, setting", [
        ("train", "val_every=0"),
        ("train", "dropout=1.5"),
        ("train", "dropout=-0.1"),
        ("eval", "rank_negatives=-3"),
        ("eval", "eval_horizon="),
        ("eval", "eval_horizon=0"),
        ("train", "output_dir={file}"),        # an output directory that is a file
        ("train", "output_dir={file}/runs"),   # one under a file
    ])
    def test_out_of_range_key_is_config_error(self, artifacts, dataset, tmp_path, capsys,
                                              subcommand, setting):
        _, trained = artifacts
        out = tmp_path / "runs"
        (tmp_path / "afile").write_text("")
        code = main([subcommand, "--dataset", str(dataset), "--output-dir", str(out),
                     "--epochs", "1", "--window-size", "120", "--checkpoint", str(trained),
                     "--eval-horizon", "40", "--set", "target_size=40",
                     "--set", setting.format(file=tmp_path / "afile"), *SMALL_MODEL])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "error kind=config" in err and "Traceback" not in err

    def test_truncated_checkpoint_is_data_error(self, artifacts, dataset, tmp_path):
        _, trained = artifacts
        cut = tmp_path / "cut.dygw"
        cut.write_bytes(trained.read_bytes()[:-3])
        code = main(["eval", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--window-size", "120", "--checkpoint", str(cut),
                     "--eval-horizon", "40", *SMALL_MODEL])
        assert code == 3

    def test_version_1_checkpoint_is_data_error(self, artifacts, dataset, tmp_path,
                                                monkeypatch, capsys):
        # Version 1 stored each head's q/k/v block under its own name; it is
        # not read, so such a model must be trained again.
        _, trained = artifacts
        per_head = {}
        for name, arr in load_checkpoint(trained).items():
            stem, _, weight = name.rpartition("/")
            if weight in ("wq", "wk", "wv"):
                for h, block in enumerate(np.hsplit(arr, 2)):
                    per_head[f"{stem}/head{h}/{weight}"] = T.parameter(block)
            else:
                per_head[name] = T.parameter(arr)
        old = tmp_path / "v1.dygw"
        monkeypatch.setattr(checkpoint, "VERSION", 1)
        checkpoint.save_checkpoint(old, per_head)
        monkeypatch.undo()
        assert old.read_bytes()[4:8] == (1).to_bytes(4, "little")
        capsys.readouterr()
        code = main(["eval", "--dataset", str(dataset), "--output-dir", str(tmp_path / "runs"),
                     "--window-size", "120", "--checkpoint", str(old),
                     "--eval-horizon", "40", *SMALL_MODEL])
        assert code == 3
        err = capsys.readouterr().err
        assert "error kind=data" in err and "unsupported checkpoint version 1" in err
        assert "Traceback" not in err

    def test_dnc_probe_then_eval_from_checkpoint(self, artifacts, dataset, tmp_path):
        out, _ = artifacts
        args = ["--dataset", str(dataset), "--output-dir", str(tmp_path), "--seed", "1",
                "--window-size", "120", "--set", "target_size=40", "--task", "dnc",
                *SMALL_MODEL]
        assert main(["probe", *args, "--epochs", "1", "--encoder-init", "checkpoint",
                     "--checkpoint", str(run_dir_of(out, "pretrain") / "model.dygw")]) == 0
        probed = run_dir_of(tmp_path, "probe") / "model.dygw"
        assert main(["eval", *args, "--checkpoint", str(probed),
                     "--eval-horizon", "40"]) == 0
        report = (run_dir_of(tmp_path, "eval") / "report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in report[1:]] == ["auc", "ap"]

    def test_float64_run_saves_float64_decoder(self, dataset, tmp_path):
        assert main(["train", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--epochs", "1", "--window-size", "120", "--set", "target_size=40",
                     "--set", "precision=float64", *SMALL_MODEL]) == 0
        state = load_checkpoint(run_dir_of(tmp_path, "train") / "model.dygw")
        assert {arr.dtype for arr in state.values()} == {np.dtype(np.float64)}
        assert any(name.startswith("decoder/") for name in state)

    @pytest.mark.parametrize("task, decay", [("flp", 0.0), ("dnc", 1e-5)])
    def test_task_defaults_without_keys(self, dataset, tmp_path, monkeypatch, task, decay):
        import dygwin.downstream as downstream
        seen = []

        class RecordingAdam(downstream.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.weight_decay)

        monkeypatch.setattr(downstream, "Adam", RecordingAdam)
        assert main(["train", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--epochs", "1", "--window-size", "120", "--set", "target_size=40",
                     "--task", task, *SMALL_MODEL]) == 0
        assert seen == [decay]
        state = load_checkpoint(run_dir_of(tmp_path, "train") / "model.dygw")
        assert state["decoder/w1"].shape == (16 + 8, 16)  # hidden width = node_dim

    def test_ssl_log_has_component_columns(self, artifacts):
        out, _ = artifacts
        log = (run_dir_of(out, "pretrain") / "ssl_log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss,v,c,s"
        assert len(log) == 3

    def test_encode_time_grows_with_layers(self, dataset, tmp_path):
        times = {}
        for layers in (1, 3):
            out = tmp_path / f"layers{layers}"
            assert main(["train", "--dataset", str(dataset), "--output-dir", str(out),
                         "--epochs", "2", "--window-size", "120",
                         "--set", "target_size=40", "--set", f"num_layers={layers}",
                         "--set", "node_dim=16", "--set", "time_dim=8",
                         "--set", "num_neighbors=8"]) == 0
            rows = timing_report(run_dir_of(out, "train"))
            times[layers] = sum(ms for _, phase, ms in rows if phase == "encode")
        assert times[3] > times[1]

    def test_identical_seed_identical_reports(self, dataset, tmp_path):
        reports = []
        for attempt in range(2):
            out = tmp_path / f"rep{attempt}"
            args = ["--dataset", str(dataset), "--output-dir", str(out), "--seed", "7",
                    "--window-size", "120", "--set", "target_size=40", *SMALL_MODEL]
            assert main(["train", *args, "--epochs", "1"]) == 0
            model = run_dir_of(out, "train") / "model.dygw"
            assert main(["eval", *args, "--checkpoint", str(model),
                         "--eval-horizon", "40"]) == 0
            reports.append((run_dir_of(out, "eval") / "report.csv").read_bytes())
        assert reports[0] == reports[1]


def test_artifact_digests_script_is_well_formed_and_repeatable():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    outputs = [subprocess.run([sys.executable, str(root / "scripts" / "artifact_digests.py")],
                              env=env, capture_output=True, text=True, check=True).stdout
               for _ in range(2)]
    lines = outputs[0].splitlines()
    assert len(lines) == 20  # 18 featureless, then one train with node features
    for line in lines:
        assert re.fullmatch(r"\S+ (ctdg\.npz|model\.dygw|history\.csv|ssl_log\.csv"
                            r"|report\.csv) [0-9a-f]{64}", line), line
    assert outputs[1] == outputs[0]


def load_script(name: str):
    """``scripts/<name>.py`` as a module; it prepends bench/ to ``sys.path``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_eval_region_measures_a_small_region(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = load_script("region")
    result = script.measure_eval(cuts=3, window=40, warmup_cuts=1)
    assert (result["cuts"], result["window"]) == (3, 40)
    assert result["edges_per_s"] > 0 and result["peak_rss_mb"] > 0
    assert 0.0 <= result["ap"] <= 1.0


def test_train_region_measures_a_small_region(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = load_script("region")
    # A 250-edge log trains one K = 200 window of 100 edges.
    results = script.measure_train(window=100, extra_edges=150)
    assert [result["node_feature_dim"] for result in results] == [0, 172]
    for result in results:
        assert result["steps"] == 1 and result["messages_per_encode"] > 0
        assert result["edges_per_s"] > 0 and result["peak_rss_mb"] > 0


def test_pretrain_region_measures_a_small_window(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = load_script("region")
    # Two steps on one 300-edge window, each variant in its own process.
    results = script.measure_pretrain(window=300, steps=2)
    assert [result["edge_dim"] for result in results] == [0, 172]
    for result in results:
        assert (result["window"], result["steps"]) == (300, 2)
        assert len(result["messages_per_layer"]) == 3 and min(result["messages_per_layer"]) > 0
        assert result["ms_per_step"] > 0 and result["peak_rss_mb"] > 0
        assert np.isfinite(result["loss"])
