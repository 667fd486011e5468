"""End-to-end runs of the operator entry point."""

import re
import shlex
from pathlib import Path

import pytest

from dygwin.checkpoint import load_checkpoint
from dygwin.cli import _make_run_dir, build_parser, main, timing_report
from dygwin.config import config_hash, parse_config_file, resolve_config
from dygwin.errors import ConfigError
from dygwin.synthetic import make_synthetic_ctdg, write_synthetic_csv


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
        assert dataset.with_suffix(".idmap").exists()

    def test_split_manifest(self, dataset, tmp_path):
        code = main(["split", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--split-mode", "inductive"])
        assert code == 0
        manifest = (run_dir_of(tmp_path, "split") / "split.txt").read_text()
        assert "mode = inductive" in manifest

    def test_eval_without_checkpoint_is_config_error(self, dataset, tmp_path):
        code = main(["eval", "--dataset", str(dataset), "--output-dir", str(tmp_path)])
        assert code == 2

    def test_unknown_set_key_is_config_error(self, dataset, tmp_path):
        code = main(["ingest", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--set", "bogus=1"])
        assert code == 2

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main(["ingest", "--dataset", str(tmp_path / "nope.csv"),
                     "--output-dir", str(tmp_path)])
        assert code == 3

    def test_diverging_loss_is_numeric_failure(self, dataset, tmp_path):
        from dygwin import tensor as tensor_mod
        tensor_mod.set_debug_checks(False)  # let the loss itself go non-finite
        code = main(["train", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--epochs", "3", "--window-size", "120", "--set", "target_size=40",
                     "--set", "lr=1e18", *SMALL_MODEL])
        assert code == 4

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
        assert len(rows) == 2 * 4  # epochs x phases
        assert {phase for _, phase, _ in rows} == {"sample", "encode", "decode", "step"}

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

    def test_truncated_checkpoint_is_data_error(self, artifacts, dataset, tmp_path):
        _, trained = artifacts
        cut = tmp_path / "cut.dygw"
        cut.write_bytes(trained.read_bytes()[:-3])
        code = main(["eval", "--dataset", str(dataset), "--output-dir", str(tmp_path),
                     "--window-size", "120", "--checkpoint", str(cut),
                     "--eval-horizon", "40", *SMALL_MODEL])
        assert code == 3

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
