"""Short runs of every workload, with the sizes shrunk so each takes seconds."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WINDOW", 400)
    monkeypatch.setattr(workloads, "TRAIN_EDGES", 600)
    monkeypatch.setattr(workloads, "SSL_EDGES", 600)
    monkeypatch.setattr(run, "ROOT", tmp_path)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_emits_every_metric_with_its_unit(small, name, trace, capsys):
    result = run.run_workload(name, seed=3, seconds=0.0, trace=trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: m["unit"] for k, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = capsys.readouterr().out
    assert all(m["name"] in printed for m in listed)
    assert '"digest"' in printed and '"nproc"' in printed
    if trace:
        assert result["metrics"]["features.oracle_rows"]["value"] > 0
        assert result["metrics"]["features.oracle_mismatches"]["value"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "flp_train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_timings_are_scaled_to_the_reference_speed(capsys):
    samples = run.Samples(wall_s=[2.0, 4.0, 3.0], setup_s=[0.1, 0.3, 0.2],
                          reference_s=[2 * run.REFERENCE_S] * 3,
                          outcomes=[workloads.Outcome(edges=6, attempted=1, failed=0)] * 3)
    metrics = run.end_to_end(samples)
    assert metrics["edges_per_s"] == (pytest.approx(2 * 2.0), "edges/s")
    assert metrics["setup_s"] == (pytest.approx(0.2 / 2), "s")
    assert "# raw: edges/s 2.000000, set-up s 0.200000" in capsys.readouterr().out
