"""Print a sha256 for every artifact of a fixed, seeded CLI pipeline.

The pipeline writes a fixed interaction log, then runs ingest, pretrain, train
and probe for FLP and DNC, an inductive FLP train, and eval for both tasks
(K=1, 40 and 200 on val and test; FLP also ranks 20 negatives per edge). It
prints one ``run file sha256`` line per ``ctdg.npz``, ``model.dygw``,
``history.csv``, ``ssl_log.csv`` and ``report.csv``. The package comes from
``PYTHONPATH``, so two checkouts that should save the same bytes print the
same lines:

    PYTHONPATH=src python scripts/artifact_digests.py > change.txt
    PYTHONPATH=../parent/src python scripts/artifact_digests.py > parent.txt
    diff parent.txt change.txt

``--precision {float32,float64}`` sets the runs' ``precision`` key (default
float32, the CLI's own default). A change that should keep float64 bits but
moves float32 rounding is checked with ``--precision float64`` on both sides.
The CLI's own output and the package path go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

import dygwin
from dygwin.cli import main

ARTIFACTS = ("ctdg.npz", "model.dygw", "history.csv", "ssl_log.csv", "report.csv")
MODEL = ["--seed", "1", "--epochs", "3", "--window-size", "120", "--set", "target_size=40",
         "--set", "lr=0.01", "--set", "node_dim=16", "--set", "time_dim=8",
         "--set", "num_layers=2", "--set", "num_neighbors=8"]
EVAL = ["--eval-horizon", "1,40,200", "--set", "eval_split=both"]


def write_log(path: Path, num_nodes: int = 40, num_edges: int = 600) -> None:
    """Seeded log: repeat contacts among recent pairs, exponential gaps, a
    label that marks a third of the sources, and two edge features."""
    rng = np.random.default_rng(20221)
    u = rng.integers(0, num_nodes, num_edges)
    v = (u + rng.integers(1, num_nodes, num_edges)) % num_nodes
    for i in np.flatnonzero(rng.random(num_edges) < 0.8):
        if i > 0:
            j = rng.integers(max(0, i - 20), i)
            u[i], v[i] = u[j], v[j]
    t = np.cumsum(rng.exponential(1.0, num_edges))
    feats = rng.normal(size=(num_edges, 2))
    lines = ["u,v,t,label,f0,f1"]
    lines += [f"{a},{b},{when:.3f},{int(a % 3 == 0)},{f0:.4f},{f1:.4f}"
              for a, b, when, (f0, f1) in zip(u, v, t, feats)]
    path.write_text("\n".join(lines) + "\n")


def run(root: Path, label: str, args: list[str]) -> Path:
    """Run one subcommand into its own output directory; return its run dir."""
    out = root / label
    with contextlib.redirect_stdout(sys.stderr):
        code = main([*args, "--output-dir", str(out)])
    if code != 0:
        raise SystemExit(f"{label}: exit code {code}")
    (run_dir,) = out.iterdir()
    return run_dir


def print_digests(precision: str = "float32") -> None:
    print(f"dygwin from {Path(dygwin.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        log = root / "log.csv"
        write_log(log)
        base = ["--dataset", str(log), *MODEL, "--set", f"precision={precision}"]
        runs = {"ingest": run(root, "ingest", ["ingest", "--dataset", str(log)])}
        runs["pretrain"] = run(root, "pretrain", [
            "pretrain", *base, "--set", "ssl_window=150", "--set", "ssl_stride=75"])
        ssl = ["--encoder-init", "checkpoint", "--checkpoint",
               str(runs["pretrain"] / "model.dygw")]
        for task in ("flp", "dnc"):
            runs[f"train-{task}"] = run(root, f"train-{task}", ["train", *base, "--task", task])
            runs[f"probe-{task}"] = run(root, f"probe-{task}",
                                        ["probe", *base, "--task", task, *ssl])
        runs["train-flp-inductive"] = run(root, "train-flp-inductive",
                                          ["train", *base, "--split-mode", "inductive"])
        for task, extra in (("flp", ["--set", "rank_negatives=20"]), ("dnc", [])):
            checkpoint = str(runs[f"train-{task}"] / "model.dygw")
            runs[f"eval-{task}"] = run(root, f"eval-{task}", [
                "eval", *base, "--task", task, "--checkpoint", checkpoint, *EVAL, *extra])
        for label, run_dir in runs.items():
            for name in ARTIFACTS:
                if (run_dir / name).exists():
                    digest = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                    print(f"{label} {name} {digest}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--precision", choices=("float32", "float64"), default="float32")
    print_digests(parser.parse_args().precision)
