"""Run ``bench/run.py --workload all`` on two checkouts in alternating pairs
and write their per-run figures, medians and quartiles to one JSON file.

Pair i uses seed ``--seed + i`` on both sides; even pairs run the parent
first, odd pairs the change first. Each checkout runs its own ``bench/run.py``
against its own ``src``, so give two full trees, for example two
``git archive`` exports:

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seconds 40 --seed 301 --out BENCH_flp_train.json

For every workload and end-to-end metric the file holds each side's runs,
median and quartiles, and how many pairs the change won (ties count for
neither side).

After each side's benchmark run, the pair also runs this checkout's
``scripts/region.py`` against that side's ``src`` and reads the JSON object on
its last line. The file's ``region`` entry holds each of its numeric figures,
named ``eval.<figure>``, ``train.node_features_<dim>.<figure>`` and
``pretrain.edge_features_<dim>.<figure>``, with each side's runs, median and
quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

REGION = Path(__file__).resolve().parent / "region.py"


def run_all(checkout: Path, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def run_region(checkout: Path) -> dict[str, float]:
    """``scripts/region.py`` of this checkout on ``checkout``'s package, as flat named figures."""
    cmd = [sys.executable, str(REGION)]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} on {checkout} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    named = {f"eval.{key}": value for key, value in result["eval"].items()}
    for kind, width, label in (("train", "node_feature_dim", "node_features"),
                               ("pretrain", "edge_dim", "edge_features")):
        for variant in result[kind]:
            named.update({f"{kind}.{label}_{variant[width]}.{key}": value
                          for key, value in variant.items()})
    return {name: float(value) for name, value in named.items()
            if isinstance(value, (int, float))}


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"runs": values, "median": float(median), "q1": float(q1), "q3": float(q3)}


def report(runs: dict[str, list[dict]], regions: dict[str, list[dict]], seed: int,
           seconds: float) -> dict:
    workloads = {}
    for name, first in runs["parent"][0].items():
        workloads[name] = {"failed": {side: [r[name]["failed"] for r in runs[side]]
                                      for side in runs}}
        for metric, entry in first["metrics"].items():
            values = {side: [r[name]["metrics"][metric]["value"] for r in runs[side]]
                      for side in runs}
            better = np.greater if metric == "edges_per_s" else np.less  # the rest are costs
            workloads[name][metric] = {
                "unit": entry["unit"],
                **{side: summary(values[side]) for side in runs},
                "change_wins": int(np.sum(better(values["change"], values["parent"]))),
            }
    pairs = len(runs["change"])
    return {"command": f"bench/run.py --workload all --seconds {seconds:g}",
            "pairs": pairs, "seeds": [seed + i for i in range(pairs)],
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__},
            "workloads": workloads,
            "region": {"command": "PYTHONPATH=<side>/src python scripts/region.py",
                       **{name: {side: summary([r[name] for r in regions[side]])
                                 for side in regions}
                          for name in regions["parent"][0]}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    regions = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_all(sides[side], args.seed + i, args.seconds))
            regions[side].append(run_region(sides[side]))
            print(f"pair {i + 1}/{args.pairs} {side} done", file=sys.stderr)
        # rewritten after every pair, so an interrupted series keeps its runs
        args.out.write_text(json.dumps(report(runs, regions, args.seed, args.seconds),
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
