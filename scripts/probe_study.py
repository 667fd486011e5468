"""Run the frozen-probe recipe of acceptance criteria 7 and 8 over many seeds.

For each seed 0 .. ``--seeds`` - 1, ``tests/probe_recipe.probe_seed`` pre-trains
an encoder and probes it and a random-init encoder at each label fraction.
One CSV row per seed, init and fraction goes to ``--out``. The script then
prints, over the seeds, the median and a bootstrap 95% CI of criterion 7's
margin (SSL-init minus random-init AP with all labels) and of criterion 8's
difference of differences at each fraction below 1. Seeds 0, 1 and 2 are the
acceptance suite's, so their figures are the ones it prints. The package
comes from ``PYTHONPATH``:

    PYTHONPATH=src python scripts/probe_study.py --seeds 12 --out probe_study.csv
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from probe_recipe import difference_of_differences, probe_seed, probe_world  # noqa: E402


def median_ci(values, resamples: int = 10000, seed: int = 0) -> tuple[float, float, float]:
    """The median and a percentile-bootstrap 95% CI of the median."""
    values = np.asarray(values, dtype=np.float64)
    draws = np.random.default_rng(seed).choice(values, size=(resamples, values.size))
    low, high = np.percentile(np.median(draws, axis=1), [2.5, 97.5])
    return float(np.median(values)), float(low), float(high)


def summary_line(name: str, values) -> str:
    median, low, high = median_ci(values)
    return (f"{name}: median {median:+.4f}, 95% CI [{low:+.4f}, {high:+.4f}], "
            f"positive on {int(np.sum(np.asarray(values) > 0))} of {len(values)} seeds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=12)
    parser.add_argument("--fractions", default="0.1,1.0",
                        help="comma-separated label fractions; 1.0 is always run")
    parser.add_argument("--out", type=Path, required=True, help="CSV of per-seed APs")
    args = parser.parse_args(argv)
    fractions = sorted({1.0, *(float(f) for f in args.fractions.split(","))}, reverse=True)
    ctdg, split = probe_world()
    rows = {}
    with args.out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["seed", "init", "fraction", "ap"])
        for seed in range(args.seeds):
            started = time.perf_counter()
            rows[seed] = probe_seed(ctdg, split, seed, fractions)
            for (init, fraction), ap in rows[seed].items():
                writer.writerow([seed, init, fraction, f"{ap:.6f}"])
            handle.flush()
            print(f"seed {seed}: " + ", ".join(f"{init} {fraction:g} {ap:.4f}" for
                                                (init, fraction), ap in rows[seed].items())
                  + f" ({time.perf_counter() - started:.0f}s)", file=sys.stderr)
    print(summary_line("criterion 7 margin (SSL minus random AP, all labels)",
                       [r["ssl", 1.0] - r["random", 1.0] for r in rows.values()]))
    for fraction in fractions[1:]:
        dods = [difference_of_differences(r, fraction) for r in rows.values()]
        print("  ".join(f"seed {s}: {d:+.4f}" for s, d in zip(rows, dods)))
        print(summary_line(f"criterion 8 DoD at fraction {fraction:g}", dods))
    return 0


if __name__ == "__main__":
    sys.exit(main())
