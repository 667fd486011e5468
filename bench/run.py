#!/usr/bin/env python3
"""dygwin benchmark: end-to-end throughput, set-up time and memory per workload.

Usage, from the repository root:

    python3 bench/run.py --workload flp_train --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One process runs one workload. It builds the workload's inputs from
``--seed``, then repeats rounds of "time a fixed reference kernel, set up
(graph, split, fresh model) a few times, call the entry point once" until
the next round would overrun ``--seconds``. Every call does the same work.
On a shared host the same call can run 40% slower for minutes at a
time, and the reference slows with it, so the timings are
scaled to the reference's speed: ``edges_per_s`` is the median call's rate
times ``median reference time / REFERENCE_S``, and ``setup_s`` the median
set-up time times ``REFERENCE_S / median reference time``. The raw figures
are printed beside them. As its last stdout line it prints one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (tracing off). ``--trace 1``
alternates untraced calls with calls that have every layer's public
functions wrapped, and reports the per-layer metrics, the tracing overhead
and the count oracle's verdict; its spans go to
``.bench_out/spans-<workload>-seed<seed>.csv``. ``--workload all`` runs
every workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUPS_PER_CALL = 3
# What reference_s() takes on a quiet 2-vCPU x86-64 VM (OpenBLAS Haswell
# kernels); it only sets the scale, so scaled figures read as plain ones there.
REFERENCE_S = 0.25
# Timed reference runs per round, after one untimed run: the first run after a
# call tracks the host's speed worst (flp_train, 15 runs of 40 s on 2 vCPUs:
# scaled-rate spread 11.8% from the first run alone, 4.9% from the next three).
REFERENCE_RUNS = 3
WORKLOAD_NAMES = ("flp_train", "flp_eval_k1", "ssl_pretrain")


def _import_program():
    if not (ROOT / "src" / "dygwin" / "__init__.py").is_file():
        raise SystemExit(f"dygwin sources not found under {ROOT / 'src'}; "
                         "run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


@functools.cache
def _reference_inputs():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((3000, 200)).astype(np.float32)
    weight = rng.standard_normal((200, 100)).astype(np.float32)
    index = rng.integers(0, 3000, 20000)
    segments = np.sort(rng.integers(0, 1500, 20000))
    starts = np.flatnonzero(np.r_[True, segments[1:] != segments[:-1]])
    return rows, weight, index, starts, np.diff(np.r_[starts, len(segments)])


def reference_s() -> float:
    """Seconds a fixed kernel takes: the program's mix of a row gather, a
    matmul, segment softmax, a sort and interpreted dict updates, on numpy
    and Python alone, so that no change to the program moves it."""
    rows, weight, index, starts, lengths = _reference_inputs()
    t0 = time.perf_counter()
    for _ in range(6):
        x = rows[index] @ weight
        e = np.exp(x - np.repeat(np.maximum.reduceat(x, starts, axis=0), lengths, axis=0))
        np.add.reduceat(e, starts, axis=0)
        np.argsort(index, kind="stable")
        counts = {}
        for i in range(20000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - t0


@dataclass
class Samples:
    wall_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    epoch_s: list[float] = field(default_factory=list)


def measure(setup, seed: int, seconds: float,
            around_calls=(contextlib.nullcontext,)) -> list[Samples]:
    """Call in rounds, at least one, until the next round would overrun ``seconds``.

    Each round runs the reference kernel once untimed and ``REFERENCE_RUNS``
    times timed, then sets up and calls once inside each of ``around_calls``,
    so variants measured together see the same machine conditions. The set-up
    is timed ``SETUPS_PER_CALL`` times and the last one is called; the
    previous call's garbage is collected first so that neither pays for it.
    """
    runs = [Samples() for _ in around_calls]
    started = time.perf_counter()
    while True:
        gc.collect()
        reference_s()
        references = [reference_s() for _ in range(REFERENCE_RUNS)]
        for samples, around_call in zip(runs, around_calls):
            samples.reference_s.extend(references)
            gc.collect()
            for _ in range(SETUPS_PER_CALL):
                t0 = time.perf_counter()
                call = setup(seed)
                samples.setup_s.append(time.perf_counter() - t0)
            marks = [time.perf_counter()]
            with around_call():
                outcome = call.run(lambda: marks.append(time.perf_counter()))
            samples.wall_s.append(time.perf_counter() - marks[0])
            samples.outcomes.append(outcome)
            samples.epoch_s.extend(b - a for a, b in zip(marks, marks[1:]))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(runs[0].wall_s) > seconds:
            break
    return runs


def end_to_end(samples: Samples) -> dict[str, tuple[float, str]]:
    rate = statistics.median(o.edges / w for o, w in zip(samples.outcomes, samples.wall_s))
    setup = statistics.median(samples.setup_s)
    speed = statistics.median(samples.reference_s) / REFERENCE_S
    print(f"# raw: edges/s {rate:.6f}, set-up s {setup:.6f}, "
          f"reference s {statistics.median(samples.reference_s):.6f}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"edges_per_s": (rate * speed, "edges/s"),
            "setup_s": (setup / speed, "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def traced(setup, seed: int, seconds: float, out_path: Path):
    """Untraced and traced calls in alternation; per-layer metrics of the traced ones."""
    from probes import CALL_SPAN, Probe, layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    probe = Probe(tracer, seed)

    @contextlib.contextmanager
    def around_call():
        with probe.installed(), tracer.span(CALL_SPAN):
            yield

    plain, samples = measure(setup, seed, seconds, (contextlib.nullcontext, around_call))
    tracer.write(out_path)
    report = layer_metrics(probe, plain.wall_s, samples.epoch_s)
    outcomes = plain.outcomes + samples.outcomes
    attempted = sum(o.attempted for o in outcomes) + probe.oracle_rows
    failed = sum(o.failed for o in outcomes) + probe.oracle_mismatches
    return report, attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from uci_graph import digest
    from workloads import WORKLOADS

    setup = WORKLOADS[name]
    graph = setup(seed).graph
    print("# machine " + json.dumps(machine()))
    print("# input " + json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                                   "edges": len(graph), "nodes": graph.num_nodes,
                                   "edge_dim": graph.edge_dim, "digest": digest(graph)}))
    if trace:
        out_path = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.csv"
        report, attempted, failed = traced(setup, seed, seconds, out_path)
        print(f"# spans written to {out_path}")
    else:
        samples, = measure(setup, seed, seconds)
        report = end_to_end(samples)
        attempted = sum(o.attempted for o in samples.outcomes)
        failed = sum(o.failed for o in samples.outcomes)
        print(f"# {len(samples.wall_s)} calls, wall s: "
              + " ".join(f"{w:.3f}" for w in samples.wall_s))
        print(f"# {len(samples.setup_s)} set-ups, s: min {min(samples.setup_s):.4f}"
              f" max {max(samples.setup_s):.4f}")
    for key, (value, unit) in report.items():
        print(f"{key:32s} {value:16.6f} {unit}")
    print(f"{'ops_failed_ratio':32s} {failed / attempted:16.6f} ratio ({failed} of {attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()}}


def run_all(args) -> int:
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {done.returncode}")
            return 1
        rows[name] = json.loads(lines[-1])
    print(f"{'workload':14s} {'metric':32s} {'value':>16s} unit")
    for name, result in rows.items():
        for key, m in result["metrics"].items():
            print(f"{name:14s} {key:32s} {m['value']:16.6f} {m['unit']}")
        ratio = result["failed"] / max(result["attempted"], 1)
        print(f"{name:14s} {'ops_failed_ratio':32s} {ratio:16.6f} ratio")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_program()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
