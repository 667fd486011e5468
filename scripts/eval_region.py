"""Time one K=1 FLP evaluation pass over a 256-cut region of a UCI-shaped log.

The benchmark's ``flp_eval_k1`` call scores 2 cuts, too few to resolve a
change in evaluation speed. This script builds a ``bench/uci_graph`` log of
4,096 + 256 edges (seed 7) and the benchmark's fresh encoder and FLP decoder,
runs one warm-up ``evaluate_flp`` call over the first 16 cuts, then times one
call over the last 256 edges at horizon 1, each cut reading the W = 4,096
edges before it. It prints one line: the cuts, the window, edges/s of the
timed call, the process's peak RSS in MB and the call's AP.

The package comes from ``PYTHONPATH``, the graph generator and model shapes
from this checkout's ``bench/``, so two trees are compared with

    PYTHONPATH=src python scripts/eval_region.py
    PYTHONPATH=../parent/src python scripts/eval_region.py

Run as a script, BLAS runs on one thread unless the environment already sets
its thread count, so that figures from different hosts and runs compare.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads its BLAS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import dygwin  # noqa: E402
from dygwin.downstream import evaluate_flp, init_flp_decoder  # noqa: E402
from dygwin.encoder import init_encoder  # noqa: E402
from uci_graph import uci_shaped  # noqa: E402
from workloads import ENCODER, NEIGHBORS, WINDOW  # noqa: E402

SEED = 7  # the benchmark's trace seed
CUTS, WARMUP_CUTS = 256, 16


def measure(cuts: int = CUTS, window: int = WINDOW, warmup_cuts: int = WARMUP_CUTS) -> dict:
    ctdg = uci_shaped(window + cuts, SEED)
    encoder = init_encoder(edge_dim=0, seed=SEED, **ENCODER)
    decoder = init_flp_decoder(encoder.node_dim, encoder.time_dim, seed=SEED)
    warmup = min(warmup_cuts, cuts)
    evaluate_flp(ctdg, (window, window + warmup), encoder, decoder, window, 1, NEIGHBORS, SEED)
    started = time.perf_counter()
    report = evaluate_flp(ctdg, (window, window + cuts), encoder, decoder, window, 1,
                          NEIGHBORS, SEED)
    seconds = time.perf_counter() - started
    return {"cuts": cuts, "window": window, "edges_per_s": cuts / seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ap": report["ap"]}


def main() -> int:
    print(f"dygwin from {Path(dygwin.__file__).parent}", file=sys.stderr)
    result = measure()
    print(f"cuts {result['cuts']} window {result['window']} "
          f"edges_per_s {result['edges_per_s']:.1f} peak_rss_mb {result['peak_rss_mb']:.1f} "
          f"ap {result['ap']:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
