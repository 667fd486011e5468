"""Time evaluation and training on regions of a UCI-shaped log too large for
the benchmark's workloads to resolve.

Evaluation (``measure_eval``): the benchmark's ``flp_eval_k1`` call scores 2
cuts. This builds a ``bench/uci_graph`` log of 4,096 + 256 edges (seed 7) and
the benchmark's fresh encoder and FLP decoder, runs one warm-up
``evaluate_flp`` call over the first 16 cuts, then times one call over the
last 256 edges at horizon 1, each cut reading the W = 4,096 edges before it.

Training (``measure_train``): the benchmark's ``flp_train`` trains on a
1,600-edge log, so each of its windows is a prefix shorter than W, and none of
its workloads has node features, so none runs layer 0's general path. This
builds a ``bench/uci_graph`` log of W + 1,600 edges (seed 7) and times one
epoch of ``train_downstream`` over it at K = 200 with the benchmark's encoder:
28 training windows, of which the last 8 hold W edges. It runs twice, on a
fresh encoder each time: featureless, then with seeded 172-dim node features.

Pre-training (``measure_pretrain``): the benchmark's ``ssl_pretrain`` clamps
the paper's 32,000-edge SSL window to a 1,000-edge log. This builds a
``bench/uci_graph`` log of 32,000 edges (seed 7) and runs ``pretrain`` for 3
epochs with stride 32,000, so 3 steps on that one window, with the benchmark's
encoder and predictor. It runs once featureless and once with 172-dim edge
features, each in a fresh Python process, so each peak RSS is its variant's
own.

Run as a script, it measures evaluation first and prints one line: the cuts,
the window, edges/s of the timed call, the process's peak RSS in MB and the
call's AP. Then one line per training variant: the node feature width, the
training steps, edges/s of the epoch (target edges trained over its seconds),
the mean messages per encode (messages summed over the layers) and the
process's peak RSS in MB so far. Then one line per pre-training variant: the
edge feature width, the window, the steps, ms per step, the mean messages per
encode of each layer, the variant's peak RSS in MB and the last step's loss.
The last line is all of these figures as one JSON object: ``eval`` (as
``measure_eval`` returns it), then ``train`` and ``pretrain`` (lists, one
entry per variant, as ``measure_train`` and ``measure_pretrain`` return them).
The package comes from ``PYTHONPATH``, the graph generator and model shapes
from this checkout's ``bench/``, so two trees are compared with

    PYTHONPATH=src python scripts/region.py
    PYTHONPATH=../parent/src python scripts/region.py

Run as a script, BLAS runs on one thread unless the environment already sets
its thread count, so that figures from different hosts and runs compare.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy loads its BLAS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import numpy as np  # noqa: E402

import dygwin  # noqa: E402
import dygwin.encoder as encoder_module  # noqa: E402
from dygwin.data import CTDG, SplitSpec  # noqa: E402
from dygwin.downstream import (TrainConfig, evaluate_flp, init_flp_decoder,  # noqa: E402
                               train_downstream)
from dygwin.encoder import init_encoder  # noqa: E402
from dygwin.pretrain import PretrainConfig, init_predictor, pretrain  # noqa: E402
from uci_graph import uci_shaped  # noqa: E402
from workloads import ENCODER, NEIGHBORS, SSL_EDGE_DIM, SSL_WINDOW, TARGET, WINDOW  # noqa: E402

SEED = 7  # the benchmark's trace seed
CUTS, WARMUP_CUTS = 256, 16
EXTRA_EDGES = 1600
NODE_FEATURE_DIMS = (0, 172)
SSL_STEPS = 3
EDGE_FEATURE_DIMS = (0, SSL_EDGE_DIM)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_eval(cuts: int = CUTS, window: int = WINDOW, warmup_cuts: int = WARMUP_CUTS) -> dict:
    """One timed K=1 FLP evaluation call over ``cuts`` cuts, after a warm-up call."""
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
            "peak_rss_mb": peak_rss_mb(), "ap": report["ap"]}


def with_node_features(ctdg: CTDG, dim: int) -> CTDG:
    """``ctdg`` with seeded standard-normal node features of width ``dim``."""
    features = np.random.default_rng((SEED, dim)).standard_normal((ctdg.num_nodes, dim))
    return CTDG(ctdg.u, ctdg.v, ctdg.t, ctdg.feats, ctdg.labels, ctdg.label_present,
                num_nodes=ctdg.num_nodes, node_features=features)


def measure_train(window: int = WINDOW, extra_edges: int = EXTRA_EDGES) -> list[dict]:
    """One training epoch per width of ``NODE_FEATURE_DIMS``, on a W + ``extra_edges`` log."""
    base = uci_shaped(window + extra_edges, SEED)
    split = SplitSpec(mode="transductive", boundaries=(len(base), len(base)))
    config = TrainConfig(window=window, target_size=TARGET, epochs=1, max_neighbors=NEIGHBORS,
                         seed=SEED)
    target_edges = max(len(base) - TARGET, 0)  # each edge past the first stride, once
    results = []
    for dim in NODE_FEATURE_DIMS:
        ctdg = with_node_features(base, dim) if dim else base
        encoder = init_encoder(edge_dim=0, node_feature_dim=dim, seed=SEED, **ENCODER)
        messages, sample = [], encoder_module.build_layered_neighborhood

        def counting(*args, **kwargs):
            hood = sample(*args, **kwargs)
            messages.append(sum(s.size for layer in hood.layers for s in layer.values()))
            return hood

        with mock.patch.object(encoder_module, "build_layered_neighborhood", counting):
            started = time.perf_counter()
            result = train_downstream(ctdg, split, "flp", encoder, config=config)
            seconds = time.perf_counter() - started
        if not np.isfinite(result.history[-1]["train_loss"]):
            raise SystemExit(f"non-finite training loss with {dim}-dim node features")
        results.append({"node_feature_dim": dim, "steps": len(messages),
                        "edges_per_s": target_edges / seconds,
                        "messages_per_encode": float(np.mean(messages)),
                        "peak_rss_mb": peak_rss_mb()})
    return results


def pretrain_variant(edge_dim: int, window: int = SSL_WINDOW, steps: int = SSL_STEPS) -> dict:
    """``steps`` pre-training steps on one ``window``-edge window with ``edge_dim``-dim
    edge features, in this process."""
    ctdg = uci_shaped(window, SEED, edge_dim=edge_dim)
    encoder = init_encoder(edge_dim=edge_dim, seed=SEED, **ENCODER)
    predictor = init_predictor(encoder.node_dim, seed=SEED)
    config = PretrainConfig(window=window, stride=window, epochs=steps, max_neighbors=NEIGHBORS,
                            seed=SEED)
    messages, sample = [], encoder_module.build_layered_neighborhood

    def counting(*args, **kwargs):
        hood = sample(*args, **kwargs)
        messages.append([layer.positions.size for layer in hood.layers])
        return hood

    with mock.patch.object(encoder_module, "build_layered_neighborhood", counting):
        started = time.perf_counter()
        history, skipped = pretrain(ctdg, encoder, predictor, config)
        seconds = time.perf_counter() - started
    if skipped or not np.isfinite(history[-1]["loss"]):
        raise SystemExit(f"pre-training with {edge_dim}-dim edge features skipped {skipped} "
                         f"steps or ended with loss {history[-1]['loss']}")
    return {"edge_dim": edge_dim, "window": window, "steps": steps,
            "ms_per_step": 1000.0 * seconds / steps,
            "messages_per_layer": np.mean(messages, axis=0).tolist(),
            "peak_rss_mb": peak_rss_mb(), "loss": history[-1]["loss"]}


def measure_pretrain(window: int = SSL_WINDOW, steps: int = SSL_STEPS) -> list[dict]:
    """``pretrain_variant`` per width of ``EDGE_FEATURE_DIMS``, each in a fresh
    process that reads this file and the parent's ``sys.path``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    results = []
    for dim in EDGE_FEATURE_DIMS:
        code = (f"import json, runpy; variant = runpy.run_path({__file__!r})['pretrain_variant']; "
                f"print(json.dumps(variant({dim}, {window}, {steps})))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=False)
        if done.returncode != 0:
            raise SystemExit(f"pre-training variant {dim} exited {done.returncode}:\n"
                             f"{done.stderr}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def main() -> int:
    print(f"dygwin from {Path(dygwin.__file__).parent}", file=sys.stderr)
    results = {"eval": measure_eval()}
    result = results["eval"]
    print(f"eval cuts {result['cuts']} window {result['window']} "
          f"edges_per_s {result['edges_per_s']:.1f} peak_rss_mb {result['peak_rss_mb']:.1f} "
          f"ap {result['ap']:.6f}")
    results["train"] = measure_train()
    for result in results["train"]:
        print(f"train node_features {result['node_feature_dim']} steps {result['steps']} "
              f"edges_per_s {result['edges_per_s']:.1f} "
              f"messages_per_encode {result['messages_per_encode']:.0f} "
              f"peak_rss_mb {result['peak_rss_mb']:.1f}")
    results["pretrain"] = measure_pretrain()
    for result in results["pretrain"]:
        print(f"pretrain edge_features {result['edge_dim']} window {result['window']} "
              f"steps {result['steps']} ms_per_step {result['ms_per_step']:.0f} "
              f"messages_per_layer {'/'.join(f'{m:.0f}' for m in result['messages_per_layer'])} "
              f"peak_rss_mb {result['peak_rss_mb']:.1f} loss {result['loss']:.6g}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
