"""The benchmark's workloads: seeded set-up plus one timed call each.

Every workload drives one of dygwin's public entry points on a UCI-shaped
graph made from the seed alone, with the paper's encoder (3 layers, 100-dim
node and time encodings, 2 heads, 20 sampled neighbours) and windows
(W=4096, K=S=200). ``setup(seed)`` builds the graph, the split and fresh
model parameters and returns a ``Call``; running the call drives the entry
point once and checks what it returned.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

from dygwin.data import CTDG, SplitSpec
from dygwin.downstream import TrainConfig, evaluate_flp, init_flp_decoder, train_downstream
from dygwin.encoder import init_encoder
from dygwin.pretrain import PretrainConfig, init_predictor, pretrain

from uci_graph import uci_shaped

WINDOW = 4096
TARGET = 200          # K = S
NEIGHBORS = 20
ENCODER = dict(num_layers=3, node_dim=100, time_dim=100, heads=2, dropout=0.1)

TRAIN_EDGES = 1600    # FLP training log; W=4096 clamps to it, as on any short log
TRAIN_EPOCHS = 2
EVAL_CUTS = 2         # K=1 cuts scored per call, each with a full W-edge window
SSL_EDGES = 1000      # pre-training log; the paper's 32000-edge ssl_window clamps to it
SSL_WINDOW = 32000
SSL_EDGE_DIM = 172    # Wikipedia edge-feature width


@dataclass
class Outcome:
    edges: int       # interaction-log edges the call consumed
    attempted: int   # operations: training steps or scored edges
    failed: int


@dataclass
class Call:
    graph: CTDG
    run: Callable[[Callable[[], None]], Outcome]  # takes a hook called after each training epoch


def _failed_call(attempted: int) -> Outcome:
    traceback.print_exc(file=sys.stderr)
    return Outcome(edges=0, attempted=attempted, failed=attempted)


def _training_targets(num_edges: int) -> list[int]:
    """Target edges of each stride-S training interval that has any."""
    ends = range(TARGET, num_edges + 1, TARGET)
    return [min(end + TARGET, num_edges) - end for end in ends if end < num_edges]


def flp_train(seed: int) -> Call:
    ctdg = uci_shaped(TRAIN_EDGES, seed)
    split = SplitSpec(mode="transductive", boundaries=(TRAIN_EDGES, TRAIN_EDGES))
    encoder = init_encoder(edge_dim=0, seed=seed, **ENCODER)
    config = TrainConfig(window=WINDOW, target_size=TARGET, epochs=TRAIN_EPOCHS,
                         max_neighbors=NEIGHBORS, seed=seed)
    targets = _training_targets(TRAIN_EDGES)
    steps = len(targets) * TRAIN_EPOCHS

    def run(after_epoch) -> Outcome:
        rows = []

        def log_fn(row):
            rows.append(row)
            after_epoch()
        try:
            result = train_downstream(ctdg, split, "flp", encoder, config=config, log_fn=log_fn)
        except Exception:  # a raising call fails every step it was to run
            return _failed_call(steps)
        if len(result.history) != TRAIN_EPOCHS + 1 or len(rows) != TRAIN_EPOCHS:
            return Outcome(edges=0, attempted=steps, failed=steps)
        bad_epochs = sum(1 for row in rows if not math.isfinite(row["train_loss"]))
        return Outcome(edges=sum(targets) * TRAIN_EPOCHS, attempted=steps,
                       failed=bad_epochs * len(targets))

    return Call(ctdg, run)


def flp_eval_k1(seed: int) -> Call:
    ctdg = uci_shaped(WINDOW + EVAL_CUTS, seed)
    encoder = init_encoder(edge_dim=0, seed=seed, **ENCODER)
    decoder = init_flp_decoder(encoder.node_dim, encoder.time_dim, seed=seed)
    region = (WINDOW, WINDOW + EVAL_CUTS)

    def run(after_epoch) -> Outcome:
        try:
            report = evaluate_flp(ctdg, region, encoder, decoder, WINDOW, 1, NEIGHBORS, seed)
        except Exception:
            return _failed_call(EVAL_CUTS)
        ap = report["ap"]
        ok = report["num_positives"] == EVAL_CUTS and ap is not None and 0.0 <= ap <= 1.0
        return Outcome(edges=EVAL_CUTS, attempted=EVAL_CUTS, failed=0 if ok else EVAL_CUTS)

    return Call(ctdg, run)


def ssl_pretrain(seed: int) -> Call:
    ctdg = uci_shaped(SSL_EDGES, seed, edge_dim=SSL_EDGE_DIM)
    encoder = init_encoder(edge_dim=SSL_EDGE_DIM, seed=seed, **ENCODER)
    predictor = init_predictor(encoder.node_dim, seed=seed)
    config = PretrainConfig(window=SSL_WINDOW, stride=TARGET, epochs=1,
                            max_neighbors=NEIGHBORS, seed=seed)
    steps = SSL_EDGES // TARGET

    def run(after_epoch) -> Outcome:
        try:
            history, skipped = pretrain(ctdg, encoder, predictor, config)
        except Exception:
            return _failed_call(steps)
        failed = skipped + sum(steps for row in history if not math.isfinite(row["loss"]))
        return Outcome(edges=(steps - skipped) * TARGET, attempted=steps, failed=min(failed, steps))

    return Call(ctdg, run)


WORKLOADS = {
    "flp_train": flp_train,
    "flp_eval_k1": flp_eval_k1,
    "ssl_pretrain": ssl_pretrain,
}
