#!/usr/bin/env python3
"""Supervised future-link-prediction run on the UCI forum dataset (CPU, hours).

Expects the dataset as a ``u,v,t`` CSV (one interaction per row, seconds or
any monotone unit). The public UCI-forum interaction log can be exported to
this layout from its standard ``ml_UCI.csv`` form by keeping the first three
columns and the header ``u,v,t``.

Protocol: chronological 70/15/15 split, window 4096 edges, 3 encoder layers,
100-dim node and time encodings, 2 heads, 20 sampled neighbors, learning rate
1e-4, target window 200 during training, evaluation at horizon K=1 on the
test region. Expected test AP >= 0.88 within 50 epochs. The wall time of the
K=1 test pass is printed on its own, since it is the inference-cost figure.

Usage:
    python scripts/reproduce_uci.py path/to/uci.csv [--epochs 50] [--seed 0]
"""

import argparse
import sys
import time

from dygwin.data import chronological_split, load_csv
from dygwin.downstream import TrainConfig, evaluate_flp, train_downstream
from dygwin.encoder import init_encoder


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dataset", help="u,v,t CSV of the UCI interaction log")
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window", type=int, default=4096)
    args = parser.parse_args()

    ctdg = load_csv(args.dataset)
    print(f"loaded {len(ctdg)} interactions over {ctdg.num_nodes} nodes")
    split = chronological_split(ctdg)

    encoder = init_encoder(num_layers=3, node_dim=100, time_dim=100,
                           edge_dim=ctdg.edge_dim, heads=2, dropout=0.1,
                           seed=args.seed)
    config = TrainConfig(window=args.window, target_size=200, epochs=args.epochs,
                         lr=1e-4, max_neighbors=20, seed=args.seed)

    started = time.time()
    result = train_downstream(
        ctdg, split, "flp", encoder, config=config,
        log_fn=lambda row: print(
            f"epoch {row['epoch']:3d}  loss {row['train_loss']:.4f}  "
            f"val AP {row['val_ap'] if row['val_ap'] is not None else 'n/a'}"
            f"  [{time.time() - started:.0f}s]", flush=True))

    _, val_end = split.boundaries
    test_started = time.time()
    report = evaluate_flp(ctdg, (val_end, len(ctdg)), encoder, result.decoder,
                          args.window, 1, config.max_neighbors, args.seed)
    test_s = time.time() - test_started
    print(f"\nbest val AP {result.best_val_ap:.4f} at epoch {result.best_epoch}")
    print(f"test AP at K=1: {report['ap']:.4f}  (target >= 0.88)")
    print(f"K=1 test pass: {report['num_positives']} edges in {test_s:.1f} s "
          f"({test_s / 60:.1f} min, {report['num_positives'] / max(test_s, 1e-9):.1f} edges/s)")
    return 0 if report["ap"] >= 0.88 else 1


if __name__ == "__main__":
    sys.exit(main())
