"""The frozen-probe recipe behind acceptance criteria 7 and 8.

``tests/test_acceptance.py`` runs it on seeds 0, 1 and 2, and
``scripts/probe_study.py`` runs it on as many seeds as asked, so both read
the same figures for the same seed.
"""

from __future__ import annotations

import numpy as np

from dygwin.data import chronological_split, split_edge_indices
from dygwin.downstream import TrainConfig, evaluate_flp, train_downstream
from dygwin.encoder import init_encoder
from dygwin.pretrain import PretrainConfig, init_predictor, pretrain

from synthetic import make_synthetic_ctdg

DIM = 100


def probe_world():
    """The shared 5000-edge planted-rule dataset and its chronological split."""
    ctdg = make_synthetic_ctdg(num_nodes=300, num_edges=5000, history=200,
                               motif_prob=0.8, seed=0)
    return ctdg, chronological_split(ctdg)


def probe_seed(ctdg, split, seed: int, fractions=(1.0, 0.1)) -> dict[tuple[str, float], float]:
    """Test AP of frozen-encoder FLP probes for one seed, keyed by (init,
    label fraction), init ``"ssl"`` or ``"random"``.

    The SSL encoder pre-trains on the training edges with windows matched to
    the downstream scale; the random one is the same seed's initialisation.
    Probes train to convergence with best-validation selection, and test AP
    is averaged over three negative draws for measurement precision.
    """
    train_idx, _, _ = split_edge_indices(ctdg, split)
    _, val_end = split.boundaries

    def make_encoder():
        return init_encoder(num_layers=2, node_dim=DIM, time_dim=32, heads=2,
                            dropout=0.1, seed=seed)

    def probe(state, label_fraction):
        encoder = make_encoder()
        if state is not None:
            for name, p in encoder.named().items():
                p.values = state[name].copy()
        config = TrainConfig(window=300, target_size=200, epochs=30, lr=1e-3,
                             max_neighbors=20, seed=seed, val_every=3)
        result = train_downstream(ctdg, split, "flp", encoder, freeze_encoder=True,
                                  label_fraction=label_fraction, config=config)
        draws = [evaluate_flp(ctdg, (val_end, len(ctdg)), encoder, result.decoder,
                              300, 200, 20, seed=1000 + d)["ap"] for d in range(3)]
        return float(np.mean(draws))

    encoder = make_encoder()
    pretrain(ctdg.subset(train_idx), encoder, init_predictor(DIM, seed=seed),
             PretrainConfig(window=300, stride=200, epochs=20, lr=1e-3,
                            max_neighbors=20, seed=seed))
    states = {"ssl": {name: p.values.copy() for name, p in encoder.named().items()},
              "random": None}
    return {(init, fraction): probe(state, fraction)
            for init, state in states.items() for fraction in fractions}


def difference_of_differences(aps: dict[tuple[str, float], float], fraction: float) -> float:
    """Criterion 8's figure: how much more random-init AP than SSL-init AP is
    lost going from all labels to ``fraction`` of them."""
    return ((aps["random", 1.0] - aps["random", fraction])
            - (aps["ssl", 1.0] - aps["ssl", fraction]))
