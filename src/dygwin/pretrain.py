"""Stage-1 self-supervised pre-training.

Each step distorts the input window into two views, encodes both with the
shared encoder, maps node embeddings through a small predictor (no
projector), and minimizes a variance / invariance / covariance loss over
the nodes present in both views. No negative pairs are involved; the
variance hinge prevents representation collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import CTDG, EdgeArray
from .encoder import EncoderParams, encode
from .errors import ContractError, NumericFailure
from .features import WindowFeatureCache
from .optim import Adam
from .tensor import Tape, Tensor, backward
from .timing import PhaseTimer
from .windows import generate_intervals

DISTORT_STREAM = 21
VIEW_STREAM = 23
INIT_STREAM = 29


@dataclass
class PretrainConfig:
    window: int = 32000
    stride: int = 200
    epochs: int = 100
    lr: float = 1e-4
    max_neighbors: int = 20
    seed: int = 0
    p_drop_edge: float = 0.3
    p_mask_feat: float = 0.3

    def __post_init__(self):
        for name in ("p_drop_edge", "p_mask_feat"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ContractError(f"{name} must be in [0, 1], got {p}")


def distort(edges: EdgeArray, config: PretrainConfig,
            rng: np.random.Generator) -> EdgeArray:
    """Produce one view of a window's edges: drop some, then mask the
    survivors' encoding inputs.

    Timestamps and node ids are never altered. A fully dropped view is legal.
    """
    keep = rng.random(len(edges)) >= config.p_drop_edge
    view = edges.take(keep)
    mask = rng.random(len(view)) < config.p_mask_feat
    return view.with_enc_mask(mask)


# VICReg's loss weights (Bardes et al., ICLR 2022): invariance lambda, variance
# mu, covariance nu; the variance hinge's target std gamma and its epsilon.
INVARIANCE_WEIGHT = 25.0
VARIANCE_WEIGHT = 25.0
COVARIANCE_WEIGHT = 1.0
VARIANCE_TARGET = 1.0
VARIANCE_EPS = 1e-4


def vicreg_variance(z: Tensor) -> Tensor:
    """Hinge on the regularized per-dimension standard deviation (population)."""
    n, d = z.shape
    if n < 2:
        raise ContractError(f"variance term needs at least 2 rows, got {n}")
    centered = T.sub(z, T.mean(z, axis=0, keepdims=True))
    var = T.mean(T.mul(centered, centered), axis=0, keepdims=True)
    std = T.sqrt(T.add(var, T.constant(np.full((1, d), VARIANCE_EPS), dtype=z.dtype)))
    hinge = T.relu(T.sub(T.constant(np.full((1, d), VARIANCE_TARGET), dtype=z.dtype), std))
    return T.mean(hinge)


def vicreg_covariance(z: Tensor) -> Tensor:
    """Sum of squared off-diagonal entries of the (1/n) covariance matrix,
    divided by the representation dimension."""
    n, d = z.shape
    if n < 2:
        raise ContractError(f"covariance term needs at least 2 rows, got {n}")
    centered = T.sub(z, T.mean(z, axis=0, keepdims=True))
    cov = T.scale(T.matmul(T.transpose(centered), centered), 1.0 / n)
    off_diagonal = T.constant(1.0 - np.eye(d), dtype=z.dtype)
    return T.scale(T.tensor_sum(T.mul(T.mul(cov, cov), off_diagonal)), 1.0 / d)


def vicreg_invariance(z_a: Tensor, z_b: Tensor) -> Tensor:
    """Mean squared euclidean distance between paired rows."""
    if z_a.shape != z_b.shape:
        raise ContractError(f"invariance term: shapes {z_a.shape} vs {z_b.shape}")
    diff = T.sub(z_a, z_b)
    return T.scale(T.tensor_sum(T.mul(diff, diff)), 1.0 / z_a.shape[0])


def ssl_loss_terms(z_a: Tensor, z_b: Tensor) -> tuple[Tensor, dict[str, float]]:
    """Weighted loss plus the unweighted term values for logging."""
    s = vicreg_invariance(z_a, z_b)
    v_a = vicreg_variance(z_a)
    v_b = vicreg_variance(z_b)
    c_a = vicreg_covariance(z_a)
    c_b = vicreg_covariance(z_b)
    loss = T.add(T.add(T.scale(s, INVARIANCE_WEIGHT),
                       T.scale(T.add(v_a, v_b), VARIANCE_WEIGHT)),
                 T.scale(T.add(c_a, c_b), COVARIANCE_WEIGHT))
    terms = {"s": s.item(), "v": v_a.item() + v_b.item(), "c": c_a.item() + c_b.item()}
    return loss, terms


def init_predictor(dim: int, seed: int = 0, dtype=np.float32) -> T.MLP:
    """Two-layer MLP mapping node embeddings to final representations."""
    rng = np.random.default_rng((seed, INIT_STREAM))
    return T.MLP(T.init_mlp_layers(rng, [dim, dim, dim], dtype=dtype), 0.0)


def pretrain(train_ctdg: CTDG, encoder: EncoderParams, predictor: T.MLP,
             config: PretrainConfig, timer=None,
             log_fn=None) -> tuple[list[dict], int]:
    """Train encoder and predictor in place over every window of the training log.

    Windows longer than the log start at its first edge. Batches whose two
    views share fewer than two nodes are skipped and counted. Returns the
    per-epoch history (mean loss and term values) and the skip count.
    """
    timer = timer or PhaseTimer()
    starts, ends = generate_intervals(len(train_ctdg), config.stride, config.window)
    params = {**encoder.named(), **predictor.named("predictor")}
    encoder.set_requires_grad(True)
    optimizer = Adam(params, lr=config.lr)
    history: list[dict] = []
    skipped = 0
    for epoch in range(config.epochs):
        sums = {"loss": 0.0, "v": 0.0, "c": 0.0, "s": 0.0}
        steps = 0
        for index, (start, end) in enumerate(zip(starts, ends)):
            with timer.phase("sample"):
                edges = train_ctdg.window(start, end)
                views = [distort(edges, config, np.random.default_rng(
                    (config.seed, DISTORT_STREAM, epoch, index, view))) for view in (0, 1)]
                common = np.intersect1d(views[0].endpoints(), views[1].endpoints())
            if common.size < 2:
                skipped += 1
                continue
            with Tape() as tape:
                with timer.phase("encode"):
                    # A view drops edges, so it is its own log with its own cache.
                    hs = [encode(WindowFeatureCache(distorted), encoder, config.max_neighbors,
                                 (config.seed, VIEW_STREAM, epoch, index, view), common,
                                 training=True, node_features=train_ctdg.node_features)
                          for view, distorted in enumerate(views)]
                with timer.phase("decode"):
                    loss, terms = ssl_loss_terms(*[predictor.forward(h.gather(common))
                                                   for h in hs])
            value = loss.item()
            if not np.isfinite(value):
                raise NumericFailure(f"non-finite pre-training loss at epoch {epoch}")
            with timer.phase("step"):
                optimizer.zero_grad()
                backward(tape, loss)
                optimizer.step()
            sums["loss"] += value
            for key in ("v", "c", "s"):
                sums[key] += terms[key]
            steps += 1
        # An epoch with no step logs NaN, the mean of no losses.
        row = {"epoch": epoch, **{key: total / steps if steps else float("nan")
                                  for key, total in sums.items()}}
        history.append(row)
        if log_fn:
            log_fn(row)
        timer.end_epoch(epoch)
    return history, skipped
