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


def ssl_loss_terms(z_a: Tensor, z_b: Tensor) -> tuple[Tensor, dict[str, float]]:
    """VICReg's weighted loss as one ``vicreg`` tape entry, and the unweighted
    terms for logging. ``s`` is the mean squared distance between paired rows.
    Per view, ``v`` is the mean hinge on each column's regularized population
    std, and ``c`` the sum of squared off-diagonal entries of the 1/n covariance
    matrix over the dimension; ``v`` and ``c`` add the two views. Forward and
    backward take the numpy steps of the loss composed from elementwise tape
    ops, in that chain's order, so their bits are the chain's."""
    if z_a.shape != z_b.shape:
        raise ContractError(f"invariance term: shapes {z_a.shape} vs {z_b.shape}")
    n, d = z_a.shape
    if n < 2:
        raise ContractError(f"variance and covariance terms need at least 2 rows, got {n}")
    diff = z_a.values - z_b.values
    off_diagonal = (1.0 - np.eye(d)).astype(z_a.dtype)
    views, v, c = [], [], []
    for z in (z_a.values, z_b.values):
        centered = z - z.mean(axis=0, keepdims=True)
        std = np.sqrt((centered * centered).mean(axis=0, keepdims=True) + VARIANCE_EPS)
        transposed = centered.T.copy()
        cov = (transposed @ centered) * (1.0 / n)
        views.append((centered, std, transposed, cov))
        v.append(np.maximum(VARIANCE_TARGET - std, 0).mean())
        c.append((cov * cov * off_diagonal).sum() * (1.0 / d))
    s = (diff * diff).sum() * (1.0 / n)
    loss = s * INVARIANCE_WEIGHT + (v[0] + v[1]) * VARIANCE_WEIGHT \
        + (c[0] + c[1]) * COVARIANCE_WEIGHT

    def through_mean(g_centered):  # the gradient reaching z through its column means
        return np.broadcast_to((-g_centered).sum(axis=0, keepdims=True), g_centered.shape) / n

    # As in the chain, a scale multiplies by its factor, a mean's gradient divides
    # by its count, x * x's gradient is g*x + g*x, and each input adds its parts
    # in the order the tape's backward reached them: covariance, variance, invariance.
    def bwd(g):
        g_diff = g * INVARIANCE_WEIGHT * (1.0 / n) * diff
        g_cc = g * COVARIANCE_WEIGHT * (1.0 / d) * off_diagonal
        grads = []
        for centered, std, transposed, cov in views:
            g_prod = (g_cc * cov + g_cc * cov) * (1.0 / n)
            g_cov = transposed.T @ g_prod + (g_prod @ centered.T).T
            g_sq = -(g * VARIANCE_WEIGHT / d * (VARIANCE_TARGET - std > 0)) * 0.5 / std / n
            g_var = g_sq * centered + g_sq * centered
            grads.append(g_cov + through_mean(g_cov) + g_var + through_mean(g_var))
        return grads[0] + (g_diff + g_diff), grads[1] + -(g_diff + g_diff)

    terms = {"s": float(s), "v": float(v[0]) + float(v[1]), "c": float(c[0]) + float(c[1])}
    return T._finish("vicreg", (z_a, z_b), np.asarray(loss), bwd), terms


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
