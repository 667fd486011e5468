"""Stage-1 self-supervised pre-training.

Each step distorts the input window into two views, encodes both with the
shared encoder, maps node embeddings through a small predictor (no
projector), and minimizes a variance / invariance / covariance loss over
the nodes present in both views. No negative pairs are involved; the
variance hinge prevents representation collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import CTDG, EdgeArray
from .encoder import EncoderParams, encode
from .errors import ContractError, NumericFailure
from .optim import Adam
from .tensor import Tape, Tensor, backward
from .windows import WindowBatch, generate_intervals, make_window_batch

DISTORT_STREAM = 21
VIEW_STREAM = 23
INIT_STREAM = 29


@dataclass
class DistortionConfig:
    p_drop_edge: float = 0.3
    p_mask_edge_feature: float = 0.3

    def __post_init__(self):
        for name in ("p_drop_edge", "p_mask_edge_feature"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ContractError(f"{name} must be in [0, 1], got {p}")


def distort(batch: WindowBatch, config: DistortionConfig,
            rng: np.random.Generator) -> EdgeArray:
    """Produce one view: drop input edges, then mask survivors' encoding inputs.

    Timestamps and node ids are never altered; target edges are untouched.
    A fully dropped view is legal.
    """
    edges = batch.input_edges
    keep = rng.random(len(edges)) >= config.p_drop_edge
    view = edges.take(keep)
    mask = rng.random(len(view)) < config.p_mask_edge_feature
    return view.with_enc_mask(mask)


@dataclass
class VicregWeights:
    invariance: float = 25.0   # lambda
    variance: float = 25.0     # mu
    covariance: float = 1.0    # nu
    gamma: float = 1.0
    eps: float = 1e-4


def vicreg_variance(z: Tensor, gamma: float = 1.0, eps: float = 1e-4) -> Tensor:
    """Hinge on the regularized per-dimension standard deviation (population)."""
    n, d = z.shape
    if n < 2:
        raise ContractError(f"variance term needs at least 2 rows, got {n}")
    centered = T.sub(z, T.mean(z, axis=0, keepdims=True))
    var = T.mean(T.mul(centered, centered), axis=0, keepdims=True)
    std = T.sqrt(T.add(var, T.constant(np.full((1, d), eps), dtype=z.dtype)))
    hinge = T.relu(T.sub(T.constant(np.full((1, d), gamma), dtype=z.dtype), std))
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


def ssl_loss_terms(z_a: Tensor, z_b: Tensor,
                   weights: VicregWeights | None = None) -> tuple[Tensor, dict[str, float]]:
    """Weighted loss plus the unweighted term values for logging."""
    if weights is None:
        weights = VicregWeights()
    s = vicreg_invariance(z_a, z_b)
    v_a = vicreg_variance(z_a, weights.gamma, weights.eps)
    v_b = vicreg_variance(z_b, weights.gamma, weights.eps)
    c_a = vicreg_covariance(z_a)
    c_b = vicreg_covariance(z_b)
    loss = T.add(T.add(T.scale(s, weights.invariance),
                       T.scale(T.add(v_a, v_b), weights.variance)),
                 T.scale(T.add(c_a, c_b), weights.covariance))
    terms = {"s": s.item(), "v": v_a.item() + v_b.item(), "c": c_a.item() + c_b.item()}
    return loss, terms


@dataclass
class PredictorParams:
    """Two-layer MLP mapping node embeddings to final representations."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self, prefix: str = "predictor") -> dict[str, Tensor]:
        return {f"{prefix}/w1": self.w1, f"{prefix}/b1": self.b1,
                f"{prefix}/w2": self.w2, f"{prefix}/b2": self.b2}


def init_predictor(dim: int, seed: int = 0, dtype=np.float32) -> PredictorParams:
    rng = np.random.default_rng((seed, INIT_STREAM))
    return PredictorParams(w1=T.xavier_uniform(rng, dim, dim, dtype=dtype),
                           b1=T.zeros_parameter((1, dim), dtype=dtype),
                           w2=T.xavier_uniform(rng, dim, dim, dtype=dtype),
                           b2=T.zeros_parameter((1, dim), dtype=dtype))


def predict(params: PredictorParams, h: Tensor) -> Tensor:
    return T.linear(T.relu(T.linear(h, params.w1, params.b1)), params.w2, params.b2)


@dataclass
class PretrainConfig:
    window: int = 32000
    stride: int = 200
    epochs: int = 100
    lr: float = 1e-4
    max_neighbors: int = 20
    seed: int = 0
    distortion: DistortionConfig = field(default_factory=DistortionConfig)
    weights: VicregWeights = field(default_factory=VicregWeights)


def pretrain(train_ctdg: CTDG, encoder: EncoderParams, predictor: PredictorParams,
             config: PretrainConfig, timer=None,
             log_fn=None) -> tuple[list[dict], int]:
    """Train encoder and predictor in place over every window of the training log.

    Windows longer than the log clamp to its length. Batches whose two
    views share fewer than two nodes are skipped and counted. Returns the
    per-epoch history (mean loss and term values) and the skip count.
    """
    window = min(config.window, max(1, len(train_ctdg)))
    intervals = generate_intervals(len(train_ctdg), config.stride, window)
    params = {**encoder.named(), **predictor.named()}
    encoder.set_requires_grad(True)
    optimizer = Adam(params, lr=config.lr)
    history: list[dict] = []
    skipped = 0
    for epoch in range(config.epochs):
        sums = {"loss": 0.0, "v": 0.0, "c": 0.0, "s": 0.0}
        steps = 0
        for index, interval in enumerate(intervals):
            if timer:
                timer.start("sample")
            batch = make_window_batch(train_ctdg, interval, 0)
            view_a = distort(batch, config.distortion,
                             np.random.default_rng((config.seed, DISTORT_STREAM, epoch, index, 0)))
            view_b = distort(batch, config.distortion,
                             np.random.default_rng((config.seed, DISTORT_STREAM, epoch, index, 1)))
            common = np.intersect1d(view_a.endpoints(), view_b.endpoints())
            if timer:
                timer.stop("sample")
            if common.size < 2:
                skipped += 1
                continue
            if timer:
                timer.start("encode")
            with Tape() as tape:
                h_a = encode(batch, encoder, config.max_neighbors,
                             (config.seed, VIEW_STREAM, epoch, index, 0),
                             input_override=view_a, training=True)
                h_b = encode(batch, encoder, config.max_neighbors,
                             (config.seed, VIEW_STREAM, epoch, index, 1),
                             input_override=view_b, training=True)
                if timer:
                    timer.stop("encode")
                    timer.start("decode")
                z_a = predict(predictor, h_a.gather(common))
                z_b = predict(predictor, h_b.gather(common))
                loss, terms = ssl_loss_terms(z_a, z_b, config.weights)
                if timer:
                    timer.stop("decode")
            value = loss.item()
            if not np.isfinite(value):
                raise NumericFailure(f"non-finite pre-training loss at epoch {epoch}")
            if timer:
                timer.start("step")
            optimizer.zero_grad()
            backward(tape, loss)
            optimizer.step()
            if timer:
                timer.stop("step")
            sums["loss"] += value
            for key in ("v", "c", "s"):
                sums[key] += terms[key]
            steps += 1
        row = {"epoch": epoch,
               "loss": sums["loss"] / max(steps, 1),
               "v": sums["v"] / max(steps, 1),
               "c": sums["c"] / max(steps, 1),
               "s": sums["s"] / max(steps, 1)}
        history.append(row)
        if log_fn:
            log_fn(row)
        if timer:
            timer.end_epoch(epoch)
    return history, skipped
