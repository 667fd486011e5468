"""Stage-2 training: task decoders, negative sampling, and training protocols.

Covers supervised training, linear probing on a frozen encoder, and
semi-supervised probing on a seeded fraction of the training intervals.
Both decoders carry their own time encoding so that probing never touches
encoder parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import CTDG, EdgeArray, SplitSpec, split_edge_indices
from .encoder import EncoderParams, NodeEmbeddings, encode, window_end_time
from .errors import ConfigError, ContractError, NumericFailure
from .features import Time2VecParams, WindowFeatureCache, init_time2vec, time2vec
from .metrics import EvalRecord, auc, average_precision, mrr, recall_at_k
from .optim import Adam
from .tensor import Tape, Tensor, backward
from .windows import evaluation_windows, generate_intervals, make_window_batch

NEG_STREAM = 31
ENC_STREAM = 33
EVAL_NEG_STREAM = 37
EVAL_ENC_STREAM = 39
SUBSET_STREAM = 41
FLP_INIT_STREAM = 43
DNC_INIT_STREAM = 47
RANK_NEG_STREAM = 53


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------

@dataclass
class FLPDecoderParams:
    """Two-layer MLP over (summed pair embedding || time encoding) -> logit."""

    t2v: Time2VecParams
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self, prefix: str = "decoder") -> dict[str, Tensor]:
        return {f"{prefix}/t2v/omega": self.t2v.omega, f"{prefix}/t2v/phase": self.t2v.phase,
                f"{prefix}/w1": self.w1, f"{prefix}/b1": self.b1,
                f"{prefix}/w2": self.w2, f"{prefix}/b2": self.b2}


def init_flp_decoder(node_dim: int, time_dim: int, hidden_dim: int | None = None,
                     seed: int = 0, dtype=np.float32) -> FLPDecoderParams:
    hidden = hidden_dim or node_dim
    rng = np.random.default_rng((seed, FLP_INIT_STREAM))
    return FLPDecoderParams(
        t2v=init_time2vec(time_dim, dtype=dtype),
        w1=T.xavier_uniform(rng, node_dim + time_dim, hidden, dtype=dtype),
        b1=T.zeros_parameter((1, hidden), dtype=dtype),
        w2=T.xavier_uniform(rng, hidden, 1, dtype=dtype),
        b2=T.zeros_parameter((1, 1), dtype=dtype))


@dataclass
class DNCDecoderParams:
    """Three-layer MLP over (source embedding || time encoding) with dropout."""

    t2v: Time2VecParams
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor
    dropout: float = 0.1

    def named(self, prefix: str = "decoder") -> dict[str, Tensor]:
        return {f"{prefix}/t2v/omega": self.t2v.omega, f"{prefix}/t2v/phase": self.t2v.phase,
                f"{prefix}/w1": self.w1, f"{prefix}/b1": self.b1,
                f"{prefix}/w2": self.w2, f"{prefix}/b2": self.b2,
                f"{prefix}/w3": self.w3, f"{prefix}/b3": self.b3}


def init_dnc_decoder(node_dim: int, time_dim: int, hidden_dim: int | None = None,
                     seed: int = 0, dropout: float = 0.1, dtype=np.float32) -> DNCDecoderParams:
    hidden = hidden_dim or node_dim
    rng = np.random.default_rng((seed, DNC_INIT_STREAM))
    return DNCDecoderParams(
        t2v=init_time2vec(time_dim, dtype=dtype),
        w1=T.xavier_uniform(rng, node_dim + time_dim, hidden, dtype=dtype),
        b1=T.zeros_parameter((1, hidden), dtype=dtype),
        w2=T.xavier_uniform(rng, hidden, hidden, dtype=dtype),
        b2=T.zeros_parameter((1, hidden), dtype=dtype),
        w3=T.xavier_uniform(rng, hidden, 1, dtype=dtype),
        b3=T.zeros_parameter((1, 1), dtype=dtype),
        dropout=dropout)


def init_decoder(task: str, node_dim: int, time_dim: int, hidden_dim: int | None = None,
                 seed: int = 0, dtype=np.float32):
    """The decoder a task trains: FLP's pair scorer or DNC's source classifier."""
    if task == "flp":
        return init_flp_decoder(node_dim, time_dim, hidden_dim, seed=seed, dtype=dtype)
    if task == "dnc":
        return init_dnc_decoder(node_dim, time_dim, hidden_dim, seed=seed, dtype=dtype)
    raise ConfigError(f"unknown task {task!r}")


def _source_recency(cache: WindowFeatureCache, sources: np.ndarray, fallback: float) -> np.ndarray:
    return np.asarray([cache.recency(int(u), fallback) for u in sources], dtype=np.float64)


def flp_score(decoder: FLPDecoderParams, embeddings: NodeEmbeddings,
              src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
              cache: WindowFeatureCache, fallback_time: float) -> Tensor:
    """Batched logits for candidate (src, dst, t) edges; one row each.

    The time input is t minus the source's latest interaction in the input
    window (window end when the source has no history there).
    """
    pair = T.add(embeddings.gather(src), embeddings.gather(dst))
    delta = np.asarray(ts, dtype=np.float64) - _source_recency(cache, src, fallback_time)
    x = T.concat_last_dim([pair, time2vec(decoder.t2v, delta)])
    hidden = T.relu(T.linear(x, decoder.w1, decoder.b1))
    return T.linear(hidden, decoder.w2, decoder.b2)


def dnc_score(decoder: DNCDecoderParams, embeddings: NodeEmbeddings,
              src: np.ndarray, ts: np.ndarray, cache: WindowFeatureCache,
              fallback_time: float, training: bool = False,
              rng: np.random.Generator | None = None) -> Tensor:
    delta = np.asarray(ts, dtype=np.float64) - _source_recency(cache, src, fallback_time)
    x = T.concat_last_dim([embeddings.gather(src), time2vec(decoder.t2v, delta)])
    hidden = T.relu(T.linear(x, decoder.w1, decoder.b1))
    if training and decoder.dropout > 0.0:
        hidden = T.dropout(hidden, decoder.dropout, rng, training=True)
    hidden = T.relu(T.linear(hidden, decoder.w2, decoder.b2))
    return T.linear(hidden, decoder.w3, decoder.b3)


# ---------------------------------------------------------------------------
# Negatives and loss
# ---------------------------------------------------------------------------

def sample_negatives(target_edges: EdgeArray, mode: str, rng: np.random.Generator,
                     num_nodes: int, num_per_positive: int | None = None) -> np.ndarray:
    """Random destination replacements, shape (positives, per_positive).

    Train mode draws 1 per positive, rank_eval mode 500. Destinations are
    uniform over all nodes; collisions with the true destination resample.
    """
    if mode not in ("train", "rank_eval"):
        raise ContractError(f"unknown negative sampling mode {mode!r}")
    if num_nodes < 2:
        raise ContractError("negative sampling impossible with a single node")
    per = num_per_positive if num_per_positive is not None else (1 if mode == "train" else 500)
    true_dst = np.repeat(target_edges.v, per)
    draw = rng.integers(0, num_nodes, size=true_dst.shape[0])
    collided = draw == true_dst
    while np.any(collided):
        draw[collided] = rng.integers(0, num_nodes, size=int(collided.sum()))
        collided = draw == true_dst
    return draw.reshape(len(target_edges), per)


def bce_loss(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy over logits, stable in both tails."""
    labels = np.asarray(labels, dtype=np.float64).reshape(logits.shape)
    if labels.size and not np.all((labels == 0) | (labels == 1)):
        raise ContractError("bce labels must be 0 or 1")
    return T.bce_with_logits(logits, T.constant(labels, dtype=logits.dtype))


# ---------------------------------------------------------------------------
# Evaluation passes
# ---------------------------------------------------------------------------

def evaluate_flp(ctdg: CTDG, region: tuple[int, int], encoder: EncoderParams,
                 decoder: FLPDecoderParams, window: int, horizon: int,
                 max_neighbors: int, seed: int, target_filter=None,
                 rank_negatives: int = 0) -> dict:
    """Score every region edge exactly once against sampled negatives.

    Returns AP over 1:1 negatives, plus MRR / recall@10 over
    ``rank_negatives``-sized candidate groups when requested.
    """
    records: list[EvalRecord] = []
    groups: list[list[EvalRecord]] = []
    for batch in evaluation_windows(ctdg, region[0], region[1], window, horizon,
                                    target_filter):
        targets = batch.target_edges
        cut = batch.interval.end
        cache = WindowFeatureCache(batch.input_edges)
        fallback = window_end_time(batch)
        neg_rng = np.random.default_rng((seed, EVAL_NEG_STREAM, cut))
        negatives = sample_negatives(targets, "train", neg_rng, ctdg.num_nodes)
        extra = [negatives.ravel()]
        rank_neg = None
        if rank_negatives > 0:
            rank_rng = np.random.default_rng((seed, RANK_NEG_STREAM, cut))
            rank_neg = sample_negatives(targets, "rank_eval", rank_rng, ctdg.num_nodes,
                                        num_per_positive=rank_negatives)
            extra.append(rank_neg.ravel())
        embeddings = encode(batch, encoder, max_neighbors, (seed, EVAL_ENC_STREAM, cut),
                            extra_nodes=np.concatenate(extra), training=False, cache=cache,
                            node_features=ctdg.node_features)
        pos = flp_score(decoder, embeddings, targets.u, targets.v, targets.t,
                        cache, fallback).values.ravel()
        neg = flp_score(decoder, embeddings, targets.u, negatives.ravel(), targets.t,
                        cache, fallback).values.ravel()
        base_group = len(groups)
        records.extend(EvalRecord(float(s), 1, base_group + i) for i, s in enumerate(pos))
        records.extend(EvalRecord(float(s), 0, base_group + i) for i, s in enumerate(neg))
        if rank_neg is not None:
            per = rank_neg.shape[1]
            rank_scores = flp_score(decoder, embeddings,
                                    np.repeat(targets.u, per), rank_neg.ravel(),
                                    np.repeat(targets.t, per), cache,
                                    fallback).values.reshape(len(targets), per)
            for i in range(len(targets)):
                group = [EvalRecord(float(pos[i]), 1, base_group + i)]
                group.extend(EvalRecord(float(s), 0, base_group + i) for s in rank_scores[i])
                groups.append(group)
        else:
            groups.extend([] for _ in range(len(targets)))
    # Negatives first: AP keeps input order on ties, so a tied positive ranks
    # below every negative and a constant scorer cannot look informative.
    records.sort(key=lambda r: r.label)
    result = {"num_positives": sum(1 for r in records if r.label == 1),
              "ap": average_precision(records) if records else None}
    if rank_negatives > 0:
        filled = [g for g in groups if g]
        result["mrr"] = mrr(filled) if filled else None
        result["recall_at_10"] = recall_at_k(filled, 10) if filled else None
    return result


def evaluate_dnc(ctdg: CTDG, region: tuple[int, int], encoder: EncoderParams,
                 decoder: DNCDecoderParams, window: int, horizon: int,
                 max_neighbors: int, seed: int, target_filter=None) -> dict:
    """AUC (and AP) of source-node labels over the region's labeled edges."""
    records: list[EvalRecord] = []
    for batch in evaluation_windows(ctdg, region[0], region[1], window, horizon,
                                    target_filter):
        labeled = batch.target_edges.take(batch.target_edges.label_present)
        if len(labeled) == 0:
            continue
        cut = batch.interval.end
        cache = WindowFeatureCache(batch.input_edges)
        embeddings = encode(batch, encoder, max_neighbors, (seed, EVAL_ENC_STREAM, cut),
                            training=False, cache=cache, node_features=ctdg.node_features)
        scores = dnc_score(decoder, embeddings, labeled.u, labeled.t, cache,
                           window_end_time(batch), training=False).values.ravel()
        labels = (labeled.labels > 0.5).astype(int)
        records.extend(EvalRecord(float(s), int(y)) for s, y in zip(scores, labels))
    records.sort(key=lambda r: r.label)  # negatives first, as in evaluate_flp
    return {"num_records": len(records),
            "auc": auc(records) if records else None,
            "ap": average_precision(records) if records else None}


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    window: int = 4096
    target_size: int = 200
    stride: int = 0  # 0 -> equal to target_size, so each edge is a target once
    epochs: int = 100
    lr: float = 1e-4
    weight_decay: float | None = None  # None -> 0 for FLP, 1e-5 for DNC
    max_neighbors: int = 20
    seed: int = 0
    hidden_dim: int | None = None
    val_every: int = 1


@dataclass
class TrainResult:
    encoder: EncoderParams
    decoder: object
    history: list[dict]
    best_epoch: int
    best_val_ap: float | None


def snapshot_params(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: p.values.copy() for name, p in params.items()}


def restore_params(params: dict[str, Tensor], snapshot: dict[str, np.ndarray]) -> None:
    for name, p in params.items():
        p.values = snapshot[name].copy()


def training_intervals(num_train_edges: int, config: TrainConfig,
                       label_fraction: float = 1.0):
    """Stride-K training intervals, optionally a seeded fixed subset of them."""
    window = min(config.window, max(1, num_train_edges))
    stride = config.stride if config.stride > 0 else config.target_size
    intervals = generate_intervals(num_train_edges, stride, window)
    if not 0.0 < label_fraction <= 1.0:
        raise ContractError(f"label_fraction must be in (0, 1], got {label_fraction}")
    if label_fraction < 1.0 and intervals:
        count = max(1, int(round(label_fraction * len(intervals))))
        rng = np.random.default_rng((config.seed, SUBSET_STREAM))
        chosen = np.sort(rng.choice(len(intervals), size=count, replace=False))
        intervals = [intervals[i] for i in chosen]
    return intervals


def train_downstream(ctdg: CTDG, split: SplitSpec, task: str,
                     encoder: EncoderParams, decoder=None,
                     freeze_encoder: bool = False, label_fraction: float = 1.0,
                     config: TrainConfig | None = None, timer=None,
                     log_fn=None) -> TrainResult:
    """Window-based downstream training with best-validation-AP selection.

    ``freeze_encoder`` keeps encoder parameters byte-identical and trains
    only the decoder; ``label_fraction`` < 1 trains on a seeded subset of
    the training intervals (semi-supervised probing).
    """
    if task not in ("flp", "dnc"):
        raise ConfigError(f"unknown task {task!r}")
    config = config or TrainConfig()
    weight_decay = config.weight_decay
    if weight_decay is None:
        weight_decay = 1e-5 if task == "dnc" else 0.0

    train_idx, _, _ = split_edge_indices(ctdg, split)
    train_ctdg = ctdg.subset(train_idx)
    intervals = training_intervals(len(train_ctdg), config, label_fraction)

    if decoder is None:
        decoder = init_decoder(task, encoder.node_dim, encoder.time_dim,
                               config.hidden_dim, seed=config.seed)

    encoder.set_requires_grad(not freeze_encoder)
    trainable = dict(decoder.named())
    if not freeze_encoder:
        trainable.update(encoder.named())
    optimizer = Adam(trainable, lr=config.lr, weight_decay=weight_decay)

    train_end, val_end = split.boundaries
    masked_filter = split.masked_filter(ctdg.num_nodes)

    def run_validation() -> float | None:
        if val_end <= train_end:
            return None
        region = (train_end, val_end)
        if task == "flp":
            report = evaluate_flp(ctdg, region, encoder, decoder, config.window,
                                  config.target_size, config.max_neighbors,
                                  config.seed, target_filter=masked_filter)
        else:
            report = evaluate_dnc(ctdg, region, encoder, decoder, config.window,
                                  config.target_size, config.max_neighbors,
                                  config.seed, target_filter=masked_filter)
        return report["ap"]

    frozen_cache: dict[int, tuple] = {}
    history: list[dict] = []
    initial_ap = run_validation()
    history.append({"epoch": 0, "train_loss": None, "val_ap": initial_ap})
    best_ap = -np.inf if initial_ap is None else initial_ap
    best_epoch = 0
    best_snapshot = snapshot_params(trainable)

    for epoch in range(1, config.epochs + 1):
        total_loss = 0.0
        steps = 0
        for index, interval in enumerate(intervals):
            if timer:
                timer.start("sample")
            batch = make_window_batch(train_ctdg, interval, config.target_size)
            targets = batch.target_edges
            if task == "dnc":
                targets = targets.take(targets.label_present)
            if len(targets) == 0:
                if timer:
                    timer.stop("sample")
                continue
            if task == "flp":
                neg_rng = np.random.default_rng((config.seed, NEG_STREAM, epoch, index))
                negatives = sample_negatives(batch.target_edges, "train", neg_rng,
                                             ctdg.num_nodes)
            if timer:
                timer.stop("sample")
                timer.start("encode")

            with Tape() as tape:
                if freeze_encoder and index in frozen_cache:
                    embeddings, cache, fallback = frozen_cache[index]
                else:
                    cache = WindowFeatureCache(batch.input_edges)
                    fallback = window_end_time(batch)
                    extra = np.arange(ctdg.num_nodes) if freeze_encoder else \
                        (negatives.ravel() if task == "flp" else np.empty(0, dtype=np.int64))
                    enc_epoch = 0 if freeze_encoder else epoch
                    embeddings = encode(batch, encoder, config.max_neighbors,
                                        (config.seed, ENC_STREAM, enc_epoch, index),
                                        extra_nodes=extra, training=not freeze_encoder,
                                        cache=cache, node_features=ctdg.node_features)
                    if freeze_encoder:
                        frozen_cache[index] = (embeddings, cache, fallback)
                if timer:
                    timer.stop("encode")
                    timer.start("decode")
                if task == "flp":
                    pos = flp_score(decoder, embeddings, batch.target_edges.u,
                                    batch.target_edges.v, batch.target_edges.t,
                                    cache, fallback)
                    neg = flp_score(decoder, embeddings, batch.target_edges.u,
                                    negatives.ravel(), batch.target_edges.t,
                                    cache, fallback)
                    labels = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
                    loss = bce_loss(T.concat_last_dim([T.transpose(pos), T.transpose(neg)]),
                                    labels.reshape(1, -1))
                else:
                    drop_rng = np.random.default_rng((config.seed, DNC_INIT_STREAM,
                                                      epoch, index))
                    logits = dnc_score(decoder, embeddings, targets.u, targets.t,
                                       cache, fallback, training=True, rng=drop_rng)
                    loss = bce_loss(logits, (targets.labels > 0.5).astype(np.float64)
                                    .reshape(-1, 1))
                if timer:
                    timer.stop("decode")
            value = loss.item()
            if not np.isfinite(value):
                raise NumericFailure(f"non-finite training loss at epoch {epoch}")
            if timer:
                timer.start("step")
            optimizer.zero_grad()
            backward(tape, loss)
            optimizer.step()
            if timer:
                timer.stop("step")
            total_loss += value
            steps += 1

        val_ap = run_validation() if (epoch % config.val_every == 0
                                      or epoch == config.epochs) else None
        row = {"epoch": epoch, "train_loss": total_loss / max(steps, 1), "val_ap": val_ap}
        history.append(row)
        if log_fn:
            log_fn(row)
        if timer:
            timer.end_epoch(epoch)
        if val_ap is not None and val_ap > best_ap:
            best_ap = val_ap
            best_epoch = epoch
            best_snapshot = snapshot_params(trainable)

    restore_params(trainable, best_snapshot)
    return TrainResult(encoder=encoder, decoder=decoder, history=history,
                       best_epoch=best_epoch,
                       best_val_ap=None if best_ap == -np.inf else best_ap)
