"""Stage-2 training: task decoders, negative sampling, and training protocols.

Covers supervised training, linear probing on a frozen encoder, and
semi-supervised probing on a seeded fraction of the training intervals.
The decoder carries its own time encoding so that probing never touches
encoder parameters.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import CTDG, EdgeArray, SplitSpec, split_edge_indices
from .encoder import EncoderParams, NodeEmbeddings, encode
from .errors import ConfigError, ContractError, NumericFailure
from .features import Time2VecParams, WindowFeatureCache, init_time2vec, time2vec
from .metrics import auc, average_precision, mrr, recall_at_k
from .optim import Adam
from .tensor import Tape, Tensor, backward
from .timing import PhaseTimer
from .windows import generate_intervals, make_window_batch

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
class DecoderParams(T.MLP):
    """MLP over (node input || its own time encoding) -> logit.

    FLP's pair scorer has one hidden layer; DNC's source classifier has two,
    with dropout after the first while training.
    """

    t2v: Time2VecParams

    def named(self, prefix: str = "decoder") -> dict[str, Tensor]:
        return {f"{prefix}/t2v/omega": self.t2v.omega, f"{prefix}/t2v/phase": self.t2v.phase,
                **super().named(prefix)}


# task -> (init stream, hidden layers, dropout, Adam weight decay)
_DECODER_SHAPES = {"flp": (FLP_INIT_STREAM, 1, 0.0, 0.0),
                   "dnc": (DNC_INIT_STREAM, 2, 0.1, 1e-5)}


def init_decoder(task: str, node_dim: int, time_dim: int, seed: int = 0,
                 dtype=np.float32) -> DecoderParams:
    """The decoder a task trains: FLP's pair scorer or DNC's source classifier,
    with hidden layers ``node_dim`` wide."""
    if task not in _DECODER_SHAPES:
        raise ConfigError(f"unknown task {task!r}")
    stream, hidden_layers, dropout, _ = _DECODER_SHAPES[task]
    widths = [node_dim + time_dim] + [node_dim] * hidden_layers + [1]
    layers = T.init_mlp_layers(np.random.default_rng((seed, stream)), widths, dtype=dtype)
    return DecoderParams(layers, dropout, init_time2vec(time_dim, dtype=dtype))


def init_flp_decoder(node_dim: int, time_dim: int, seed: int = 0,
                     dtype=np.float32) -> DecoderParams:
    """``init_decoder("flp", ...)`` under its own name."""
    return init_decoder("flp", node_dim, time_dim, seed=seed, dtype=dtype)


def _decode(decoder: DecoderParams, rows: Tensor, src: np.ndarray, ts: np.ndarray,
            cache: WindowFeatureCache, training: bool = False,
            rng: np.random.Generator | None = None) -> Tensor:
    """Logits for ``rows`` at times ``ts``.

    The time input is t minus the source's latest interaction in its input
    window: the window's last time when the source has no history there, and
    t itself (a gap of 0) when the window is empty.
    """
    ts = np.asarray(ts, dtype=np.float64)
    last = cache.index.last_time(src)
    delta = np.where(np.isnan(last), 0.0, ts - last)
    return decoder.forward(T.concat_last_dim([rows, time2vec(decoder.t2v, delta)]),
                           training, rng)


def flp_score(decoder: DecoderParams, embeddings: NodeEmbeddings,
              src: np.ndarray, dst: np.ndarray, ts: np.ndarray,
              cache: WindowFeatureCache) -> Tensor:
    """Batched logits for candidate (src, dst, t) edges from the summed pair embedding."""
    pair = T.add(embeddings.gather(src), embeddings.gather(dst))
    return _decode(decoder, pair, src, ts, cache)


def dnc_score(decoder: DecoderParams, embeddings: NodeEmbeddings,
              src: np.ndarray, ts: np.ndarray, cache: WindowFeatureCache,
              training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Batched label logits for source nodes at times ``ts``."""
    return _decode(decoder, embeddings.gather(src), src, ts, cache, training, rng)


# ---------------------------------------------------------------------------
# Negatives and loss
# ---------------------------------------------------------------------------

def sample_negatives(target_edges: EdgeArray, rng: np.random.Generator, num_nodes: int,
                     per_positive: int = 1) -> np.ndarray:
    """Random destination replacements, shape (positives, per_positive).

    Destinations are uniform over all nodes; collisions with the true
    destination resample.
    """
    if num_nodes < 2:
        raise ContractError("negative sampling impossible with a single node")
    true_dst = np.repeat(target_edges.v, per_positive)
    draw = rng.integers(0, num_nodes, size=true_dst.shape[0])
    collided = draw == true_dst
    while np.any(collided):
        draw[collided] = rng.integers(0, num_nodes, size=int(collided.sum()))
        collided = draw == true_dst
    return draw.reshape(len(target_edges), per_positive)


def bce_loss(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy over logits, stable in both tails."""
    labels = np.asarray(labels, dtype=np.float64).reshape(logits.shape)
    if labels.size and not np.all((labels == 0) | (labels == 1)):
        raise ContractError("bce labels must be 0 or 1")
    return T.bce_with_logits(logits, T.constant(labels, dtype=logits.dtype))


# ---------------------------------------------------------------------------
# Evaluation passes
# ---------------------------------------------------------------------------

# Consecutive cuts share one encode while their target edges total at most this
# (a cut with more goes alone), so a pass's memory is bounded; K >= PASS_TARGETS
# without a target filter gives one cut per pass.
PASS_TARGETS = 16


def evaluation_passes(ctdg: CTDG, region: tuple[int, int], window: int, horizon: int,
                      target_filter=None, labeled: bool = False
                      ) -> Iterator[tuple[WindowFeatureCache, list[int], list[EdgeArray]]]:
    """Target windows of size ``horizon`` tiling ``region``, in passes of
    consecutive cuts, yielded one pass at a time.

    Each region edge is a target of exactly one cut. A cut's input window is
    the ``window`` edges before it, crossing split boundaries, and one cache
    over [max(0, start - window), end) serves every cut. A cut scores the
    targets ``target_filter`` selects (all by default), only the labeled ones
    if ``labeled``, and is skipped if none is left. A pass yields the cache
    over its cuts' windows, with row ids ``slot * num_nodes + node``, the cuts
    and their scored targets. The arguments are checked on the first ``next``.
    """
    start, end = region
    if horizon < 1:
        raise ContractError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= start <= end <= len(ctdg):
        raise ContractError(f"bad evaluation region [{start}, {end})")
    log_start = max(0, start - window)
    cache = WindowFeatureCache(ctdg.window(log_start, end))

    def one_pass():
        his = np.asarray(cuts) - log_start
        return cache.windows(np.maximum(his - window, 0), his, ctdg.num_nodes), cuts, targets

    cuts, targets = [], []
    for cut in range(start, end, horizon):
        chosen = ctdg.window(cut, min(cut + horizon, end))
        if target_filter is not None:
            chosen = chosen.take(target_filter(chosen))
        if labeled:
            chosen = chosen.take(chosen.label_present)
        if len(chosen) == 0:
            continue
        if cuts and sum(map(len, targets)) + len(chosen) > PASS_TARGETS:
            yield one_pass()
            cuts, targets = [], []
        cuts.append(cut)
        targets.append(chosen)
    if cuts:
        yield one_pass()


def _pass_rows(ctdg: CTDG, targets: list[EdgeArray]) -> tuple[np.ndarray, EdgeArray]:
    """Each target's row-id offset, slot * num_nodes, and the targets as one array."""
    offsets = np.repeat(np.arange(len(targets)) * ctdg.num_nodes, [len(t) for t in targets])
    merged = EdgeArray(*(np.concatenate([getattr(t, c) for t in targets])
                         for c in EdgeArray.__slots__))
    return offsets, merged


def flp_scores(ctdg: CTDG, region: tuple[int, int], encoder: EncoderParams,
               decoder: DecoderParams, window: int, horizon: int, max_neighbors: int,
               seed: int, target_filter=None, rank_negatives: int = 0
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logits of every region edge, in log order: (positives, their 1:1
    negatives, (positives, rank_negatives) rank negatives). Draws are keyed
    by cut."""
    pos_scores, neg_scores = [np.empty(0)], [np.empty(0)]
    rank_scores = [np.empty((0, rank_negatives))]
    for cache, cuts, targets in evaluation_passes(ctdg, region, window, horizon,
                                                  target_filter):
        negatives, rank_neg = [], []
        for cut, cut_targets in zip(cuts, targets):
            neg_rng = np.random.default_rng((seed, EVAL_NEG_STREAM, cut))
            negatives.append(sample_negatives(cut_targets, neg_rng, ctdg.num_nodes))
            if rank_negatives > 0:
                rank_rng = np.random.default_rng((seed, RANK_NEG_STREAM, cut))
                rank_neg.append(sample_negatives(cut_targets, rank_rng, ctdg.num_nodes,
                                                 rank_negatives))
        offsets, merged = _pass_rows(ctdg, targets)
        src, dst = merged.u + offsets, merged.v + offsets
        negatives = np.concatenate(negatives).ravel() + offsets
        rank_neg = (np.concatenate(rank_neg) + offsets[:, None] if rank_neg else
                    np.empty((len(merged), 0), dtype=np.int64)).ravel()
        embeddings = encode(cache, encoder, max_neighbors,
                            [(seed, EVAL_ENC_STREAM, cut) for cut in cuts],
                            np.concatenate([src, dst, negatives, rank_neg]),
                            node_features=ctdg.node_features)
        pos_scores.append(flp_score(decoder, embeddings, src, dst, merged.t,
                                    cache).values.ravel())
        neg_scores.append(flp_score(decoder, embeddings, src, negatives, merged.t,
                                    cache).values.ravel())
        if rank_negatives > 0:
            rank_scores.append(flp_score(decoder, embeddings,
                                         np.repeat(src, rank_negatives), rank_neg,
                                         np.repeat(merged.t, rank_negatives),
                                         cache).values.reshape(len(merged), rank_negatives))
    return np.concatenate(pos_scores), np.concatenate(neg_scores), np.concatenate(rank_scores)


def evaluate_flp(ctdg: CTDG, region: tuple[int, int], encoder: EncoderParams,
                 decoder: DecoderParams, window: int, horizon: int,
                 max_neighbors: int, seed: int, target_filter=None,
                 rank_negatives: int = 0) -> dict:
    """Score every region edge exactly once against sampled negatives.

    Returns AP over 1:1 negatives, plus MRR / recall@10 over
    ``rank_negatives``-sized candidate groups when requested.
    """
    pos, neg, rank = flp_scores(ctdg, region, encoder, decoder, window, horizon,
                                max_neighbors, seed, target_filter, rank_negatives)
    # Negatives first: AP keeps input order on ties, so a tied positive ranks
    # below every negative and a constant scorer cannot look informative.
    scores = np.concatenate([neg, pos])
    labels = np.repeat([0, 1], [neg.size, pos.size])
    result = {"num_positives": pos.size,
              "ap": average_precision(scores, labels) if scores.size else None}
    if rank_negatives > 0:
        # One group per positive, a row: its own score, then its rank negatives.
        candidates = np.hstack([pos[:, None], rank])
        groups, column = np.indices(candidates.shape)
        ranked = (candidates, column == 0, groups)
        result["mrr"] = mrr(*ranked) if pos.size else None
        result["recall_at_10"] = recall_at_k(*ranked, 10) if pos.size else None
    return result


def dnc_scores(ctdg: CTDG, region: tuple[int, int], encoder: EncoderParams,
               decoder: DecoderParams, window: int, horizon: int, max_neighbors: int,
               seed: int, target_filter=None) -> tuple[np.ndarray, np.ndarray]:
    """Source logits and 0/1 labels of the region's labeled edges, in log order."""
    scores, labels = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for cache, cuts, targets in evaluation_passes(ctdg, region, window, horizon,
                                                  target_filter, labeled=True):
        offsets, labeled = _pass_rows(ctdg, targets)
        src = labeled.u + offsets
        embeddings = encode(cache, encoder, max_neighbors,
                            [(seed, EVAL_ENC_STREAM, cut) for cut in cuts], src,
                            node_features=ctdg.node_features)
        scores.append(dnc_score(decoder, embeddings, src, labeled.t, cache,
                                training=False).values.ravel())
        labels.append((labeled.labels > 0.5).astype(np.int64))
    return np.concatenate(scores), np.concatenate(labels)


def evaluate_dnc(ctdg: CTDG, region: tuple[int, int], encoder: EncoderParams,
                 decoder: DecoderParams, window: int, horizon: int,
                 max_neighbors: int, seed: int, target_filter=None) -> dict:
    """AUC (and AP) of source-node labels over the region's labeled edges."""
    scores, labels = dnc_scores(ctdg, region, encoder, decoder, window, horizon,
                                max_neighbors, seed, target_filter)
    order = np.argsort(labels, kind="stable")  # negatives first, as in evaluate_flp
    scores, labels = scores[order], labels[order]
    return {"num_records": labels.size,
            "auc": auc(scores, labels) if labels.size else None,
            "ap": average_precision(scores, labels) if labels.size else None}


def evaluate(task: str, ctdg: CTDG, region: tuple[int, int], encoder: EncoderParams,
             decoder: DecoderParams, window: int, horizon: int, max_neighbors: int,
             seed: int, target_filter=None, rank_negatives: int = 0) -> dict:
    """The task's evaluation pass over ``region``; ``rank_negatives`` is FLP's only."""
    if task == "flp":
        return evaluate_flp(ctdg, region, encoder, decoder, window, horizon, max_neighbors,
                            seed, target_filter, rank_negatives)
    if task == "dnc":
        return evaluate_dnc(ctdg, region, encoder, decoder, window, horizon, max_neighbors,
                            seed, target_filter)
    raise ConfigError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    window: int = 4096
    target_size: int = 200
    epochs: int = 100
    lr: float = 1e-4
    max_neighbors: int = 20
    seed: int = 0
    val_every: int = 1

    def __post_init__(self):
        if self.val_every < 1:
            raise ContractError(f"val_every must be >= 1, got {self.val_every}")


@dataclass
class TrainResult:
    encoder: EncoderParams
    decoder: DecoderParams
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
    """Stride-K training intervals (S = K, so each edge is a target once),
    optionally a seeded fixed subset of them."""
    intervals = generate_intervals(num_train_edges, config.target_size, config.window)
    if not 0.0 < label_fraction <= 1.0:
        raise ContractError(f"label_fraction must be in (0, 1], got {label_fraction}")
    if label_fraction < 1.0 and intervals:
        count = max(1, int(round(label_fraction * len(intervals))))
        rng = np.random.default_rng((config.seed, SUBSET_STREAM))
        chosen = np.sort(rng.choice(len(intervals), size=count, replace=False))
        intervals = [intervals[i] for i in chosen]
    return intervals


def train_downstream(ctdg: CTDG, split: SplitSpec, task: str,
                     encoder: EncoderParams,
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
    timer = timer or PhaseTimer()

    train_idx, _, _ = split_edge_indices(ctdg, split)
    train_ctdg = ctdg.subset(train_idx)
    intervals = training_intervals(len(train_ctdg), config, label_fraction)

    decoder = init_decoder(task, encoder.node_dim, encoder.time_dim, seed=config.seed,
                           dtype=encoder.dtype)

    encoder.set_requires_grad(not freeze_encoder)
    trainable = dict(decoder.named())
    if not freeze_encoder:
        trainable.update(encoder.named())
    optimizer = Adam(trainable, lr=config.lr, weight_decay=_DECODER_SHAPES[task][3])

    train_end, val_end = split.boundaries
    masked_filter = split.masked_filter(ctdg)

    def run_validation() -> float | None:
        if val_end <= train_end:
            return None
        with timer.phase("validate"):
            report = evaluate(task, ctdg, (train_end, val_end), encoder, decoder,
                              config.window, config.target_size, config.max_neighbors,
                              config.seed, target_filter=masked_filter)
        return report["ap"]

    frozen_cache: dict[int, tuple] = {}
    history: list[dict] = []
    initial_ap = run_validation()
    history.append({"epoch": 0, "train_loss": None, "val_ap": initial_ap})
    timer.end_epoch(0)
    best_ap = -np.inf if initial_ap is None else initial_ap
    best_epoch = 0
    best_snapshot = snapshot_params(trainable)

    for epoch in range(1, config.epochs + 1):
        total_loss = 0.0
        steps = 0
        for index, interval in enumerate(intervals):
            with timer.phase("sample"):
                batch = make_window_batch(train_ctdg, interval, config.target_size)
                targets = batch.target_edges
                if task == "dnc":
                    targets = targets.take(targets.label_present)
                if len(targets) == 0:
                    continue
                if task == "flp":
                    neg_rng = np.random.default_rng((config.seed, NEG_STREAM, epoch, index))
                    negatives = sample_negatives(batch.target_edges, neg_rng, ctdg.num_nodes)

            with Tape() as tape:
                with timer.phase("encode"):
                    if freeze_encoder and index in frozen_cache:
                        embeddings, cache = frozen_cache[index]
                    else:
                        cache = WindowFeatureCache(batch.input_edges)
                        # Every window node, not only the scored ones: dropout masks are
                        # drawn by message position, so fewer messages would change every
                        # draw, and a frozen encoder's cached rows serve later epochs'
                        # negatives.
                        extra = np.arange(ctdg.num_nodes) if freeze_encoder else \
                            (negatives.ravel() if task == "flp" else np.empty(0, dtype=np.int64))
                        nodes = np.concatenate([batch.input_edges.endpoints(),
                                                batch.target_edges.endpoints(), extra])
                        enc_epoch = 0 if freeze_encoder else epoch
                        embeddings = encode(cache, encoder, config.max_neighbors,
                                            (config.seed, ENC_STREAM, enc_epoch, index),
                                            nodes, training=not freeze_encoder,
                                            node_features=ctdg.node_features)
                        if freeze_encoder:
                            frozen_cache[index] = (embeddings, cache)
                with timer.phase("decode"):
                    if task == "flp":
                        pos = flp_score(decoder, embeddings, batch.target_edges.u,
                                        batch.target_edges.v, batch.target_edges.t, cache)
                        neg = flp_score(decoder, embeddings, batch.target_edges.u,
                                        negatives.ravel(), batch.target_edges.t, cache)
                        labels = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
                        loss = bce_loss(T.concat_last_dim([T.transpose(pos), T.transpose(neg)]),
                                        labels.reshape(1, -1))
                    else:
                        drop_rng = np.random.default_rng((config.seed, DNC_INIT_STREAM,
                                                          epoch, index))
                        logits = dnc_score(decoder, embeddings, targets.u, targets.t,
                                           cache, training=True, rng=drop_rng)
                        loss = bce_loss(logits, (targets.labels > 0.5).astype(np.float64)
                                        .reshape(-1, 1))
            value = loss.item()
            if not np.isfinite(value):
                raise NumericFailure(f"non-finite training loss at epoch {epoch}")
            with timer.phase("step"):
                optimizer.zero_grad()
                backward(tape, loss)
                optimizer.step()
            total_loss += value
            steps += 1

        val_ap = run_validation() if (epoch % config.val_every == 0
                                      or epoch == config.epochs) else None
        row = {"epoch": epoch, "train_loss": total_loss / max(steps, 1), "val_ap": val_ap}
        history.append(row)
        if log_fn:
            log_fn(row)
        timer.end_epoch(epoch)
        if val_ap is not None and val_ap > best_ap:
            best_ap = val_ap
            best_epoch = epoch
            best_snapshot = snapshot_params(trainable)

    restore_params(trainable, best_snapshot)
    return TrainResult(encoder=encoder, decoder=decoder, history=history,
                       best_epoch=best_epoch,
                       best_val_ap=None if best_ap == -np.inf else best_ap)
