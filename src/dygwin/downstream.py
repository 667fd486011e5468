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
from .windows import ONE_WINDOW, generate_intervals

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


def _check_task(task: str) -> None:
    if task not in _DECODER_SHAPES:
        raise ConfigError(f"unknown task {task!r}")


def init_decoder(task: str, node_dim: int, time_dim: int, seed: int = 0,
                 dtype=np.float32) -> DecoderParams:
    """The decoder a task trains: FLP's pair scorer or DNC's source classifier,
    with hidden layers ``node_dim`` wide."""
    _check_task(task)
    stream, hidden_layers, dropout, _ = _DECODER_SHAPES[task]
    widths = [node_dim + time_dim] + [node_dim] * hidden_layers + [1]
    layers = T.init_mlp_layers(np.random.default_rng((seed, stream)), widths, dtype=dtype)
    return DecoderParams(layers, dropout, init_time2vec(time_dim, dtype=dtype))


def init_flp_decoder(*args, **kwargs) -> DecoderParams:
    """``init_decoder("flp", ...)`` under its own name."""
    return init_decoder("flp", *args, **kwargs)


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
    """Batched logits for candidate (src, dst, t) edges from the summed pair
    embedding. Candidates whose decoder inputs (pair row, t, source) are
    bit-equal share one decoded row, so they tie exactly in any batch."""
    pair = T.add(embeddings.gather(src), embeddings.gather(dst))
    src, ts = np.asarray(src, dtype=np.int64), np.asarray(ts, dtype=np.float64)
    keys = np.hstack([pair.values.view(np.uint8),
                      ts.reshape(-1, 1).view(np.uint8), src.reshape(-1, 1).view(np.uint8)])
    _, first, inverse = np.unique(keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    logits = _decode(decoder, T.slice_rows(pair, first), src[first], ts[first], cache)
    return T.slice_rows(logits, inverse.ravel())


def score(task: str, decoder: DecoderParams, embeddings: NodeEmbeddings,
          src: np.ndarray, dst: np.ndarray, ts: np.ndarray, cache: WindowFeatureCache,
          training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Batched logits of candidate rows: FLP's from the (src, dst) pair, DNC's from
    the source alone, with dropout drawn from ``rng`` while ``training``."""
    _check_task(task)
    if task == "flp":
        return flp_score(decoder, embeddings, src, dst, ts, cache)
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


POSITIVE, NEGATIVE, RANK = 0, 1, 2  # the kinds of candidate


def candidates(task: str, targets: EdgeArray, num_nodes: int, neg_rng: np.random.Generator,
               rank_rng: np.random.Generator | None = None, rank_negatives: int = 0,
               offset: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The task's candidates of ``targets`` as (src, dst, t, kind) columns, row ids
    node ids plus ``offset``. FLP's are the positives, one ``neg_rng`` negative each,
    then ``rank_negatives`` ``rank_rng`` negatives each, positive by positive; DNC's
    are the labeled targets with ``dst = src``, POSITIVE where the label is > 0.5."""
    _check_task(task)
    if task == "dnc":
        labeled = targets.take(targets.label_present)
        kind = np.where(labeled.labels > 0.5, POSITIVE, NEGATIVE)
        return labeled.u + offset, labeled.u + offset, labeled.t, kind
    dst = [targets.v, sample_negatives(targets, neg_rng, num_nodes).ravel()]
    if rank_negatives > 0:
        dst.append(sample_negatives(targets, rank_rng, num_nodes, rank_negatives).ravel())
    src = np.concatenate([targets.u, targets.u, np.repeat(targets.u, rank_negatives)])
    t = np.concatenate([targets.t, targets.t, np.repeat(targets.t, rank_negatives)])
    kind = np.repeat([POSITIVE, NEGATIVE, RANK], len(targets) * np.array([1, 1, rank_negatives]))
    return src + offset, np.concatenate(dst) + offset, t, kind


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


def region_scores(task: str, ctdg: CTDG, region: tuple[int, int], encoder: EncoderParams,
                  decoder: DecoderParams, window: int, horizon: int, max_neighbors: int,
                  seed: int, target_filter=None, rank_negatives: int = 0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Logits and kinds of the task's candidates over every region edge, cut by
    cut in log order. Draws are keyed by cut; a pass's candidates are one
    table, decoded in one call."""
    _check_task(task)
    scores, kinds = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for cache, cuts, targets in evaluation_passes(ctdg, region, window, horizon,
                                                  target_filter, labeled=task == "dnc"):
        tables = [candidates(
            task, cut_targets, ctdg.num_nodes, np.random.default_rng((seed, EVAL_NEG_STREAM, cut)),
            np.random.default_rng((seed, RANK_NEG_STREAM, cut)) if rank_negatives else None,
            rank_negatives, offset=slot * ctdg.num_nodes)
            for slot, (cut, cut_targets) in enumerate(zip(cuts, targets))]
        src, dst, t, kind = (np.concatenate(column) for column in zip(*tables))
        embeddings = encode(cache, encoder, max_neighbors,
                            [(seed, EVAL_ENC_STREAM, cut) for cut in cuts],
                            np.concatenate([src, dst]), node_features=ctdg.node_features)
        scores.append(score(task, decoder, embeddings, src, dst, t, cache).values.ravel())
        kinds.append(kind)
    return np.concatenate(scores), np.concatenate(kinds)


def evaluate(task: str, ctdg: CTDG, region: tuple[int, int], encoder: EncoderParams,
             decoder: DecoderParams, window: int, horizon: int, max_neighbors: int,
             seed: int, target_filter=None, rank_negatives: int = 0) -> dict:
    """Score every region edge exactly once: AP of the positives against FLP's 1:1
    negatives or DNC's negative labels (DNC adds AUC), plus FLP's MRR / recall@10
    over ``rank_negatives``-sized candidate groups when requested."""
    if task == "dnc" and rank_negatives > 0:
        raise ContractError(f"rank_negatives is FLP's only, got {rank_negatives} for dnc")
    scores, kinds = region_scores(task, ctdg, region, encoder, decoder, window, horizon,
                                  max_neighbors, seed, target_filter, rank_negatives)
    pos, neg = scores[kinds == POSITIVE], scores[kinds == NEGATIVE]
    # Negatives first: AP keeps input order on ties, so a tied positive ranks
    # below every negative and a constant scorer cannot look informative.
    ordered = np.concatenate([neg, pos])
    labels = np.repeat([0, 1], [neg.size, pos.size])
    result = {"num_positives": pos.size}
    if task == "dnc":
        result["auc"] = auc(ordered, labels) if ordered.size else None
    result["ap"] = average_precision(ordered, labels) if ordered.size else None
    if rank_negatives > 0:
        # One group per positive, a row: its own score, then its rank negatives.
        table = np.hstack([pos[:, None], scores[kinds == RANK].reshape(pos.size, rank_negatives)])
        groups, column = np.indices(table.shape)
        ranked = (table, column == 0, groups)
        result["mrr"] = mrr(*ranked) if pos.size else None
        result["recall_at_10"] = recall_at_k(*ranked, 10) if pos.size else None
    return result


def evaluate_flp(*args, **kwargs) -> dict:
    """``evaluate("flp", ...)`` under its own name."""
    return evaluate("flp", *args, **kwargs)


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
                       label_fraction: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Stride-K training windows (S = K, so each edge is a target once) that end
    before the last edge, so each has a target, as (starts, ends), optionally a
    seeded fixed subset of them."""
    starts, ends = generate_intervals(num_train_edges - 1, config.target_size, config.window)
    if not 0.0 < label_fraction <= 1.0:
        raise ContractError(f"label_fraction must be in (0, 1], got {label_fraction}")
    if label_fraction < 1.0 and ends.size:
        count = max(1, int(round(label_fraction * ends.size)))
        rng = np.random.default_rng((config.seed, SUBSET_STREAM))
        chosen = np.sort(rng.choice(ends.size, size=count, replace=False))
        starts, ends = starts[chosen], ends[chosen]
    return starts, ends


def train_downstream(ctdg: CTDG, split: SplitSpec, task: str,
                     encoder: EncoderParams,
                     freeze_encoder: bool = False, label_fraction: float = 1.0,
                     config: TrainConfig | None = None, timer=None,
                     log_fn=None) -> TrainResult:
    """Window-based downstream training with best-validation-AP selection.
    Each training window is a view of one cache over the training log.

    ``freeze_encoder`` keeps encoder parameters byte-identical and trains
    only the decoder; ``label_fraction`` < 1 trains on a seeded subset of
    the training intervals (semi-supervised probing).
    """
    _check_task(task)
    config = config or TrainConfig()
    timer = timer or PhaseTimer()

    train_idx, _, _ = split_edge_indices(ctdg, split)
    train_ctdg = ctdg.subset(train_idx)
    train_cache = WindowFeatureCache(train_ctdg)
    starts, ends = training_intervals(len(train_ctdg), config, label_fraction)

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

    frozen_embeddings: dict[int, NodeEmbeddings] = {}
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
        for index, (start, end) in enumerate(zip(starts, ends)):
            with timer.phase("sample"):
                targets = train_ctdg.window(end, min(end + config.target_size, len(train_ctdg)))
                neg_rng = np.random.default_rng((config.seed, NEG_STREAM, epoch, index))
                src, dst, t, kind = candidates(task, targets, ctdg.num_nodes, neg_rng)
                if src.size == 0:
                    continue
                # The window [start, end) of the one training cache: row id = node id.
                cache = train_cache.windows([start], [end], ONE_WINDOW)

            with Tape() as tape:
                with timer.phase("encode"):
                    if freeze_encoder and index in frozen_embeddings:
                        embeddings = frozen_embeddings[index]
                    else:
                        # A frozen encoder's cached rows serve later epochs' negatives.
                        nodes = np.arange(ctdg.num_nodes) if freeze_encoder else \
                            np.concatenate([src, dst])
                        enc_epoch = 0 if freeze_encoder else epoch
                        embeddings = encode(cache, encoder, config.max_neighbors,
                                            (config.seed, ENC_STREAM, enc_epoch, index),
                                            nodes, training=not freeze_encoder,
                                            node_features=ctdg.node_features)
                        if freeze_encoder:
                            frozen_embeddings[index] = embeddings
                with timer.phase("decode"):
                    # FLP's decoder has no dropout, so only DNC draws from this rng.
                    drop_rng = np.random.default_rng((config.seed, DNC_INIT_STREAM, epoch, index))
                    loss = bce_loss(score(task, decoder, embeddings, src, dst, t, cache,
                                          training=True, rng=drop_rng), kind == POSITIVE)
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
        row = {"epoch": epoch, "train_loss": total_loss / steps if steps else float("nan"),
               "val_ap": val_ap}
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
