"""Decoders, negative sampling, the evaluation passes and the training protocols."""

import tracemalloc

import numpy as np
import pytest

import dygwin.downstream as downstream
import dygwin.encoder as encoder_module
import dygwin.tensor as T
from dygwin.checkpoint import load_checkpoint, save_model
from dygwin.data import CTDG, SplitSpec, chronological_split, inductive_split
from dygwin.downstream import (NEGATIVE, POSITIVE, RANK, TrainConfig, bce_loss, candidates,
                               evaluate, evaluate_flp, flp_score, init_decoder,
                               init_flp_decoder, region_scores, sample_negatives, score,
                               train_downstream, training_intervals)
from dygwin.encoder import NodeEmbeddings, init_encoder
from dygwin.errors import ConfigError, ContractError
from dygwin.features import WindowFeatureCache
from dygwin.pretrain import init_predictor

from gradcheck import finite_difference_check
from graphs import ctdg_from, edges_from
import oracles
from oracles import checkpoint_digest
from synthetic import make_synthetic_ctdg


def embeddings_of(values):
    arr = np.asarray(values, dtype=np.float64)
    return NodeEmbeddings(np.arange(len(arr)), T.constant(arr))


def one_edge_logit(decoder, emb, u, v, t, cache):
    return flp_score(decoder, emb, np.array([u]), np.array([v]), np.array([t]), cache)


class TestSampleNegatives:
    def test_train_mode_one_per_positive(self):
        targets = edges_from([(i % 7, (i + 1) % 7, float(i)) for i in range(200)])
        negs = sample_negatives(targets, np.random.default_rng(0), num_nodes=7)
        assert negs.shape == (200, 1)
        assert np.all(negs.ravel() != targets.v)
        assert np.all((negs >= 0) & (negs < 7))

    def test_rank_mode_five_hundred_per_positive(self):
        targets = edges_from([(0, 1, 0.0), (1, 2, 1.0), (2, 3, 2.0)])
        negs = sample_negatives(targets, np.random.default_rng(0), num_nodes=50,
                                per_positive=500)
        assert negs.size == 1500
        for row, v in zip(negs, targets.v):
            assert np.all(row != v)

    def test_two_node_graph_forced_destination(self):
        targets = edges_from([(0, 1, 0.0)])
        negs = sample_negatives(targets, np.random.default_rng(0), num_nodes=2)
        assert negs.ravel().tolist() == [0]

    def test_single_node_impossible(self):
        targets = edges_from([(0, 0, 0.0)])
        with pytest.raises(ContractError):
            sample_negatives(targets, np.random.default_rng(0), num_nodes=1)


class TestFlpCandidates:
    TARGETS = edges_from([(i % 7, (3 * i + 1) % 9, float(i)) for i in range(12)])

    @pytest.mark.parametrize("rank_negatives", [0, 1, 5])
    def test_draws_are_sample_negatives_draws(self, rank_negatives):
        targets = self.TARGETS
        src, dst, t, kind = candidates("flp", targets, 9, np.random.default_rng(4),
                                       np.random.default_rng(5), rank_negatives, offset=18)
        negatives = sample_negatives(targets, np.random.default_rng(4), 9)
        rank = sample_negatives(targets, np.random.default_rng(5), 9, rank_negatives)
        assert kind.tolist() == [POSITIVE] * 12 + [NEGATIVE] * 12 + [RANK] * 12 * rank_negatives
        assert (dst[kind == POSITIVE] - 18).tolist() == targets.v.tolist()
        assert (dst[kind == NEGATIVE] - 18).tolist() == negatives.ravel().tolist()
        assert (dst[kind == RANK] - 18).tolist() == rank.ravel().tolist()
        # every candidate keeps its positive's source and time; rank rows go positive by positive
        owner = np.concatenate([np.arange(12), np.arange(12), np.repeat(np.arange(12),
                                                                        rank_negatives)])
        assert (src - 18).tolist() == targets.u[owner].tolist()
        assert t.tolist() == targets.t[owner].tolist()

    def test_rank_draws_leave_the_one_to_one_draws_alone(self):
        plain = candidates("flp", self.TARGETS, 9, np.random.default_rng(4))
        ranked = candidates("flp", self.TARGETS, 9, np.random.default_rng(4),
                            np.random.default_rng(5), 3)
        for column, longer in zip(plain, ranked):
            assert column.tolist() == longer[:24].tolist()


def test_dnc_candidates_are_the_labeled_targets():
    targets = edges_from([(3, 1, 1.0), (4, 2, 2.0), (5, 0, 3.0), (6, 1, 4.0)],
                         labels=[1.0, 0.0, np.nan, 0.2])  # edge 2 unlabeled
    src, dst, t, kind = candidates("dnc", targets, 7, np.random.default_rng(0), offset=7)
    assert src.tolist() == dst.tolist() == [10, 11, 13]
    assert t.tolist() == [1.0, 2.0, 4.0]
    assert kind.tolist() == [POSITIVE, NEGATIVE, NEGATIVE]


class TestBceLoss:
    def test_logit_zero_label_one(self):
        loss = bce_loss(T.constant(np.zeros((1, 1))), np.ones((1, 1)))
        assert abs(loss.item() - np.log(2)) < 1e-12

    def test_large_logit_no_overflow(self):
        loss = bce_loss(T.constant(np.full((1, 1), 20.0)), np.ones((1, 1)))
        assert loss.item() == pytest.approx(np.exp(-20.0), rel=1e-6)

    def test_separated_batch_loss_vanishes_monotonically(self):
        losses = []
        for magnitude in (1.0, 3.0, 9.0, 27.0):
            logits = T.constant(np.array([[magnitude, -magnitude]]))
            losses.append(bce_loss(logits, np.array([[1.0, 0.0]])).item())
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 1e-11

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            bce_loss(T.constant(np.zeros((0, 1))), np.zeros((0, 1)))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ContractError):
            bce_loss(T.constant(np.zeros((1, 1))), np.array([[0.5]]))


class TestFlpDecoder:
    def test_zero_weights_logit_is_bias(self):
        decoder = init_flp_decoder(node_dim=4, time_dim=3, seed=0, dtype=np.float64)
        for w, _ in decoder.layers:
            w.values[:] = 0.0
        decoder.layers[-1][1].values[:] = 1.25
        emb = embeddings_of(np.random.default_rng(0).normal(size=(5, 4)))
        edges = edges_from([(0, 1, 1.0)])
        cache = WindowFeatureCache(edges)
        for u, v, t in [(0, 1, 2.0), (3, 4, 9.0)]:
            logit = one_edge_logit(decoder, emb, u, v, t, cache)
            assert logit.values.item() == 1.25

    def test_symmetric_under_equal_recency(self):
        decoder = init_flp_decoder(node_dim=4, time_dim=3, seed=1, dtype=np.float64)
        emb = embeddings_of(np.random.default_rng(1).normal(size=(4, 4)))
        edges = edges_from([(0, 1, 5.0)])  # both endpoints last active at t=5
        cache = WindowFeatureCache(edges)
        a = one_edge_logit(decoder, emb, 0, 1, 8.0, cache)
        b = one_edge_logit(decoder, emb, 1, 0, 8.0, cache)
        assert np.allclose(a.values, b.values, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_inputs_get_bit_equal_logits(self, dtype):
        """At every batch size from 1 to 70, a candidate repeated at the batch's
        start, in its middle and at its end gets the same logit bits each time."""
        rng = np.random.default_rng(6)
        decoder = init_flp_decoder(node_dim=100, time_dim=100, seed=2, dtype=dtype)
        emb = NodeEmbeddings(np.arange(40), T.constant(rng.normal(size=(40, 100)), dtype=dtype))
        cache = WindowFeatureCache(edges_from([(i, i + 1, float(i)) for i in range(39)]))
        for n in range(1, 71):
            src, dst = rng.integers(0, 40, n), rng.integers(0, 40, n)
            ts = rng.uniform(40.0, 50.0, n)
            repeats = np.unique(np.r_[np.arange(0, n, 3), n - 1])
            src[repeats], dst[repeats], ts[repeats] = src[0], dst[0], ts[0]
            logits = flp_score(decoder, emb, src, dst, ts, cache).values.ravel()
            assert logits.dtype == dtype
            assert len({logits[i].tobytes() for i in repeats}) == 1, n

    def test_history_less_source_falls_back_to_window_end(self):
        edges = edges_from([(0, 1, 4.0)])
        cache = WindowFeatureCache(edges)
        assert cache.index.last_time([9, 0], fallback=7.5).tolist() == [7.5, 4.0]


class TestDncDecoder:
    def test_eval_mode_deterministic(self):
        decoder = init_decoder("dnc", node_dim=4, time_dim=3, seed=0, dtype=np.float64)
        emb = embeddings_of(np.random.default_rng(2).normal(size=(3, 4)))
        edges = edges_from([(0, 1, 1.0)])
        cache = WindowFeatureCache(edges)
        a = score("dnc", decoder, emb, np.array([0]), np.array([0]), np.array([2.0]), cache)
        b = score("dnc", decoder, emb, np.array([0]), np.array([0]), np.array([2.0]), cache)
        assert a.values.tobytes() == b.values.tobytes()

    def test_zero_weights_constant_logit(self):
        decoder = init_decoder("dnc", node_dim=4, time_dim=3, seed=0, dtype=np.float64)
        for w, _ in decoder.layers:
            w.values[:] = 0.0
        decoder.layers[-1][1].values[:] = -0.5
        emb = embeddings_of(np.random.default_rng(3).normal(size=(4, 4)))
        edges = edges_from([(0, 1, 1.0)])
        cache = WindowFeatureCache(edges)
        src = np.array([0, 1, 2])
        logits = score("dnc", decoder, emb, src, src, np.array([2.0, 3.0, 4.0]), cache)
        assert np.allclose(logits.values, -0.5)

    def test_gradient_through_three_layers(self):
        decoder = init_decoder("dnc", node_dim=4, time_dim=3, seed=4, dtype=np.float64)
        emb = embeddings_of(np.random.default_rng(4).normal(size=(6, 4)))
        edges = edges_from([(0, 1, 1.0), (2, 3, 2.0)])
        cache = WindowFeatureCache(edges)
        labels = np.array([[1.0], [0.0], [1.0]])

        def forward():
            src = np.array([0, 2, 4])
            logits = score("dnc", decoder, emb, src, src, np.array([3.0, 4.0, 5.0]), cache)
            return bce_loss(logits, labels)

        report = finite_difference_check(forward, decoder.named(), h=1e-6)
        assert report.max_rel_error < 1e-4, report


class TestRecencyGap:
    """The decoder's time input is t minus the source's last time in the input slice."""

    def _logit(self, triples, src, t):
        decoder = init_flp_decoder(node_dim=4, time_dim=3, seed=2, dtype=np.float64)
        emb = embeddings_of(np.ones((6, 4)))  # equal rows: only the gap tells sources apart
        return one_edge_logit(decoder, emb, src, 0, t,
                              WindowFeatureCache(edges_from(triples))).values.item()

    def test_history_less_source_gap_runs_to_the_slice_end(self):
        window = [(0, 1, 4.0), (2, 3, 9.0)]
        assert self._logit(window, 5, 12.0) == self._logit(window, 2, 12.0)
        assert self._logit(window, 5, 12.0) != self._logit(window, 0, 12.0)

    def test_empty_slice_gives_a_gap_of_zero(self):
        assert self._logit([], 5, 12.0) == self._logit([(5, 1, 12.0)], 5, 12.0)

    @pytest.mark.parametrize("task", ["flp", "dnc"])
    def test_empty_slice_scores_ignore_other_targets(self, task, monkeypatch):
        # The region starts at edge 0, so its first cut has no input edges.
        encoder = init_encoder(num_layers=1, node_dim=4, time_dim=3, heads=1, seed=0)
        decoder = init_decoder(task, 4, 3, seed=0)
        original = downstream.score
        scored = []

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            scored.append(out.values.ravel().copy())
            return out

        monkeypatch.setattr(downstream, "score", recording)
        later = []
        for first_time in (1.0, 4.0):
            scored.clear()
            ctdg = ctdg_from([(0, 1, first_time), (2, 3, 5.0), (1, 4, 6.0)], num_nodes=5,
                             labels=[1.0, 0.0, 1.0])
            downstream.evaluate(task, ctdg, (0, 3), encoder, decoder, 10, 3, 5, seed=0)
            later.append(scored[0][1:])  # the positives of the targets at t=5 and t=6
        assert np.array_equal(later[0], later[1])


@pytest.mark.parametrize("task, tail", [
    ("flp", [("decoder/w2", (5, 1)), ("decoder/b2", (1, 1))]),
    ("dnc", [("decoder/w2", (5, 5)), ("decoder/b2", (1, 5)),
             ("decoder/w3", (5, 1)), ("decoder/b3", (1, 1))]),
    ("predictor", [("predictor/w1", (5, 5)), ("predictor/b1", (1, 5)),
                   ("predictor/w2", (5, 5)), ("predictor/b2", (1, 5))]),
    ("encoder", [("encoder/time2vec/omega", (1, 2)), ("encoder/time2vec/phase", (1, 2)),
                 ("encoder/edge_enc/w2", (3, 2)), ("encoder/input_proj", (3, 4))]),
    ("featureless", [("encoder/time2vec/omega", (1, 2)), ("encoder/time2vec/phase", (1, 2)),
                     ("encoder/edge_enc/w2", (3, 2)),
                     ("encoder/layer0/wv", (6, 4)), ("encoder/layer0/wo", (4, 4)),
                     *[(f"encoder/layer1/{name}", shape) for name, shape in
                       (("w1", (4, 4)), ("wq", (4, 4)), ("wk", (6, 4)), ("wv", (6, 4)),
                        ("wo", (4, 4)))]]),
])
def test_decoder_checkpoint_names_order_and_shapes(task, tail, tmp_path):
    # Saved model files store the parameters under these names; changing them breaks loading.
    path = tmp_path / "model.dygw"
    if task == "predictor":
        save_model(path, predictor=init_predictor(5))
    elif task == "encoder":  # the names outside encoder/layer{i}/
        save_model(path, encoder=init_encoder(num_layers=1, node_dim=4, time_dim=2,
                                              node_feature_dim=3))
    elif task == "featureless":  # every name: layer 0 holds only wv and wo
        save_model(path, encoder=init_encoder(num_layers=2, node_dim=4, time_dim=2))
    else:
        save_model(path, decoder=init_decoder(task, node_dim=5, time_dim=2))
        tail = [("decoder/t2v/omega", (1, 2)), ("decoder/t2v/phase", (1, 2)),
                ("decoder/w1", (7, 5)), ("decoder/b1", (1, 5)), *tail]
    saved = [(name, values.shape) for name, values in load_checkpoint(path).items()]
    if task != "featureless":
        saved = [entry for entry in saved if "/layer" not in entry[0]]
    assert saved == tail


def test_unknown_task_is_config_error_at_every_entry():
    ctdg = ctdg_from([(0, 1, 1.0), (1, 2, 2.0)])
    encoder = init_encoder(num_layers=1, node_dim=4, time_dim=3, heads=1, seed=0)
    decoder = init_decoder("flp", 4, 3)
    emb = embeddings_of(np.ones((3, 4)))
    calls = [lambda: init_decoder("regression", 4, 3),
             lambda: candidates("regression", ctdg.window(0, 2), 3, np.random.default_rng(0)),
             lambda: score("regression", decoder, emb, np.array([0]), np.array([1]),
                           np.array([3.0]), WindowFeatureCache(ctdg)),
             lambda: region_scores("regression", ctdg, (2, 2), encoder, decoder, 2, 1, 2, 0),
             lambda: evaluate("regression", ctdg, (2, 2), encoder, decoder, 2, 1, 2, 0)]
    for call in calls:
        with pytest.raises(ConfigError):
            call()


def test_dnc_rank_negatives_is_contract_error():
    ctdg = ctdg_from([(0, 1, 1.0), (1, 2, 2.0)], labels=[1.0, 0.0])
    encoder = init_encoder(num_layers=1, node_dim=4, time_dim=3, heads=1, seed=0)
    with pytest.raises(ContractError, match="rank_negatives"):
        evaluate("dnc", ctdg, (1, 2), encoder, init_decoder("dnc", 4, 3), 1, 1, 2, 0,
                 rank_negatives=5)


@pytest.mark.parametrize("field, value", [("val_every", 0), ("val_every", -1)])
def test_train_config_rejects_out_of_range(field, value):
    # Library callers reach train_downstream without the CLI's config checks.
    with pytest.raises(ContractError):
        TrainConfig(**{field: value})


@pytest.fixture(scope="module")
def small_world():
    ctdg = make_synthetic_ctdg(num_nodes=30, num_edges=900, history=60,
                               label_threshold=5, seed=9)
    split = chronological_split(ctdg)
    return ctdg, split


class TestTrainingProtocols:
    def _config(self, **kw):
        base = dict(window=200, target_size=60, epochs=2, lr=1e-3,
                    max_neighbors=10, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def _encoder(self, seed=0):
        return init_encoder(num_layers=2, node_dim=16, time_dim=8, heads=2, seed=seed)

    def test_frozen_encoder_byte_identical(self, small_world):
        ctdg, split = small_world
        encoder = self._encoder()
        before = checkpoint_digest(encoder.named())
        train_downstream(ctdg, split, "flp", encoder, freeze_encoder=True,
                         config=self._config())
        assert checkpoint_digest(encoder.named()) == before

    def test_label_fraction_selects_exact_seeded_subset(self):
        config = TrainConfig(window=50, target_size=10, epochs=1, seed=5)
        full_starts, full_ends = training_intervals(1000, config, label_fraction=1.0)
        assert full_ends.size == 99  # the window ending at edge 1000 would have no target
        starts_a, ends_a = training_intervals(1000, config, label_fraction=0.1)
        starts_b, ends_b = training_intervals(1000, config, label_fraction=0.1)
        assert ends_a.size == 10
        assert starts_a.tolist() == starts_b.tolist() and ends_a.tolist() == ends_b.tolist()
        # a subset keeps each window whole: its start is the full set's start for that end
        assert starts_a.tolist() == full_starts[np.searchsorted(full_ends, ends_a)].tolist()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_label_fraction_subset_keeps_a_window_with_targets(self, seed):
        # K divides the 400-edge log: a window ending at edge 400 has no target.
        config = TrainConfig(window=4096, target_size=200, seed=seed)
        assert training_intervals(400, config, label_fraction=0.5)[1].tolist() == [200]
        ctdg = make_synthetic_ctdg(num_nodes=30, num_edges=400, history=60, seed=seed)
        split = SplitSpec(mode="transductive", boundaries=(400, 400))
        result = train_downstream(ctdg, split, "flp", self._encoder(), label_fraction=0.5,
                                  config=self._config(window=4096, target_size=200, epochs=1,
                                                      seed=seed))
        assert np.isfinite(result.history[1]["train_loss"])

    def test_unknown_task_rejected(self, small_world):
        ctdg, split = small_world
        with pytest.raises(ConfigError):
            train_downstream(ctdg, split, "regression", self._encoder())

    def test_one_decode_per_training_step_and_evaluation_pass(self, small_world, monkeypatch):
        ctdg, split = small_world
        config = self._config()
        calls, original = [], downstream.flp_score
        monkeypatch.setattr(downstream, "flp_score",
                            lambda *args: calls.append(len(args[2])) or original(*args))
        train_end, val_end = split.boundaries
        passes = len(list(downstream.evaluation_passes(
            ctdg, (train_end, val_end), config.window, config.target_size,
            split.masked_filter(ctdg))))
        steps = training_intervals(train_end, config)[1].size
        train_downstream(ctdg, split, "flp", self._encoder(), config=config)
        # validation before the first epoch and after each of the two
        assert len(calls) == 3 * passes + 2 * steps
        assert 2 * config.target_size in calls  # a step decodes positives and negatives at once

    def test_history_records_initial_validation(self, small_world):
        ctdg, split = small_world
        result = train_downstream(ctdg, split, "flp", self._encoder(),
                                  config=self._config(epochs=1))
        assert result.history[0]["epoch"] == 0
        assert result.history[0]["train_loss"] is None

    def test_epoch_without_a_step_logs_nan_loss(self, small_world):
        # A target window longer than the 630-edge training log leaves no interval.
        ctdg, split = small_world
        result = train_downstream(ctdg, split, "flp", self._encoder(),
                                  config=self._config(epochs=1, target_size=1000))
        assert np.isnan(result.history[1]["train_loss"])

    def test_dnc_epoch_without_labels_logs_nan_loss(self, small_world):
        ctdg, split = small_world
        unlabeled = CTDG(ctdg.u, ctdg.v, ctdg.t, ctdg.feats, ctdg.labels,
                         np.zeros_like(ctdg.label_present), ctdg.num_nodes)
        result = train_downstream(unlabeled, split, "dnc", self._encoder(),
                                  config=self._config(epochs=2))
        assert [np.isnan(row["train_loss"]) for row in result.history[1:]] == [True, True]

    def test_dnc_trained_beats_untrained(self, small_world):
        ctdg, split = small_world
        _, val_end = split.boundaries
        region = (val_end, len(ctdg))
        encoder = self._encoder()
        untrained = init_decoder("dnc", 16, 8, seed=0)
        before = evaluate("dnc", ctdg, region, encoder, untrained, 200, 60, 10, seed=0)
        result = train_downstream(ctdg, split, "dnc", encoder, freeze_encoder=True,
                                  config=self._config(epochs=6))
        after = evaluate("dnc", ctdg, region, encoder, result.decoder, 200, 60, 10, seed=0)
        assert before["auc"] is not None and after["auc"] is not None
        assert 0.0 <= after["auc"] <= 1.0
        assert after["auc"] >= before["auc"]

    def test_degenerate_labels_reported_absent(self):
        ctdg = ctdg_from([(i % 4, (i + 1) % 4, float(i)) for i in range(40)],
                         labels=[1.0] * 40)
        encoder = self._encoder()
        decoder = init_decoder("dnc", 16, 8, seed=0)
        with pytest.warns(UserWarning):
            report = evaluate("dnc", ctdg, (20, 40), encoder, decoder, 20, 10, 5, seed=0)
        assert report["auc"] is None

    def test_each_region_edge_scored_once(self, small_world):
        ctdg, split = small_world
        _, val_end = split.boundaries
        region = (val_end, len(ctdg))
        encoder = self._encoder()
        decoder = init_flp_decoder(16, 8, seed=0)
        report = evaluate_flp(ctdg, region, encoder, decoder, 200, 60, 10, seed=0)
        assert report["num_positives"] == region[1] - region[0]

    def test_rank_metrics_present_when_requested(self, small_world):
        ctdg, split = small_world
        _, val_end = split.boundaries
        encoder = self._encoder()
        decoder = init_flp_decoder(16, 8, seed=0)
        report = evaluate_flp(ctdg, (val_end, min(val_end + 30, len(ctdg))),
                              encoder, decoder, 200, 30, 10, seed=0,
                              rank_negatives=25)
        assert 0.0 < report["mrr"] <= 1.0
        assert 0.0 <= report["recall_at_10"] <= 1.0

    @pytest.mark.parametrize("horizon", [1, 50, 200])
    def test_constant_flp_scorer_not_rewarded(self, small_world, horizon):
        ctdg, split = small_world
        _, val_end = split.boundaries
        decoder = init_flp_decoder(16, 8, seed=0)
        for p in decoder.layers[-1]:
            p.values[:] = 0.0
        report = evaluate_flp(ctdg, (val_end, len(ctdg)), self._encoder(), decoder,
                              200, horizon, 10, seed=0)
        assert report["ap"] <= 0.5

    def test_constant_dnc_scorer_not_rewarded(self, small_world):
        ctdg, split = small_world
        _, val_end = split.boundaries
        decoder = init_decoder("dnc", 16, 8, seed=0)
        for p in decoder.layers[-1]:
            p.values[:] = 0.0
        report = evaluate("dnc", ctdg, (val_end, len(ctdg)), self._encoder(), decoder,
                          200, 60, 10, seed=0)
        present = ctdg.label_present[val_end:]
        positive_rate = np.mean(ctdg.labels[val_end:][present] > 0.5)
        assert 0.0 < positive_rate < 1.0
        assert report["ap"] <= positive_rate


class TestEvaluationPasses:
    """The batched cut loop against ``oracles``' one-cut-at-a-time reference."""

    REGION = (500, 560)
    WINDOW, NEIGHBORS, SEED = 120, 4, 3

    @pytest.fixture(scope="class")
    def world(self):
        ctdg = make_synthetic_ctdg(num_nodes=30, num_edges=600, history=60,
                                   label_threshold=5, seed=4)
        split = inductive_split(ctdg, node_fraction=0.3, seed=1)
        return ctdg, split.masked_filter(ctdg)

    def _models(self, task, dtype):
        encoder = init_encoder(num_layers=2, node_dim=8, time_dim=4, heads=2, seed=5,
                               dtype=dtype)
        return encoder, init_decoder(task, 8, 4, seed=6, dtype=dtype)

    def _args(self, world, task, dtype, horizon, region=REGION):
        ctdg, _ = world
        return (ctdg, region, *self._models(task, dtype), self.WINDOW, horizon,
                self.NEIGHBORS, self.SEED)

    @staticmethod
    def _close(got, expected, dtype):
        # float64 agrees to 1e-12 relative; float32 to a few of its own ulps
        rtol = 1e-12 if dtype == np.float64 else 8 * np.finfo(np.float32).eps
        assert got.shape == expected.shape
        scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
        assert np.abs(got - expected).max(initial=0.0) <= rtol * scale

    def test_evaluation_passes_cover_region_once(self):
        ctdg = ctdg_from([(0, 1, float(i)) for i in range(37)])
        seen = []
        for _, _, targets in downstream.evaluation_passes(ctdg, (20, 37), window=10, horizon=5):
            seen.extend(idx for cut_targets in targets for idx in cut_targets.idx.tolist())
        assert seen == list(range(20, 37))

    @pytest.mark.parametrize("horizon, sizes", [(1, [16, 16, 8]), (5, [3, 3, 2]),
                                                (20, [1, 1])])
    def test_passes_hold_at_most_pass_targets(self, horizon, sizes):
        # a 20-edge cut is over PASS_TARGETS = 16, so it goes alone
        ctdg = ctdg_from([(i % 7, (i + 1) % 7, float(i)) for i in range(100)])
        passes = list(downstream.evaluation_passes(ctdg, (60, 100), 50, horizon))
        assert [len(cuts) for _, cuts, _ in passes] == sizes
        for cache, cuts, _ in passes:
            assert cache.index.hi.tolist() == [cut - 10 for cut in cuts]  # the log starts at 10
            assert cache.index.lo.tolist() == [max(0, cut - 60) for cut in cuts]
            assert cache.index.stride == ctdg.num_nodes

    def test_evaluation_passes_hold_one_pass_at_a_time(self):
        # One pass holds at most PASS_TARGETS cuts' targets and window bounds, so
        # past the region's one cache (W + cuts edges) a stream of passes does
        # not grow with the cuts, and a list of them would.
        ctdg = ctdg_from([(i % 7, (i + 1) % 7, float(i)) for i in range(2400)])
        peaks = []
        for cuts in (40, 400):
            tracemalloc.start()
            for _ in downstream.evaluation_passes(ctdg, (2000, 2000 + cuts), window=2000,
                                                  horizon=1):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("horizon", [1, 7])
    def test_sampled_positions_match_per_cut(self, world, horizon, monkeypatch):
        original = encoder_module.build_layered_neighborhood
        calls = []

        def recording(index, *args, **kwargs):
            hood = original(index, *args, **kwargs)
            calls.append((index, hood))
            return hood

        monkeypatch.setattr(encoder_module, "build_layered_neighborhood", recording)
        args = self._args(world, "flp", np.float64, horizon)
        downstream.region_scores("flp", *args, target_filter=world[1], rank_negatives=3)
        # one window's layers per cut, anchors as node ids and positions in its slice
        batched = [[{anchor - slot * index.stride: sample - index.lo[slot]
                     for anchor, sample in oracles.sample_dict(samples).items()
                     if anchor // index.stride == slot}
                    for samples in hood.layers]
                   for index, hood in calls for slot in range(len(index.lo))]
        passes, calls[:] = len(calls), []
        oracles.region_scores_per_cut("flp", *args, target_filter=world[1], rank_negatives=3)
        per_cut = [[oracles.sample_dict(samples) for samples in hood.layers] for _, hood in calls]
        assert len(batched) == len(per_cut) > passes  # passes of several cuts
        for got, expected in zip(batched, per_cut):
            assert [list(samples) for samples in got] == [list(samples) for samples in expected]
            for samples, reference in zip(got, expected):
                for anchor, sample in samples.items():
                    assert sample.tolist() == reference[anchor].tolist()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("horizon", [1, 7])
    @pytest.mark.parametrize("task", ["flp", "dnc"])
    def test_region_scores_match_per_cut(self, world, task, horizon, dtype):
        args = self._args(world, task, dtype, horizon)
        rank_negatives = 5 if task == "flp" else 0
        for target_filter in (None, world[1]):
            scores, kinds = region_scores(task, *args, target_filter=target_filter,
                                          rank_negatives=rank_negatives)
            reference, expected_kinds = oracles.region_scores_per_cut(
                task, *args, target_filter=target_filter, rank_negatives=rank_negatives)
            assert np.any(kinds == POSITIVE) and np.any(kinds == NEGATIVE)
            assert kinds.tolist() == expected_kinds.tolist()
            self._close(scores, reference, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rank_metrics_do_not_depend_on_pass_layout(self, dtype, monkeypatch):
        """K=1 with rank negatives gives one report whatever the pass size. Nodes
        0-7 make the history; each region edge goes to a node never seen before,
        and with no node features every history-less node has the same row, so
        its positive ties the rank negatives that drew history-less nodes."""
        rng = np.random.default_rng(8)
        triples = [(*map(int, rng.choice(8, size=2, replace=False)), float(i))
                   for i in range(200)]
        triples += [(int(rng.integers(0, 8)), 8 + i, 200.0 + i) for i in range(24)]
        ctdg = ctdg_from(triples, num_nodes=60)
        encoder = init_encoder(num_layers=2, node_dim=16, time_dim=8, heads=2, seed=5,
                               dtype=dtype)
        args = (ctdg, (200, 224), encoder, init_flp_decoder(16, 8, seed=6, dtype=dtype), 100,
                1, 8, 3)
        reports, ties = [], []
        for pass_targets in (1, 2, 16):
            monkeypatch.setattr(downstream, "PASS_TARGETS", pass_targets)
            reports.append(evaluate_flp(*args, rank_negatives=20))
            scores, kinds = region_scores("flp", *args, rank_negatives=20)
            pos, rank = scores[kinds == POSITIVE], scores[kinds == RANK].reshape(24, 20)
            ties.append(int((rank == pos[:, None]).sum()))
        assert ties[0] > 24 and ties == ties[:1] * 3
        assert reports == reports[:1] * 3

    @pytest.mark.filterwarnings("ignore:auc undefined")  # one K=1 target has one label
    @pytest.mark.parametrize("region, horizon", [((500, 501), 1), ((500, 540), 40)])
    def test_single_cut_region_report_byte_identical(self, world, region, horizon,
                                                     monkeypatch):
        flp = self._args(world, "flp", np.float32, horizon, region)
        dnc = self._args(world, "dnc", np.float32, horizon, region)
        batched = (evaluate_flp(*flp, rank_negatives=5), evaluate("dnc", *dnc))
        monkeypatch.setattr(downstream, "region_scores", oracles.region_scores_per_cut)
        assert (evaluate_flp(*flp, rank_negatives=5), evaluate("dnc", *dnc)) == batched
