"""Decoders, negative sampling, the evaluation passes and the training protocols."""

import tracemalloc

import numpy as np
import pytest

import dygwin.downstream as downstream
import dygwin.encoder as encoder_module
import dygwin.tensor as T
from dygwin.checkpoint import load_checkpoint, save_model
from dygwin.data import chronological_split, inductive_split
from dygwin.downstream import (TrainConfig, bce_loss, dnc_score, evaluate_dnc,
                               evaluate_flp, flp_score, init_decoder, init_flp_decoder,
                               sample_negatives, train_downstream, training_intervals)
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
        a = dnc_score(decoder, emb, np.array([0]), np.array([2.0]), cache, training=False)
        b = dnc_score(decoder, emb, np.array([0]), np.array([2.0]), cache, training=False)
        assert a.values.tobytes() == b.values.tobytes()

    def test_zero_weights_constant_logit(self):
        decoder = init_decoder("dnc", node_dim=4, time_dim=3, seed=0, dtype=np.float64)
        for w, _ in decoder.layers:
            w.values[:] = 0.0
        decoder.layers[-1][1].values[:] = -0.5
        emb = embeddings_of(np.random.default_rng(3).normal(size=(4, 4)))
        edges = edges_from([(0, 1, 1.0)])
        cache = WindowFeatureCache(edges)
        logits = dnc_score(decoder, emb, np.array([0, 1, 2]), np.array([2.0, 3.0, 4.0]),
                           cache)
        assert np.allclose(logits.values, -0.5)

    def test_gradient_through_three_layers(self):
        decoder = init_decoder("dnc", node_dim=4, time_dim=3, seed=4, dtype=np.float64)
        emb = embeddings_of(np.random.default_rng(4).normal(size=(6, 4)))
        edges = edges_from([(0, 1, 1.0), (2, 3, 2.0)])
        cache = WindowFeatureCache(edges)
        labels = np.array([[1.0], [0.0], [1.0]])

        def forward():
            logits = dnc_score(decoder, emb, np.array([0, 2, 4]),
                               np.array([3.0, 4.0, 5.0]), cache, training=False)
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
        name = f"{task}_score"
        original = getattr(downstream, name)
        scored = []

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            scored.append(out.values.ravel().copy())
            return out

        monkeypatch.setattr(downstream, name, recording)
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
])
def test_decoder_checkpoint_names_order_and_shapes(task, tail, tmp_path):
    # Saved model files store the parameters under these names; changing them breaks loading.
    path = tmp_path / "model.dygw"
    if task == "predictor":
        save_model(path, predictor=init_predictor(5))
    elif task == "encoder":  # the names outside encoder/layer{i}/
        save_model(path, encoder=init_encoder(num_layers=1, node_dim=4, time_dim=2,
                                              node_feature_dim=3))
    else:
        save_model(path, decoder=init_decoder(task, node_dim=5, time_dim=2))
        tail = [("decoder/t2v/omega", (1, 2)), ("decoder/t2v/phase", (1, 2)),
                ("decoder/w1", (7, 5)), ("decoder/b1", (1, 5)), *tail]
    saved = [(name, values.shape) for name, values in load_checkpoint(path).items()]
    assert [entry for entry in saved if "/layer" not in entry[0]] == tail


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
        full = training_intervals(1000, config, label_fraction=1.0)
        assert len(full) == 100
        subset_a = training_intervals(1000, config, label_fraction=0.1)
        subset_b = training_intervals(1000, config, label_fraction=0.1)
        assert len(subset_a) == 10
        assert [(i.start, i.end) for i in subset_a] == [(i.start, i.end) for i in subset_b]

    def test_unknown_task_rejected(self, small_world):
        ctdg, split = small_world
        with pytest.raises(ConfigError):
            train_downstream(ctdg, split, "regression", self._encoder())

    def test_history_records_initial_validation(self, small_world):
        ctdg, split = small_world
        result = train_downstream(ctdg, split, "flp", self._encoder(),
                                  config=self._config(epochs=1))
        assert result.history[0]["epoch"] == 0
        assert result.history[0]["train_loss"] is None

    def test_dnc_trained_beats_untrained(self, small_world):
        ctdg, split = small_world
        _, val_end = split.boundaries
        region = (val_end, len(ctdg))
        encoder = self._encoder()
        untrained = init_decoder("dnc", 16, 8, seed=0)
        before = evaluate_dnc(ctdg, region, encoder, untrained, 200, 60, 10, seed=0)
        result = train_downstream(ctdg, split, "dnc", encoder, freeze_encoder=True,
                                  config=self._config(epochs=6))
        after = evaluate_dnc(ctdg, region, encoder, result.decoder, 200, 60, 10, seed=0)
        assert before["auc"] is not None and after["auc"] is not None
        assert 0.0 <= after["auc"] <= 1.0
        assert after["auc"] >= before["auc"]

    def test_degenerate_labels_reported_absent(self):
        ctdg = ctdg_from([(i % 4, (i + 1) % 4, float(i)) for i in range(40)],
                         labels=[1.0] * 40)
        encoder = self._encoder()
        decoder = init_decoder("dnc", 16, 8, seed=0)
        with pytest.warns(UserWarning):
            report = evaluate_dnc(ctdg, (20, 40), encoder, decoder, 20, 10, 5, seed=0)
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
        report = evaluate_dnc(ctdg, (val_end, len(ctdg)), self._encoder(), decoder,
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
        downstream.flp_scores(*args, target_filter=world[1], rank_negatives=3)
        # one window's layers per cut, anchors as node ids and positions in its slice
        batched = [[{anchor - slot * index.stride: sample - index.lo[slot]
                     for anchor, sample in samples.items() if anchor // index.stride == slot}
                    for samples in hood.layers]
                   for index, hood in calls for slot in range(len(index.lo))]
        passes, calls[:] = len(calls), []
        oracles.flp_scores_per_cut(*args, target_filter=world[1], rank_negatives=3)
        per_cut = [hood.layers for _, hood in calls]
        assert len(batched) == len(per_cut) > passes  # passes of several cuts
        for got, expected in zip(batched, per_cut):
            assert [list(samples) for samples in got] == [list(samples) for samples in expected]
            for samples, reference in zip(got, expected):
                for anchor, sample in samples.items():
                    assert sample.tolist() == reference[anchor].tolist()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("horizon", [1, 7])
    def test_flp_scores_match_per_cut(self, world, dtype, horizon):
        args = self._args(world, "flp", dtype, horizon)
        for target_filter in (None, world[1]):
            got = downstream.flp_scores(*args, target_filter=target_filter, rank_negatives=5)
            expected = oracles.flp_scores_per_cut(*args, target_filter=target_filter,
                                                  rank_negatives=5)
            assert got[0].size > 0
            for part, reference in zip(got, expected):
                self._close(part, reference, dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("horizon", [1, 7])
    def test_dnc_scores_match_per_cut(self, world, dtype, horizon):
        args = self._args(world, "dnc", dtype, horizon)
        for target_filter in (None, world[1]):
            scores, labels = downstream.dnc_scores(*args, target_filter=target_filter)
            reference, expected_labels = oracles.dnc_scores_per_cut(
                *args, target_filter=target_filter)
            assert labels.size > 0 and labels.tolist() == expected_labels.tolist()
            self._close(scores, reference, dtype)

    @pytest.mark.filterwarnings("ignore:auc undefined")  # one K=1 target has one label
    @pytest.mark.parametrize("region, horizon", [((500, 501), 1), ((500, 540), 40)])
    def test_single_cut_region_report_byte_identical(self, world, region, horizon,
                                                     monkeypatch):
        flp = self._args(world, "flp", np.float32, horizon, region)
        dnc = self._args(world, "dnc", np.float32, horizon, region)
        batched = (evaluate_flp(*flp, rank_negatives=5), evaluate_dnc(*dnc))
        monkeypatch.setattr(downstream, "flp_scores", oracles.flp_scores_per_cut)
        monkeypatch.setattr(downstream, "dnc_scores", oracles.dnc_scores_per_cut)
        assert (evaluate_flp(*flp, rank_negatives=5), evaluate_dnc(*dnc)) == batched
