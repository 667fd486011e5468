"""Acceptance suite: every criterion printed as a pass/fail line.

Criterion 9 (real-dataset reproduction) is excluded from the default run
and provided as scripts/reproduce_uci.py; everything else executes here.
"""

import time

import numpy as np
import pytest

import dygwin.tensor as T
from dygwin.cli import main as cli_main
from dygwin.downstream import (POSITIVE, TrainConfig, bce_loss, candidates, evaluate_flp,
                               evaluation_passes, flp_score, init_flp_decoder, train_downstream)
from dygwin.encoder import encode, init_encoder
from dygwin.features import WindowFeatureCache
from dygwin.metrics import auc, average_precision, mrr, recall_at_k
from dygwin.pretrain import (PretrainConfig, distort, init_predictor, ssl_loss_terms,
                             vicreg_covariance, vicreg_invariance, vicreg_variance)
from dygwin.windows import generate_intervals

from gradcheck import LARGE_GRADIENT, finite_difference_check
from graphs import ctdg_from, edges_from
from oracles import brute_common_neighbors, brute_degree
from probe_recipe import difference_of_differences, probe_seed, probe_world
from synthetic import make_synthetic_ctdg, write_synthetic_csv
from test_metrics import (oracle_auc, oracle_average_precision, oracle_rank, ragged,
                          records)


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[acceptance {number}] {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def synthetic_world():
    """The shared 5000-edge planted-rule dataset and its split."""
    return probe_world()


def test_criterion_1_full_model_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    triples = []
    t = 0.0
    for _ in range(25):
        u, v = rng.choice(10, size=2, replace=False)
        t += float(rng.uniform(0.5, 2.0))
        triples.append((int(u), int(v), t))
    feats = rng.normal(size=(25, 2)).astype(np.float32)
    ctdg = ctdg_from(triples, num_nodes=10, feats=feats)
    window, targets = ctdg.window(0, 18), ctdg.window(18, 25)

    encoder = init_encoder(num_layers=3, node_dim=8, time_dim=6, edge_dim=2,
                           heads=2, dropout=0.0, seed=1, dtype=np.float64)
    decoder = init_flp_decoder(node_dim=8, time_dim=6, seed=1, dtype=np.float64)
    predictor = init_predictor(8, seed=1, dtype=np.float64)
    src, dst, times, kind = candidates("flp", targets, ctdg.num_nodes,
                                       np.random.default_rng(2))
    distortion = PretrainConfig(p_drop_edge=0.3, p_mask_feat=0.3)
    view_a = distort(window, distortion, np.random.default_rng(3))
    view_b = distort(window, distortion, np.random.default_rng(4))
    common = np.intersect1d(view_a.endpoints(), view_b.endpoints())

    # caches are parameter-independent: build once
    cache = WindowFeatureCache(window)
    cache_a, cache_b = WindowFeatureCache(view_a), WindowFeatureCache(view_b)
    seeds = np.unique(np.concatenate([window.endpoints(), src, dst]))

    def forward():
        embeddings = encode(cache, encoder, 5, (9,), seeds)
        supervised = bce_loss(flp_score(decoder, embeddings, src, dst, times, cache),
                              kind == POSITIVE)
        h_a = encode(cache_a, encoder, 5, (10,), view_a.endpoints())
        h_b = encode(cache_b, encoder, 5, (11,), view_b.endpoints())
        self_supervised, _ = ssl_loss_terms(predictor.forward(h_a.gather(common)),
                                            predictor.forward(h_b.gather(common)))
        return T.add(supervised, T.scale(self_supervised, 0.01))

    params = {**encoder.named(), **decoder.named(), **predictor.named("predictor")}
    check = finite_difference_check(forward, params, h=1e-6, max_coords_per_param=40,
                                    rng=np.random.default_rng(0))
    elapsed = time.perf_counter() - started
    report(1, check.max_rel_error < 1e-3 and elapsed < 60.0,
           f"full-model finite differences: max rel error {check.max_rel_error:.2e} "
           f"(worst {check.worst_parameter or 'none'}); {check.large_rel_error:.2e} "
           f"without the atol floor over the {check.large_coords} coordinates with a "
           f"gradient above {LARGE_GRADIENT:g}; {elapsed:.1f}s")


def test_criterion_2_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        scores = np.round(rng.random(n), 2)
        labels = (rng.random(n) < 0.35).astype(int)
        recs = records(scores, labels)
        expected_ap = oracle_average_precision(scores, labels)
        got_ap = average_precision(*recs) if labels.sum() else None
        if expected_ap is None:
            mismatches += got_ap is not None
        elif abs(got_ap - expected_ap) > 1e-12:
            mismatches += 1
        if auc(*recs) != oracle_auc(scores.tolist(), labels.tolist()) \
                and labels.sum() not in (0, n):
            mismatches += 1
    groups, ranks = [], []
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        scores = np.round(rng.random(n), 1)
        labels = np.zeros(n, dtype=int)
        labels[rng.integers(0, n)] = 1
        groups.append(records(scores, labels))
        ranks.append(oracle_rank(scores.tolist(), labels.tolist()))
    if abs(mrr(*ragged(groups)) - np.mean([1.0 / r for r in ranks])) > 1e-12:
        mismatches += 1
    if recall_at_k(*ragged(groups), 10) != np.mean([r <= 10 for r in ranks]):
        mismatches += 1
    elapsed = time.perf_counter() - started
    report(2, mismatches == 0 and elapsed < 10.0,
           f"AP/MRR/Recall@10/AUC vs brute force on 1000 instances: "
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_3_temporal_feature_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(100):
        n_nodes = int(rng.integers(3, 10))
        n_edges = int(rng.integers(1, 50))
        triples = [(int(a), int(b), float(i))
                   for i, (a, b) in enumerate(rng.integers(0, n_nodes,
                                                           size=(n_edges, 2)))]
        queries = [(u, v, t) for t in {tr[2] for tr in triples}
                   for u in range(n_nodes) for v in range(u, n_nodes)]
        us, vs, ts = (np.asarray(column) for column in zip(*queries))
        counts = WindowFeatureCache(edges_from(triples)).counts_at(us, vs, ts)
        for (u, v, t), row in zip(queries, counts.tolist()):
            if row != [brute_degree(triples, u, t), brute_degree(triples, v, t),
                       brute_common_neighbors(triples, u, v, t)]:
                mismatches += 1
    elapsed = time.perf_counter() - started
    report(3, mismatches == 0 and elapsed < 10.0,
           f"degree/common-neighbor counts vs brute force on 100 graphs: "
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_window_invariants():
    rng = np.random.default_rng(13)
    failures = []
    for trial in range(20):
        horizon = int(rng.integers(2, 40))
        total = int(rng.integers(horizon, 400))
        window = int(rng.integers(1, 3 * horizon + 1))
        covered = np.zeros(total, dtype=int)
        for end in generate_intervals(total, stride=horizon, window=window)[1]:
            covered[end:min(end + horizon, total)] += 1
        if not (np.all(covered[horizon:] == 1) and np.all(covered[:horizon] == 0)):
            failures.append(f"trial {trial}: training coverage broken")

        n_nodes = int(rng.integers(5, 15))
        triples = [(int(a), int(b), float(i)) for i, (a, b) in
                   enumerate(rng.integers(0, n_nodes, size=(total, 2)))]
        ctdg = ctdg_from(triples, num_nodes=n_nodes)
        region_start = total // 2
        seen = []
        for _, _, targets in evaluation_passes(ctdg, (region_start, total), window, horizon):
            seen.extend(idx for cut_targets in targets for idx in cut_targets.idx.tolist())
        if seen != list(range(region_start, total)):
            failures.append(f"trial {trial}: evaluation coverage broken")

        cut = max(1, region_start)
        start, targets = max(0, cut - window), ctdg.window(cut, min(cut + horizon, total))
        if len(targets) == 0:
            continue
        params = init_encoder(num_layers=2, node_dim=6, time_dim=4, heads=2,
                              dropout=0.0, seed=trial, dtype=np.float64)
        nodes = np.concatenate([ctdg.window(start, cut).endpoints(), targets.endpoints()])
        baseline = encode(WindowFeatureCache(ctdg.window(start, cut)), params, 4, (trial,), nodes)
        # the log itself changes from the cut on: shuffled endpoints, and times
        # stretched past every earlier one, so they stay non-decreasing
        post = [triples[cut + i][:2] for i in
                np.random.default_rng(trial).permutation(total - cut).tolist()]
        corrupted_log = ctdg_from(triples[:cut] + [(u, v, t * 3.0 + 1e5) for (u, v), (_, _, t)
                                                   in zip(post, triples[cut:])],
                                  num_nodes=n_nodes)
        after = encode(WindowFeatureCache(corrupted_log.window(start, cut)), params, 4,
                       (trial,), nodes)
        if baseline.matrix.values.tobytes() != after.matrix.values.tobytes():
            failures.append(f"trial {trial}: encoder read target content")
    report(4, not failures,
           f"stride-equals-horizon coverage and causality on 20 random "
           f"configurations: {len(failures)} failures" +
           (f" ({failures[0]})" if failures else ""))


def test_criterion_5_vicreg_unit_values():
    collapsed = T.constant(np.tile([0.4, -1.3, 2.2], (5, 1)), dtype=np.float64)
    v = vicreg_variance(collapsed).item()
    c = vicreg_covariance(T.constant([[1.0, 1.0], [-1.0, -1.0]], dtype=np.float64)).item()
    s = vicreg_invariance(T.constant([[3.0, 4.0]], dtype=np.float64),
                          T.constant([[0.0, 0.0]], dtype=np.float64)).item()
    ok = abs(v - 0.99) < 1e-9 and abs(c - 1.0) < 1e-9 and abs(s - 25.0) < 1e-9
    report(5, ok, f"hand-derived term values: v={v!r}, c={c!r}, s={s!r}")


def test_criterion_6_synthetic_supervised_learning(synthetic_world):
    started = time.perf_counter()
    ctdg, split = synthetic_world
    encoder = init_encoder(num_layers=2, node_dim=100, time_dim=32, heads=2,
                           dropout=0.1, seed=2)
    config = TrainConfig(window=300, target_size=200, epochs=20, lr=1e-3,
                         max_neighbors=20, seed=2)
    result = train_downstream(ctdg, split, "flp", encoder, config=config)
    _, val_end = split.boundaries
    test_report = evaluate_flp(ctdg, (val_end, len(ctdg)), encoder, result.decoder,
                               config.window, 200, config.max_neighbors, seed=2)
    elapsed = time.perf_counter() - started
    initial_ap = result.history[0]["val_ap"]
    improvement = (result.best_val_ap or 0.0) - (initial_ap or 0.0)
    report(6, test_report["ap"] >= 0.75 and improvement >= 0.1 and elapsed < 900,
           f"supervised FLP on the planted-rule graph: test AP {test_report['ap']:.3f} "
           f"(chance 0.5, target 0.75), val AP gain {improvement:+.3f}, {elapsed:.0f}s")


@pytest.fixture(scope="module")
def probe_study(synthetic_world):
    """Frozen-encoder probes for SSL-init vs random-init over three seeds, at
    label fractions 1.0 and 0.1 (``probe_recipe.probe_seed``)."""
    ctdg, split = synthetic_world
    started = time.perf_counter()
    rows = {seed: probe_seed(ctdg, split, seed) for seed in (0, 1, 2)}
    return rows, time.perf_counter() - started


def test_criterion_7_ssl_beats_random_probe(probe_study):
    rows, elapsed = probe_study
    ssl_median = float(np.median([rows[s]["ssl", 1.0] for s in rows]))
    rand_median = float(np.median([rows[s]["random", 1.0] for s in rows]))
    margin = ssl_median - rand_median
    report(7, margin >= 0.0 and elapsed < 2700,
           f"frozen-probe AP medians over 3 seeds: SSL-init {ssl_median:.4f} vs "
           f"random-init {rand_median:.4f} (margin {margin:+.4f}), study {elapsed:.0f}s")


def test_criterion_8_ssl_degrades_less_with_few_labels(probe_study):
    rows, _ = probe_study
    dods = [difference_of_differences(rows[s], 0.1) for s in rows]
    median_dod = float(np.median(dods))
    detail = ", ".join(f"seed {s}: {d:+.4f}" for s, d in zip(rows, dods))
    report(8, median_dod >= 0.0,
           f"label-fraction 0.1 vs 1.0 difference-of-differences per seed ({detail}); "
           f"3-seed median {median_dod:+.4f}")


def test_criterion_10_pipeline_determinism(tmp_path):
    csv_path = tmp_path / "toy.csv"
    write_synthetic_csv(csv_path, make_synthetic_ctdg(num_nodes=40, num_edges=400,
                                                      history=60, seed=11))
    reports = []
    for attempt in range(2):
        out = tmp_path / f"run{attempt}"
        args = ["--dataset", str(csv_path), "--output-dir", str(out), "--seed", "3",
                "--window-size", "120", "--set", "target_size=40",
                "--set", "node_dim=16", "--set", "time_dim=8",
                "--set", "num_layers=2", "--set", "num_neighbors=8"]
        assert cli_main(["train", *args, "--epochs", "2"]) == 0
        model = sorted(out.glob("train-*"))[0] / "model.dygw"
        assert cli_main(["eval", *args, "--checkpoint", str(model),
                         "--eval-horizon", "1,40"]) == 0
        reports.append((sorted(out.glob("eval-*"))[0] / "report.csv").read_bytes())
    report(10, reports[0] == reports[1],
           "two identically-seeded pipeline runs emit identical metric reports")


@pytest.mark.skip(reason="criterion 9 is the optional real-dataset reproduction; "
                         "run scripts/reproduce_uci.py (multi-hour CPU job)")
def test_criterion_9_uci_reproduction():
    pass
