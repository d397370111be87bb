"""Training loop: batching, determinism, early stopping, evaluation helpers."""

import json
import math

import numpy as np
import pytest

from hgrc.data import impute_mean, split, standardize
from hgrc.errors import ConfigError, TrainingError, UndefinedMetricError
from hgrc.model import ModelConfig
from hgrc.numeric import Rng
from hgrc.synthetic import SyntheticSpec, gen_synthetic
from hgrc.train import (TrainConfig, _batch_slices, derive_rng_streams,
                        evaluate, export_embeddings, predict_scores, train)

SMALL_SPEC = SyntheticSpec(n_patients=40, n_variables=3, window_hours=24,
                           n_codes=5, missing_rate=0.2)

SMALL_CONFIG = dict(window_hours=24, batch_size=8, learning_rate=0.01,
                    epochs=3, patience=5, seed=0,
                    model=ModelConfig(hidden_size=4, hconv_layers=1, phi_width=3,
                                      ffn_hidden=(4, 3), n_members=2, dropout=0.2))


def prepared_splits(spec=SMALL_SPEC, gen_seed=3, split_seed=1):
    cohort = gen_synthetic(spec, Rng(gen_seed))
    tr, va, te = split(cohort, (0.6, 0.2, 0.2), Rng(split_seed))
    tr = standardize(impute_mean(tr))
    stats = tr.norm_stats
    va = standardize(impute_mean(va, stats), stats)
    te = standardize(impute_mean(te, stats), stats)
    return tr, va, te


@pytest.fixture(scope="module")
def splits():
    return prepared_splits()


@pytest.fixture(scope="module")
def trained(splits):
    tr, va, _ = splits
    return train(TrainConfig(**SMALL_CONFIG), tr, va)


# ------------------------------------------------------------ plumbing


def test_batch_slices_merge_trailing_singleton():
    assert _batch_slices(5, 2) == [slice(0, 2), slice(2, 5)]
    assert _batch_slices(4, 2) == [slice(0, 2), slice(2, 4)]
    assert _batch_slices(7, 3) == [slice(0, 3), slice(3, 7)]
    assert _batch_slices(2, 5) == [slice(0, 2)]
    assert _batch_slices(3, 3) == [slice(0, 3)]


def test_batch_slices_cover_everything():
    for n in range(2, 40):
        for bs in range(2, 12):
            covered = np.concatenate([np.arange(s.start, s.stop)
                                      for s in _batch_slices(n, bs)])
            assert np.array_equal(covered, np.arange(n))
            assert all(s.stop - s.start >= 2 for s in _batch_slices(n, bs))


def test_rng_streams_rederivable():
    a = derive_rng_streams(11)
    b = derive_rng_streams(11)
    assert len(a) == 3
    for left, right in zip(a, b):
        assert np.array_equal(left.normal(size=4), right.normal(size=4))
    other = derive_rng_streams(12)
    assert not np.array_equal(derive_rng_streams(11)[0].normal(size=4),
                              other[0].normal(size=4))


# ------------------------------------------------------------ training


def test_train_returns_populated_checkpoint(trained, splits):
    tr, _, _ = splits
    assert trained.schema == tr.schema
    assert trained.code_vocab == tr.code_vocab
    assert trained.norm_stats is tr.norm_stats
    assert len(trained.training_log) == 3
    assert 1 <= trained.best_epoch <= 3
    for arr in trained.params.named_arrays().values():
        assert np.all(np.isfinite(arr))


def test_training_log_structure(trained):
    for i, entry in enumerate(trained.training_log):
        assert entry["epoch"] == i + 1
        assert math.isfinite(entry["train_loss"])
        assert entry["n_batches"] == 3  # 24 train patients / batch 8
        assert set(entry["val"]) >= {"auroc", "auprc", "accuracy"}


def test_training_is_bit_reproducible(splits):
    tr, va, _ = splits
    cfg = TrainConfig(**SMALL_CONFIG)
    first = train(cfg, tr, va)
    second = train(cfg, tr, va)
    assert json.dumps(first.training_log) == json.dumps(second.training_log)
    left = first.params.named_arrays()
    right = second.params.named_arrays()
    for name in left:
        assert np.array_equal(left[name], right[name]), name


def test_progress_callback_sees_each_epoch(splits):
    tr, va, _ = splits
    seen = []
    ckpt = train(TrainConfig(**SMALL_CONFIG), tr, va, progress=seen.append)
    assert seen == ckpt.training_log


def test_checkpoint_params_match_best_epoch_metrics(trained, splits):
    _, va, _ = splits
    report = evaluate(trained, va, decision_threshold=0.5)
    best = trained.training_log[trained.best_epoch - 1]["val"]
    assert report.to_dict() == best
    assert best["auroc"] == max(e["val"]["auroc"] for e in trained.training_log)


def test_patience_stops_training_early(splits):
    tr, va, _ = splits
    cfg = TrainConfig(**{**SMALL_CONFIG,
                         "learning_rate": 1e-12, "epochs": 30, "patience": 2})
    ckpt = train(cfg, tr, va)
    # with a vanishing step nothing reorders the scores, so the validation
    # AUROC never improves after epoch 1 and patience trips at epoch 3
    assert len(ckpt.training_log) == 3
    assert ckpt.best_epoch == 1


def test_exploding_step_raises_training_error(splits):
    tr, va, _ = splits
    cfg = TrainConfig(**{**SMALL_CONFIG, "learning_rate": 1e200, "epochs": 5})
    with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"non-finite loss .* at epoch"):
        train(cfg, tr, va)


def test_train_rejects_unprepared_cohorts(splits):
    tr, va, _ = splits
    raw = gen_synthetic(SMALL_SPEC, Rng(3))
    cfg = TrainConfig(**SMALL_CONFIG)
    with pytest.raises(ConfigError, match="normalization stats"):
        train(cfg, raw, va)
    with pytest.raises(ConfigError, match="empty"):
        train(cfg, tr, type(va)((), va.schema, va.code_vocab, va.norm_stats))


def test_train_rejects_mismatched_vocabularies(splits):
    tr, va, _ = splits
    renamed = va.code_vocab[:-1] + ("zzz.9",)
    other = type(va)(va.patients, va.schema, renamed, va.norm_stats)
    with pytest.raises(ConfigError, match="disagree"):
        train(TrainConfig(**SMALL_CONFIG), tr, other)


def test_train_config_validation():
    with pytest.raises(ConfigError, match="window_hours"):
        TrainConfig(window_hours=12)
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError, match="patience"):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError, match="decision_threshold"):
        TrainConfig(decision_threshold=1.0)
    with pytest.raises(ConfigError, match="hidden_size"):
        TrainConfig(model={"hidden_size": 0})
    with pytest.raises(ConfigError, match="model"):
        TrainConfig(model=[59])


def test_train_config_coerces_lists_to_tuples():
    # JSON config files and checkpoint manifests carry these fields as lists
    # and the architecture as an object
    from_lists = TrainConfig(model={"ffn_hidden": [4, 3]}, split_ratios=[0.6, 0.2, 0.2])
    from_tuples = TrainConfig(model=ModelConfig(ffn_hidden=(4, 3)),
                              split_ratios=(0.6, 0.2, 0.2))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert from_lists.model_config(2, 3).ffn_hidden == (4, 3)


def test_checkpoint_config_records_the_trained_widths(trained, splits):
    tr, _, _ = splits
    assert trained.config.model == trained.model_config()
    assert trained.config.model.n_variables == len(tr.schema)
    assert trained.config.model.n_codes == len(tr.code_vocab)


# ------------------------------------------------------------ evaluation


def test_evaluate_reports_cohort_size(trained, splits):
    _, _, te = splits
    report = evaluate(trained, te)
    assert report.n_patients == len(te)
    assert report.n_positive == int(te.labels().sum())
    assert 0.0 <= report.auroc <= 1.0


def test_evaluate_rejects_schema_mismatch(trained, splits):
    _, _, te = splits
    other = type(te)(te.patients, ("alien",) * len(te.schema), te.code_vocab,
                     te.norm_stats)
    with pytest.raises(ConfigError, match="schema"):
        evaluate(trained, other)


def test_evaluate_rejects_empty_cohort(trained, splits):
    _, _, te = splits
    empty = type(te)((), te.schema, te.code_vocab, te.norm_stats)
    with pytest.raises(UndefinedMetricError):
        evaluate(trained, empty)


def test_predict_scores_are_probabilities(trained, splits):
    _, _, te = splits
    scores = predict_scores(trained, te)
    assert scores.shape == (len(te),)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert np.array_equal(scores, predict_scores(trained, te))


def test_eval_batching_changes_the_graph_not_the_contract(trained, splits):
    # each eval batch builds its own similarity graph, so scores may differ,
    # but they stay valid probabilities and the call stays deterministic
    _, _, te = splits
    batched = predict_scores(trained, te, eval_batch_size=3)
    assert batched.shape == (len(te),)
    assert np.all((batched >= 0.0) & (batched <= 1.0))
    assert np.array_equal(batched, predict_scores(trained, te, eval_batch_size=3))
    with pytest.raises(ConfigError, match="eval batch size"):
        predict_scores(trained, te, eval_batch_size=0)


def test_export_embeddings_csv(trained, splits, tmp_path):
    _, _, te = splits
    widths = {"gru": 4, "hconv": 9, "aggregated": 3}
    for stage, width in widths.items():
        path = tmp_path / f"{stage}.csv"
        export_embeddings(trained, te, stage, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "patient_id,label," + ",".join(f"e{k}" for k in range(width))
        assert len(lines) == len(te) + 1
        first = lines[1].split(",")
        assert first[0] == te.patients[0].patient_id
        assert first[1] in {"0", "1"}
        values = [float(v) for v in first[2:]]
        assert len(values) == width
        assert all(math.isfinite(v) for v in values)


def test_export_embeddings_validation(trained, splits, tmp_path):
    _, _, te = splits
    with pytest.raises(ConfigError, match="stage"):
        export_embeddings(trained, te, "logits", tmp_path / "x.csv")
    empty = type(te)((), te.schema, te.code_vocab, te.norm_stats)
    with pytest.raises(ConfigError, match="empty"):
        export_embeddings(trained, empty, "gru", tmp_path / "x.csv")
