"""Training loop: batching, determinism, early stopping, evaluation helpers."""

import functools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgrc import numeric
from hgrc.checkpoint import save_checkpoint
from hgrc.data import impute_mean, load_cohort, split, standardize
from hgrc.encoder import encode_batch
from hgrc.errors import ConfigError, TrainingError, UndefinedMetricError
from hgrc.model import ModelConfig, init_params
from hgrc.numeric import Rng
from hgrc.synthetic import SyntheticSpec, gen_synthetic, write_cohort_files
from hgrc.train import (Checkpoint, TrainConfig, _batch_slices, derive_rng_streams,
                        evaluate, export_embeddings, predict_scores, train)

SMALL_SPEC = SyntheticSpec(n_patients=40, n_variables=3, window_hours=24,
                           n_codes=5, missing_rate=0.2)

SMALL_CONFIG = dict(window_hours=24, batch_size=8, learning_rate=0.01,
                    epochs=3, patience=5, seed=0,
                    model=ModelConfig(hidden_size=4, hconv_layers=1, phi_width=3,
                                      ffn_hidden=(4, 3), dropout=0.2))


def prepared_splits(spec=SMALL_SPEC, gen_seed=3, split_seed=1):
    cohort = gen_synthetic(spec, Rng(gen_seed))
    tr, va, te = split(cohort, (0.6, 0.2, 0.2), Rng(split_seed))
    tr = standardize(impute_mean(tr))
    stats = tr.norm_stats
    va = standardize(impute_mean(va, stats), stats)
    te = standardize(impute_mean(te, stats), stats)
    return tr, va, te


def rows(cohort, keep):
    """The cohort's patients at ``keep``, a mask, index array or slice."""
    return replace(cohort, patient_ids=cohort.patient_ids[keep], series=cohort.series[keep],
                   icd=cohort.icd[keep], y=cohort.y[keep])


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
    report = evaluate(trained, va)
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
    # tanh bounds every activation, so a merely huge step (1e200) leaves the
    # loss finite, clamped at -ln 1e-12; a step of the float maximum makes
    # the weights' products overflow to inf, and the loss becomes nan
    lr = float(np.finfo(np.float64).max)
    cfg = TrainConfig(**{**SMALL_CONFIG, "learning_rate": lr, "epochs": 5})
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
        train(cfg, tr, rows(va, slice(0, 0)))


def test_train_rejects_one_class_validation_before_the_first_step(splits):
    tr, va, _ = splits
    negatives = rows(va, va.y == 0)
    seen = []
    # a late failure, from the first epoch's validation report, reads "auroc needs ..."
    with pytest.raises(UndefinedMetricError, match="validation cohort needs both classes"):
        train(TrainConfig(**SMALL_CONFIG), tr, negatives, progress=seen.append)
    assert seen == []


def test_train_rejects_mismatched_vocabularies(splits):
    tr, va, _ = splits
    renamed = va.code_vocab[:-1] + ("zzz.9",)
    other = replace(va, code_vocab=renamed)
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
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError, match="decision_threshold"):
        TrainConfig(decision_threshold=1.0)
    with pytest.raises(ConfigError, match="split_ratios must sum to 1"):
        TrainConfig(split_ratios=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigError, match="model"):
        TrainConfig(model=[59])


def test_checkpoint_config_records_the_trained_widths(trained, splits):
    tr, _, _ = splits
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
    other = replace(te, schema=("alien",) * len(te.schema))
    with pytest.raises(ConfigError, match="schema"):
        evaluate(trained, other)


def test_evaluate_rejects_empty_cohort(trained, splits):
    _, _, te = splits
    empty = rows(te, slice(0, 0))
    with pytest.raises(UndefinedMetricError):
        evaluate(trained, empty)


def test_predict_scores_are_probabilities(trained, splits):
    _, _, te = splits
    scores = predict_scores(trained, te)
    assert scores.shape == (len(te),)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert np.array_equal(scores, predict_scores(trained, te))


@functools.cache
def wide_checkpoint_and_cohort():
    """Nudged default-width parameters and 1100 standardized patients.

    Training would take too long here; the nudge moves the FFN output
    layers off their zero start, so the scores differ between patients.
    """
    cohort = standardize(impute_mean(gen_synthetic(SyntheticSpec(n_patients=1100), Rng(21))))
    model = ModelConfig(n_variables=cohort.series.shape[1], n_codes=cohort.icd.shape[1])
    params = init_params(model, Rng(22))
    nudge = Rng(23)
    for arr in params.named_arrays().values():
        if arr.ndim:
            arr += nudge.normal(scale=0.3, size=arr.shape)
    ckpt = Checkpoint(config=TrainConfig(model=model), schema=cohort.schema,
                      code_vocab=cohort.code_vocab, norm_stats=cohort.norm_stats, params=params)
    return ckpt, cohort


# row counts at and around the eval block edges (numeric.row_blocks)
EDGE_ROWS = (1, 255, 256, 257, 512, 1025)


@settings(max_examples=3, deadline=None)
@given(n=st.sampled_from(EDGE_ROWS), start=st.integers(0, 1100 - max(EDGE_ROWS)))
@example(n=1, start=0)
@example(n=255, start=0)
@example(n=256, start=0)
@example(n=257, start=0)
@example(n=512, start=0)
@example(n=1025, start=0)
def test_the_eval_worker_count_changes_no_bit(n, start):
    ckpt, cohort = wide_checkpoint_and_cohort()
    part = rows(cohort, slice(start, start + n))
    runs = []
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_workers", lambda n_blocks, w=workers: w)
            states, _ = encode_batch(part.series, ckpt.params.gru, keep_cache=False)
            runs.append((states, predict_scores(ckpt, part)))
    whole, _ = encode_batch(part.series, ckpt.params.gru, keep_cache=True)
    for states, scores in runs:
        assert np.array_equal(states, whole)
        assert np.array_equal(scores, runs[0][1])
    assert np.ptp(runs[0][1]) > 0.0 or n == 1


def test_the_training_worker_count_changes_no_checkpoint_bit(tmp_path, one_blas_thread):
    # batch 256 at the model's widths: a 256-row batch runs its GRU on two
    # threads, then a 44-row one on the calling thread
    tr, va, te = prepared_splits(SyntheticSpec(n_patients=500), gen_seed=5, split_seed=6)
    assert len(tr) == 300
    config = TrainConfig(epochs=2, patience=2, seed=7)
    runs = []
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numeric, "_workers", lambda n_blocks, w=workers: w)
            ckpt = train(config, tr, va)
            path = save_checkpoint(ckpt, tmp_path / f"{workers}.hgrc")
            runs.append((json.dumps(ckpt.training_log), Path(path).read_bytes(),
                         predict_scores(ckpt, te)))
    (log_1, bytes_1, scores_1), (log_2, bytes_2, scores_2) = runs
    assert log_1 == log_2 and bytes_1 == bytes_2
    assert np.array_equal(scores_1, scores_2)


def test_predict_scores_of_an_empty_cohort_is_empty(trained, splits):
    _, _, te = splits
    empty = rows(te, slice(0, 0))
    scores = predict_scores(trained, empty)
    assert scores.shape == (0,)
    assert scores.dtype == np.float64


def columns(cohort):
    return (cohort.patient_ids, cohort.series, cohort.icd, cohort.y)


def bits(array):
    # int64 views compare NaN cells and signed zeros too
    return array.view(np.int64) if array.dtype == np.float64 else array


def test_cohort_transforms_leave_inputs_alone_and_return_c_contiguous_arrays(
        trained, splits, tmp_path):
    def unchanged_by(transform, cohort):
        before = [column.copy() for column in columns(cohort)]
        result = transform()
        assert all(np.array_equal(bits(now), bits(then))
                   for now, then in zip(columns(cohort), before))
        return result

    generated = gen_synthetic(SMALL_SPEC, Rng(3))
    paths = write_cohort_files(generated, tmp_path, SMALL_SPEC, seed=3)
    raw = load_cohort(paths["patients"], paths["vitals"], window_hours=24,
                      schema=generated.schema)
    pieces = unchanged_by(lambda: split(raw, (0.6, 0.2, 0.2), Rng(1)), raw)
    imputed = unchanged_by(lambda: impute_mean(pieces[0]), pieces[0])
    tr = unchanged_by(lambda: standardize(imputed), imputed)
    stats = tr.norm_stats
    other = unchanged_by(lambda: impute_mean(pieces[1], stats), pieces[1])
    va = unchanged_by(lambda: standardize(other, stats), other)
    _, _, te = splits
    scores = unchanged_by(lambda: predict_scores(trained, te), te)
    arrays = [column for c in (raw, *pieces, imputed, tr, other, va) for column in columns(c)]
    assert all(a.flags.c_contiguous for a in arrays + [scores])


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
        assert first[0] == te.patient_ids[0]
        assert first[1] in {"0", "1"}
        values = [float(v) for v in first[2:]]
        assert len(values) == width
        assert all(math.isfinite(v) for v in values)


def test_export_embeddings_validation(trained, splits, tmp_path):
    _, _, te = splits
    with pytest.raises(ConfigError, match="stage"):
        export_embeddings(trained, te, "logits", tmp_path / "x.csv")
    empty = rows(te, slice(0, 0))
    with pytest.raises(ConfigError, match="empty"):
        export_embeddings(trained, empty, "gru", tmp_path / "x.csv")
