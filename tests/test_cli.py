"""End-to-end command line workflow on a small synthetic cohort."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from hgrc.cli import main
from hgrc.config import AppConfig, dump_defaults, parse_app_config
from hgrc.data import load_cohort
from hgrc.errors import ConfigError
from hgrc.model import ModelConfig
from hgrc.train import TrainConfig


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out), err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synthetic then train, shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("ws")
    data_dir = root / "cohort"
    gen, _ = run_json(["gen-synthetic", "--out-dir", str(data_dir),
                       "--seed", "3", "--n-patients", "40", "--n-codes", "5"])
    ckpt_path = root / "model.hgrc"
    trained, train_err = run_json(["train", "--data-dir", str(data_dir),
                                   "--seed", "1", "--epochs", "2",
                                   "--out", str(ckpt_path)])
    return {"root": root, "data_dir": data_dir, "ckpt": ckpt_path,
            "gen": gen, "trained": trained, "train_err": train_err}


def eval_args(ws, *extra):
    return ["evaluate", "--checkpoint", str(ws["ckpt"]),
            "--data-dir", str(ws["data_dir"]), *extra]


def test_gen_synthetic_writes_loadable_files(workspace):
    gen = workspace["gen"]
    assert gen["n_patients"] == 40
    assert gen["seed"] == 3
    assert 0 < gen["n_positive"] < 40
    for name in ("patients.csv", "vitals.csv", "meta.json"):
        assert (workspace["data_dir"] / name).is_file()
    cohort = load_cohort(workspace["data_dir"] / "patients.csv",
                         workspace["data_dir"] / "vitals.csv", window_hours=48)
    assert len(cohort) == 40
    assert len(cohort.code_vocab) == 5


@pytest.mark.parametrize("document, flags, key", [
    ({"synthetic": {"n_variables": 3}}, [], "synthetic.n_variables"),
], ids=["n_variables"])
def test_gen_synthetic_refuses_cohorts_train_cannot_read(tmp_path, document, flags, key):
    # train reads the default schema's variables
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(document))
    out_dir = tmp_path / "cohort"
    code, out, err = run_cli(["gen-synthetic", "--config", str(cfg), "--out-dir", str(out_dir),
                              "--n-patients", "20", *flags])
    assert code == 2
    assert out == ""
    assert f"config error: {key} must be" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("gen_flags, train_flags", [
    ([], ["--window", "24"]),
    (["--window-hours", "72"], []),
], ids=["24_of_48_hours", "48_of_72_hours"])
def test_train_reads_the_start_of_a_longer_cohort(tmp_path, gen_flags, train_flags):
    # hours at or past train's window are dropped when the cohort loads
    data_dir = tmp_path / "cohort"
    run_json(["gen-synthetic", "--out-dir", str(data_dir), "--seed", "3",
              "--n-patients", "40", *gen_flags])
    trained, _ = run_json(["train", "--data-dir", str(data_dir), "--seed", "1", "--epochs", "1",
                           "--out", str(tmp_path / "model.hgrc"), *train_flags])
    assert trained["epochs_run"] == 1


def test_train_reports_run_and_writes_artifacts(workspace):
    trained = workspace["trained"]
    assert trained["epochs_run"] == 2
    assert trained["best_epoch"] in (1, 2)
    assert "auroc" in trained["best_val"]
    assert workspace["ckpt"].is_file()
    log_path = workspace["root"] / "model.hgrc.log.json"
    assert trained["training_log"] == str(log_path)
    log = json.loads(log_path.read_text())
    assert len(log["log"]) == 2
    assert "epoch" in workspace["train_err"]  # progress goes to stderr


def test_evaluate_emits_metrics_json(workspace):
    report, _ = run_json(eval_args(workspace))
    assert report["split"] == "test"
    assert report["n_patients"] == 6  # 40 patients at 0.7/0.15/0.15
    assert 0.0 <= report["auroc"] <= 1.0
    assert report["decision_threshold"] == 0.5


def test_evaluate_split_and_threshold_flags(workspace):
    train_rep, _ = run_json(eval_args(workspace, "--split", "train"))
    val_rep, _ = run_json(eval_args(workspace, "--split", "val"))
    assert train_rep["n_patients"] == 28
    assert val_rep["n_patients"] == 6
    low, _ = run_json(eval_args(workspace, "--threshold", "0.01"))
    assert low["decision_threshold"] == 0.01
    default, _ = run_json(eval_args(workspace))
    assert low["auroc"] == default["auroc"]  # ranking metrics ignore the threshold
    for threshold in ("1.5", "0", "1"):
        code, out, err = run_cli(eval_args(workspace, "--threshold", threshold))
        assert code == 2
        assert out == ""
        assert "decision_threshold must be in (0, 1)" in err


def test_evaluate_and_case_study_default_to_the_trained_threshold(workspace, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "train": {"epochs": 1, "seed": 1, "decision_threshold": 0.3},
        "paths": {"data_dir": str(workspace["data_dir"]),
                  "checkpoint": str(tmp_path / "t.hgrc")},
    }))
    run_json(["train", "--config", str(cfg_path)])
    report, _ = run_json(["evaluate", "--config", str(cfg_path)])
    assert report["decision_threshold"] == 0.3
    tr = train_split(workspace)  # the same split: seed 1
    labels = tr.y
    mixed = next(code for j, code in enumerate(tr.code_vocab)
                 if len(set(labels[tr.icd[:, j] == 1.0])) == 2)
    result, _ = run_json(["case-study", "--config", str(cfg_path),
                          "--split", "train", "--code", mixed])
    assert result["group_i"]["metrics"]["decision_threshold"] == 0.3
    assert result["group_ii"]["metrics"]["decision_threshold"] == 0.3


def test_evaluate_prepares_only_the_requested_split(workspace, monkeypatch):
    from hgrc import data
    calls = []
    for name in ("impute_mean", "standardize"):
        def counted(cohort, stats=None, _name=name, _real=getattr(data, name)):
            calls.append((_name, len(cohort), stats))
            return _real(cohort, stats)
        monkeypatch.setattr(data, name, counted)
    report, _ = run_json(eval_args(workspace, "--split", "val"))
    assert report["n_patients"] == 6
    # the checkpoint's stats are applied to the val split alone
    assert [(name, n) for name, n, _ in calls] == [("impute_mean", 6), ("standardize", 6)]
    assert all(stats is not None for _, _, stats in calls)


@pytest.mark.parametrize("argv", [
    ["evaluate"],
    ["case-study", "--code", "4019"],
    ["embed", "--stage", "gru", "--out", "e.csv"],
], ids=["evaluate", "case_study", "embed"])
def test_scoring_commands_take_no_eval_batch_size(tmp_path, argv):
    # each command scores the whole split in one forward, so the flag is gone
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--checkpoint", str(tmp_path / "m.hgrc"),
                 "--data-dir", str(tmp_path), "--eval-batch-size", "3"])
    assert exc.value.code == 2


def train_split(workspace):
    from hgrc.data import split
    from hgrc.train import derive_rng_streams
    cohort = load_cohort(workspace["data_dir"] / "patients.csv",
                         workspace["data_dir"] / "vitals.csv", window_hours=48)
    split_rng = derive_rng_streams(1)[0]  # the train command ran with seed 1
    return split(cohort, (0.7, 0.15, 0.15), split_rng)[0]


def test_case_study_splits_by_code(workspace):
    tr = train_split(workspace)
    codes = tr.icd
    labels = tr.y
    mixed = next(code for j, code in enumerate(tr.code_vocab)
                 if len(set(labels[codes[:, j] == 1.0])) == 2)
    result, _ = run_json(["case-study", "--checkpoint", str(workspace["ckpt"]),
                          "--data-dir", str(workspace["data_dir"]),
                          "--split", "train", "--code", mixed])
    assert result["code"] == mixed
    gi, gii = result["group_i"], result["group_ii"]
    assert gi["n_patients"] + gii["n_patients"] == 28
    j = tr.code_vocab.index(mixed)
    assert gi["n_patients"] == int(codes[:, j].sum())
    assert gi["n_positive"] == int(labels[codes[:, j] == 1.0].sum())
    assert gi["neg_pos_ratio"].endswith(":1")
    assert "auroc" in gi["metrics"]


def test_case_study_reports_each_group_from_the_splits_scores(workspace):
    # each group's metrics come from the scores the whole split gets; scored
    # as a batch of its own, a group's graphs span only its members and its
    # patients' scores move
    from hgrc.checkpoint import load_checkpoint
    from hgrc.data import impute_mean, standardize
    from hgrc.metrics import compute_report
    from hgrc.train import predict_scores
    ckpt = load_checkpoint(workspace["ckpt"])
    tr = standardize(impute_mean(train_split(workspace), ckpt.norm_stats), ckpt.norm_stats)
    scores = predict_scores(ckpt, tr)
    codes = tr.icd
    labels = tr.y
    j, mixed = next((j, code) for j, code in enumerate(tr.code_vocab)
                    if len(set(labels[codes[:, j] == 1.0])) == 2)
    result, _ = run_json(["case-study", "--checkpoint", str(workspace["ckpt"]),
                          "--data-dir", str(workspace["data_dir"]),
                          "--split", "train", "--code", mixed])
    carriers = codes[:, j] == 1.0
    for group, members in (("group_i", carriers), ("group_ii", ~carriers)):
        expected = compute_report(scores[members], labels[members],
                                  ckpt.config.decision_threshold)
        assert result[group]["metrics"] == json.loads(json.dumps(expected.to_dict())), group


def test_case_study_single_class_group_fails_cleanly(workspace):
    tr = train_split(workspace)
    codes = tr.icd
    labels = tr.y
    lonely = next((code for j, code in enumerate(tr.code_vocab)
                   if len(set(labels[codes[:, j] == 1.0])) == 1), None)
    if lonely is None:
        pytest.skip("every code group mixes classes in this draw")
    code, out, err = run_cli(["case-study", "--checkpoint", str(workspace["ckpt"]),
                              "--data-dir", str(workspace["data_dir"]),
                              "--split", "train", "--code", lonely])
    assert code == 1
    assert "both classes" in err


def test_case_study_unknown_code_suggests(workspace):
    code, out, err = run_cli(["case-study", "--checkpoint", str(workspace["ckpt"]),
                              "--data-dir", str(workspace["data_dir"]),
                              "--code", "999.99"])
    assert code == 2
    assert out == ""
    assert "999.99" in err


def test_case_study_code_absent_from_the_split_lists_common_codes(tmp_path):
    # a wide vocabulary over few patients leaves codes no test patient carries
    data_dir, ckpt_path = tmp_path / "cohort", tmp_path / "model.hgrc"
    run_json(["gen-synthetic", "--out-dir", str(data_dir), "--seed", "3",
              "--n-patients", "30", "--n-codes", "150"])
    run_json(["train", "--data-dir", str(data_dir), "--seed", "1", "--epochs", "1",
              "--out", str(ckpt_path)])
    from hgrc.data import split
    from hgrc.train import derive_rng_streams
    cohort = load_cohort(data_dir / "patients.csv", data_dir / "vitals.csv", window_hours=48)
    test = split(cohort, (0.7, 0.15, 0.15), derive_rng_streams(1)[0])[2]
    counts = test.icd.sum(axis=0)
    absent = test.code_vocab[int(np.flatnonzero(counts == 0)[0])]
    top = sorted(zip(test.code_vocab, counts), key=lambda item: -item[1])[:5]
    code, out, err = run_cli(["case-study", "--checkpoint", str(ckpt_path),
                              "--data-dir", str(data_dir), "--code", absent])
    assert code == 2
    assert out == ""
    assert f"carries code {absent!r}" in err
    assert ", ".join(f"{c} ({int(k)})" for c, k in top) in err


def test_embed_exports_csv(workspace, tmp_path):
    out_path = tmp_path / "agg.csv"
    result, _ = run_json(["embed", "--checkpoint", str(workspace["ckpt"]),
                          "--data-dir", str(workspace["data_dir"]),
                          "--stage", "aggregated", "--out", str(out_path)])
    assert result["stage"] == "aggregated"
    assert result["n_patients"] == 6
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("patient_id,label,e0,")
    assert lines[0].endswith(",e36")  # default aggregation width 37


def test_embed_requires_out_path(workspace):
    code, out, err = run_cli(["embed", "--checkpoint", str(workspace["ckpt"]),
                              "--data-dir", str(workspace["data_dir"]),
                              "--stage", "gru"])
    assert code == 2
    assert "out" in err


def test_config_dump_defaults():
    dumped, _ = run_json(["config", "--dump-defaults"])
    assert set(dumped) == {"train", "synthetic", "paths"}
    assert dumped["train"]["epochs"] == 50
    assert dumped["train"]["model"]["hidden_size"] == 59
    assert dumped["train"]["model"]["ffn_hidden"] == [27, 17]
    assert set(dumped["train"]) == {"window_hours", "batch_size", "learning_rate", "epochs",
                                    "patience", "seed", "split_ratios",
                                    "decision_threshold", "model"}
    # n_variables, n_codes come from the data
    assert set(dumped["train"]["model"]) == {"hidden_size", "hconv_layers", "phi_width",
                                             "ffn_hidden", "dropout"}
    assert dumped["synthetic"]["n_patients"] == 2000
    code, _, _ = run_cli(["config"])
    assert code == 2


def test_config_file_supplies_defaults(workspace, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "train": {"epochs": 1, "seed": 9},
        "paths": {"data_dir": str(workspace["data_dir"]),
                  "checkpoint": str(tmp_path / "cfg.hgrc")},
    }))
    trained, _ = run_json(["train", "--config", str(cfg_path)])
    assert trained["epochs_run"] == 1
    assert (tmp_path / "cfg.hgrc").is_file()
    report, _ = run_json(["evaluate", "--config", str(cfg_path)])
    assert report["n_patients"] == 6


def test_config_dump_parses_back_to_defaults():
    assert parse_app_config(json.loads(dump_defaults())) == AppConfig.defaults()


def test_config_architecture_is_nested_and_validated_at_parse_time():
    parsed = parse_app_config({"train": {"epochs": 3, "model": {"hidden_size": 30,
                                                                 "ffn_hidden": [8, 4]}}})
    assert parsed.train.epochs == 3
    assert parsed.train.model.hidden_size == 30
    assert parsed.train.model.ffn_hidden == (8, 4)
    # a dataclass's own check is named by its section's path, once
    with pytest.raises(ConfigError, match=r"^train\.model\.hidden_size must be >= 1, got 0$"):
        parse_app_config({"train": {"model": {"hidden_size": 0}}})
    with pytest.raises(ConfigError, match=r"^train\.window_hours must be one of"):
        parse_app_config({"train": {"window_hours": 0}})
    with pytest.raises(ConfigError, match=r"^synthetic\.window_hours must be >= 1"):
        parse_app_config({"synthetic": {"window_hours": 0}})
    with pytest.raises(ConfigError, match="ffn_hidden"):
        parse_app_config({"train": {"model": {"ffn_hidden": 5}}})
    with pytest.raises(ConfigError, match="train.model.n_variables"):
        parse_app_config({"train": {"model": {"n_variables": 4}}})
    with pytest.raises(ConfigError, match="train.model"):
        parse_app_config({"train": {"model": 59}})
    with pytest.raises(ConfigError, match=r"unknown key train\.model\.'activation'"):
        parse_app_config({"train": {"model": {"activation": "tanh"}}})
    with pytest.raises(ConfigError, match=r"unknown key train\.model\.'n_members'"):
        parse_app_config({"train": {"model": {"n_members": 1}}})
    for knob, value in (("use_similarity", True), ("temperature", 50.0), ("zeta_init", 0.4)):
        with pytest.raises(ConfigError, match=rf"unknown key train\.model\.'{knob}'"):
            parse_app_config({"train": {"model": {knob: value}}})


def test_config_file_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert run_cli(["gen-synthetic", "--out-dir", str(tmp_path),
                    "--config", str(missing)])[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"mystery": 1}}))
    assert run_cli(["gen-synthetic", "--out-dir", str(tmp_path),
                    "--config", str(bad)])[0] == 2


@pytest.mark.parametrize("document", [
    {"train": {"model": {"mystery": 1}}},
    {"train": {"hidden_size": 30}},
    {"train": {"model": {"n_codes": 5}}},
    {"train": {"model": {"hidden_size": 0}}},
    {"train": {"model": {"activation": "relu"}}},
    {"train": {"model": {"n_members": 4}}},
    {"train": {"model": {"use_similarity": False}}},
    {"train": {"model": {"temperature": 50.0}}},
    {"train": {"model": {"zeta_init": 0.4}}},
], ids=["unknown_model_key", "flat_architecture_key", "data_width", "invalid_model_value",
        "removed_activation_key", "removed_n_members_key", "removed_use_similarity_key",
        "removed_temperature_key", "removed_zeta_init_key"])
def test_config_architecture_errors_exit_2(tmp_path, document):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    code, out, err = run_cli(["train", "--config", str(bad)])
    assert code == 2
    assert out == ""
    assert "config error" in err


def test_config_lists_build_tuples():
    # JSON carries tuples as arrays; the built config must equal, and hash
    # like, one written with tuples
    parsed = parse_app_config({"train": {"split_ratios": [0.6, 0.2, 0.2],
                                         "model": {"ffn_hidden": [4, 3]}}})
    written = TrainConfig(split_ratios=(0.6, 0.2, 0.2), model=ModelConfig(ffn_hidden=(4, 3)))
    assert parsed.train == written
    assert hash(parsed.train) == hash(written)


def test_config_values_must_have_their_field_types():
    parsed = parse_app_config({"train": {"learning_rate": 1, "split_ratios": [0.6, 0.2, 0.2]},
                               "paths": {"data_dir": None}})
    assert parsed.train.learning_rate == 1
    assert parsed.train.split_ratios == (0.6, 0.2, 0.2)
    for document, key in [
        ({"train": {"epochs": True}}, "train.epochs"),
        ({"train": {"learning_rate": False}}, "train.learning_rate"),
        ({"train": {"split_ratios": [0.7, 0.3]}}, "train.split_ratios"),
        ({"train": {"split_ratios": [0.7, "0.15", 0.15]}}, "train.split_ratios"),
        ({"train": {"model": {"ffn_hidden": [8, 4.0]}}}, "train.model.ffn_hidden"),
        ({"synthetic": {"missing_rate": "0.1"}}, "synthetic.missing_rate"),
        ({"paths": {"data_dir": 5}}, "paths.data_dir"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_app_config(document)


@pytest.mark.parametrize("command, document, key", [
    ("train", {"train": {"epochs": "3"}}, "train.epochs"),
    ("gen-synthetic", {"synthetic": {"n_patients": "5"}}, "synthetic.n_patients"),
    ("train", {"train": {"model": {"hidden_size": 2.5}}}, "train.model.hidden_size"),
    ("train", {"train": {"model": {"dropout": "0.2"}}}, "train.model.dropout"),
], ids=["string_epochs", "string_n_patients", "float_hidden_size", "string_dropout"])
def test_config_type_errors_exit_2(workspace, tmp_path, command, document, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    paths = (["--data-dir", str(workspace["data_dir"]), "--out", str(tmp_path / "m.hgrc")]
             if command == "train" else ["--out-dir", str(tmp_path / "cohort")])
    code, out, err = run_cli([command, "--config", str(bad), *paths])
    assert code == 2
    assert out == ""
    assert f"config error: {key} must be" in err


@pytest.mark.parametrize("command, document, flags, field", [
    ("train", {"train": {"learning_rate": float("nan")}}, [], "train.learning_rate"),
    ("train", {"train": {"model": {"dropout": float("inf")}}}, [], "train.model.dropout"),
    ("train", {"train": {"split_ratios": [0.7, 0.15, float("nan")]}}, [], "train.split_ratios"),
    ("gen-synthetic", {"synthetic": {"class_separation": float("inf")}}, [],
     "synthetic.class_separation"),
    ("gen-synthetic", {}, ["--class-separation", "nan"], "class_separation"),
], ids=["nan_learning_rate", "infinite_dropout", "nan_split_ratio",
        "infinite_class_separation", "nan_class_separation_flag"])
def test_config_non_finite_floats_exit_2(workspace, tmp_path, command, document, flags, field):
    # Python's json reads NaN and Infinity and argparse's float() reads nan;
    # every comparison with NaN is False, so range checks alone let it through
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(document))
    out_path = tmp_path / ("m.hgrc" if command == "train" else "cohort")
    paths = (["--data-dir", str(workspace["data_dir"]), "--out", str(out_path)]
             if command == "train" else ["--out-dir", str(out_path)])
    code, out, err = run_cli([command, "--config", str(cfg), *paths, *flags])
    assert code == 2
    assert out == ""
    assert f"config error: {field} must be finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("ratios, problem", [
    ([0.5, 0.5, 0.5], "must sum to 1"),
    ([0.0, 0.5, 0.5], "must be positive"),
    ([-0.2, 0.6, 0.6], "must be positive"),
], ids=["sum_over_one", "zero_share", "negative_share"])
def test_config_split_ratios_exit_2_before_any_cohort_loads(workspace, tmp_path, monkeypatch,
                                                            ratios, problem):
    from hgrc import data

    def no_load(*args, **kwargs):
        raise AssertionError("the cohort was loaded")
    monkeypatch.setattr(data, "load_cohort", no_load)
    document = {"train": {"split_ratios": ratios}}
    with pytest.raises(ConfigError, match=rf"^train\.split_ratios {problem}"):
        parse_app_config(document)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(document))
    code, out, err = run_cli(["train", "--config", str(cfg), "--data-dir",
                              str(workspace["data_dir"]), "--out", str(tmp_path / "m.hgrc")])
    assert code == 2
    assert out == ""
    assert f"config error: train.split_ratios {problem}" in err


def test_negative_seed_exit_2(workspace, tmp_path):
    for argv in (["gen-synthetic", "--out-dir", str(tmp_path / "cohort"), "--seed", "-1"],
                 ["train", "--data-dir", str(workspace["data_dir"]), "--seed", "-1",
                  "--out", str(tmp_path / "m.hgrc")]):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "config error: seed must be >= 0" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"seed": -3}}))
    code, _, err = run_cli(["gen-synthetic", "--out-dir", str(tmp_path / "cohort"),
                            "--config", str(bad)])
    assert code == 2
    assert "seed must be >= 0" in err
    assert not (tmp_path / "cohort").exists()
    assert not (tmp_path / "m.hgrc").exists()


def test_missing_inputs_exit_2(workspace, tmp_path):
    assert run_cli(["evaluate", "--data-dir", str(workspace["data_dir"])])[0] == 2
    assert run_cli(eval_args({"ckpt": tmp_path / "absent.hgrc",
                              "data_dir": workspace["data_dir"]}))[0] == 2
    assert run_cli(eval_args({"ckpt": workspace["ckpt"],
                              "data_dir": tmp_path / "absent"}))[0] == 2
    assert run_cli(["train", "--data-dir", str(tmp_path)])[0] == 2  # no csv files


def test_corrupt_inputs_exit_1(workspace, tmp_path):
    garbage = tmp_path / "junk.hgrc"
    garbage.write_bytes(b"HGRCnot really a checkpoint")
    assert run_cli(eval_args({"ckpt": garbage,
                              "data_dir": workspace["data_dir"]}))[0] == 1
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "patients.csv").write_text("patient_id,label\n")
    (bad_dir / "vitals.csv").write_text("wrong,header\n")
    assert run_cli(["train", "--data-dir", str(bad_dir)])[0] == 1


def test_non_utf8_input_exits_1_naming_file_and_line(workspace, tmp_path):
    for name in ("patients.csv", "vitals.csv"):
        (tmp_path / name).write_bytes((workspace["data_dir"] / name).read_bytes())
    vitals = tmp_path / "vitals.csv"
    lines = vitals.read_bytes().split(b"\n")
    lines[4] = lines[4] + b"\xff"
    vitals.write_bytes(b"\n".join(lines))
    code, out, err = run_cli(["train", "--data-dir", str(tmp_path), "--epochs", "1",
                              "--out", str(tmp_path / "m.hgrc")])
    assert code == 1 and out == ""
    assert f"{vitals}:5: not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda m: m["norm_stats"].pop("std"),
    lambda m: m.update(norm_stats="not an object"),
    lambda m: m["norm_stats"].update(mean=m["norm_stats"]["mean"][:-1]),
    lambda m: m["norm_stats"]["mean"].__setitem__(0, float("nan")),
    lambda m: m["norm_stats"]["std"].__setitem__(0, float("inf")),
    lambda m: m["norm_stats"]["std"].__setitem__(0, -1.0),
], ids=["missing_std", "stats_not_an_object", "short_mean", "nan_mean", "infinite_std",
        "negative_std"])
def test_malformed_checkpoint_norm_stats_exit_1(workspace, tmp_path, edit):
    from test_checkpoint import edit_manifest

    def apply(m):
        edit(m)
        return m
    bad = tmp_path / "bad.hgrc"
    bad.write_bytes(bytes(edit_manifest(bytearray(workspace["ckpt"].read_bytes()), apply)))
    code, out, err = run_cli(eval_args({"ckpt": bad, "data_dir": workspace["data_dir"]}))
    assert code == 1
    assert out == ""
    assert "malformed manifest" in err or "missing field" in err


def test_usage_errors_raise_system_exit():
    for argv in (["train", "--window", "12"],
                 ["embed", "--stage", "nonsense"],
                 ["embed", "--stage", "gru", "--threshold", "7"],  # embed takes no threshold
                 ["no-such-command"],
                 []):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_stdout_carries_only_json(workspace):
    code, out, err = run_cli(eval_args(workspace))
    assert code == 0
    json.loads(out)  # a single document, nothing else
    assert out.lstrip().startswith("{")
