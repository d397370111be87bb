"""Binary checkpoint format: round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from hgrc.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from hgrc.data import NormStats
from hgrc.errors import CheckpointError, CheckpointVersionError
from hgrc.model import ModelConfig, init_params
from hgrc.numeric import Rng
from hgrc.train import Checkpoint, TrainConfig

HEADER = struct.Struct("<4sBQ")


def small_checkpoint():
    config = TrainConfig(model=ModelConfig(n_variables=2, n_codes=4, hidden_size=3,
                                           hconv_layers=2, phi_width=3, ffn_hidden=(4, 3)),
                      epochs=2)
    schema = ("heart_rate", "temperature")
    vocab = ("250.00", "428.0", "486", "599.0")
    params = init_params(config.model, Rng(5))
    for arr in params.named_arrays().values():
        if arr.ndim:
            arr += Rng(99).normal(size=arr.shape)
    stats = NormStats(schema, np.array([80.0, 37.0]), np.array([10.0, 0.0]),
                      warnings=("variable 'temperature' is constant",))
    log = [{"epoch": 1, "train_loss": 0.69, "n_batches": 2,
            "val": {"auroc": 0.5, "auprc": 0.5}}]
    return Checkpoint(config=config, schema=schema, code_vocab=vocab,
                      norm_stats=stats, params=params, training_log=log, best_epoch=1)


def test_round_trip_is_bit_exact(tmp_path):
    ckpt = small_checkpoint()
    path = tmp_path / "model.hgrc"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.schema == ckpt.schema
    assert loaded.code_vocab == ckpt.code_vocab
    assert loaded.best_epoch == ckpt.best_epoch
    assert loaded.training_log == ckpt.training_log
    assert np.array_equal(loaded.norm_stats.mean, ckpt.norm_stats.mean)
    assert np.array_equal(loaded.norm_stats.std, ckpt.norm_stats.std)
    assert loaded.norm_stats.warnings == ckpt.norm_stats.warnings
    orig = ckpt.params.named_arrays()
    back = loaded.params.named_arrays()
    assert orig.keys() == back.keys()
    for name in orig:
        assert np.array_equal(orig[name], back[name]), name


def test_save_is_byte_deterministic(tmp_path):
    ckpt = small_checkpoint()
    save_checkpoint(ckpt, tmp_path / "a.hgrc")
    save_checkpoint(ckpt, tmp_path / "b.hgrc")
    assert (tmp_path / "a.hgrc").read_bytes() == (tmp_path / "b.hgrc").read_bytes()


def test_none_std_round_trips(tmp_path):
    ckpt = small_checkpoint()
    ckpt.norm_stats = NormStats(ckpt.schema, ckpt.norm_stats.mean, std=None)
    path = tmp_path / "m.hgrc"
    save_checkpoint(ckpt, path)
    assert load_checkpoint(path).norm_stats.std is None


def write_tampered(tmp_path, mutate):
    ckpt = small_checkpoint()
    path = tmp_path / "model.hgrc"
    save_checkpoint(ckpt, path)
    data = bytearray(path.read_bytes())
    bad = tmp_path / "bad.hgrc"
    bad.write_bytes(bytes(mutate(data)))
    return bad


def test_truncated_header_rejected(tmp_path):
    bad = write_tampered(tmp_path, lambda d: d[:6])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)


def test_bad_magic_rejected(tmp_path):
    def mutate(d):
        d[0:4] = b"NOPE"
        return d
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_unknown_version_rejected(tmp_path):
    def mutate(d):
        d[4] = VERSION + 1
        return d
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_version_1_checkpoint_rejected(tmp_path):
    # version 1 stored the architecture flat in the config; there is no converter
    def mutate(d):
        d[4] = 1
        return d
    with pytest.raises(CheckpointVersionError, match="version 1, expected 8"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_version_2_checkpoint_rejected(tmp_path):
    # version 2 stored the GRU as nine per-gate arrays; there is no converter
    def mutate(d):
        d[4] = 2
        return d
    with pytest.raises(CheckpointVersionError, match="version 2, expected 8"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_version_3_checkpoint_rejected(tmp_path):
    # version 3 stored the activation in the model config; there is no converter
    def mutate(d):
        def edit(m):
            m["config"]["model"]["activation"] = "relu"
            return m
        d = edit_manifest(d, edit)
        d[4] = 3
        return d
    with pytest.raises(CheckpointVersionError, match="version 3, expected 8"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_version_4_checkpoint_rejected(tmp_path):
    # version 4 stored six ffn{i}.* arrays per member; there is no converter
    def mutate(d):
        def edit(m):
            m["params"] = [e for e in m["params"] if not e["name"].startswith("ffn.")]
            return m
        d = edit_manifest(d, edit)
        d[4] = 4
        return d
    with pytest.raises(CheckpointVersionError, match="version 4, expected 8"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_version_5_checkpoint_rejected(tmp_path):
    # version 5 stored the FFN ensemble with a leading member axis, its
    # attention map attn.* and n_members; there is no converter
    def mutate(d):
        def edit(m):
            m["config"]["model"]["n_members"] = 1
            m["params"] += [{"name": "attn.w_beta", "shape": [3, 1], "offset": 0},
                            {"name": "attn.b_beta", "shape": [1], "offset": 0}]
            return m
        d = edit_manifest(d, edit)
        d[4] = 5
        return d
    with pytest.raises(CheckpointVersionError, match="version 5, expected 8"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_version_6_checkpoint_rejected(tmp_path):
    # version 6 named use_similarity, temperature and zeta_init in the model
    # config; they are constants now and there is no converter
    def mutate(d):
        def edit(m):
            m["config"]["model"].update(use_similarity=True, temperature=50.0, zeta_init=0.4)
            return m
        d = edit_manifest(d, edit)
        d[4] = 6
        return d
    with pytest.raises(CheckpointVersionError, match="version 6, expected 8"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_version_7_checkpoint_rejected(tmp_path):
    # version 7 stored the buffer as a float64 blob, with offsets counting
    # 8-byte floats; there is no converter
    def mutate(d):
        def edit(m):
            for entry in m["params"]:
                entry["offset"] *= 2
            return m
        _, _, mlen = HEADER.unpack_from(d)
        blob = np.frombuffer(bytes(d[HEADER.size + mlen:]), dtype="<f4")
        d = edit_manifest(d[:HEADER.size + mlen], edit) + blob.astype("<f8").tobytes()
        d[4] = 7
        return d
    with pytest.raises(CheckpointVersionError, match="version 7, expected 8"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_blob_is_float32_in_layout_order(tmp_path):
    ckpt = small_checkpoint()
    path = tmp_path / "model.hgrc"
    save_checkpoint(ckpt, path)
    data = path.read_bytes()
    _, version, mlen = HEADER.unpack_from(data)
    manifest = json.loads(data[HEADER.size:HEADER.size + mlen])
    assert version == VERSION == 8
    assert [e["offset"] for e in manifest["params"]] == [
        4 * offset for _, _, offset in ckpt.params.layout]
    blob = np.frombuffer(data, dtype="<f4", offset=HEADER.size + mlen)
    assert np.array_equal(blob, ckpt.params.flat)


def test_garbled_manifest_rejected(tmp_path):
    def mutate(d):
        d[HEADER.size] = ord("X")  # breaks the opening brace
        return d
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_truncated_blob_rejected(tmp_path):
    bad = write_tampered(tmp_path, lambda d: d[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def edit_manifest(data, edit):
    magic, version, mlen = HEADER.unpack_from(data)
    manifest = json.loads(bytes(data[HEADER.size:HEADER.size + mlen]))
    manifest = edit(manifest)
    raw = json.dumps(manifest, sort_keys=True).encode()
    return bytearray(HEADER.pack(magic, version, len(raw))) + raw + data[HEADER.size + mlen:]


def test_unexpected_parameter_rejected(tmp_path):
    def mutate(d):
        def edit(m):
            m["params"][0]["name"] = "not.a.parameter"
            return m
        return edit_manifest(d, edit)
    with pytest.raises(CheckpointError, match="unexpected parameter"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_missing_parameter_rejected(tmp_path):
    def mutate(d):
        def edit(m):
            m["params"] = m["params"][:-1]
            return m
        return edit_manifest(d, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_wrong_shape_rejected(tmp_path):
    def mutate(d):
        def edit(m):
            m["params"][0]["shape"] = [1, 1]
            return m
        return edit_manifest(d, edit)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_out_of_bounds_offset_rejected(tmp_path):
    def mutate(d):
        def edit(m):
            m["params"][-1]["offset"] = 10 ** 9
            return m
        return edit_manifest(d, edit)
    with pytest.raises(CheckpointError, match="past end"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_overlapping_parameters_rejected(tmp_path):
    # two entries over the same bytes would load u_zr as a copy of w
    def mutate(d):
        def edit(m):
            table = {e["name"]: e for e in m["params"]}
            table["gru.u_zr"]["offset"] = table["gru.w"]["offset"]
            return m
        return edit_manifest(d, edit)
    with pytest.raises(CheckpointError, match="'gru.u_zr' starts at byte 0"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_reordered_parameters_rejected(tmp_path):
    def mutate(d):
        def edit(m):
            m["params"][0], m["params"][1] = m["params"][1], m["params"][0]
            return m
        return edit_manifest(d, edit)
    with pytest.raises(CheckpointError, match="expected 'gru.w'"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_duplicate_parameter_rejected(tmp_path):
    def mutate(d):
        def edit(m):
            m["params"][1] = dict(m["params"][0])
            return m
        return edit_manifest(d, edit)
    with pytest.raises(CheckpointError, match="gru.w"):
        load_checkpoint(write_tampered(tmp_path, mutate))


@pytest.mark.parametrize("edit", [
    lambda m: m["params"][0].pop("offset"),
    lambda m: m["params"][0].update(offset="0"),
    lambda m: m["params"][3].update(spare=1),
    lambda m: m.update(params={"gru.w": 0}),
], ids=["missing_offset", "string_offset", "extra_key", "table_not_a_list"])
def test_malformed_parameter_table_rejected(tmp_path, edit):
    def mutate(d):
        def apply(m):
            edit(m)
            return m
        return edit_manifest(d, apply)
    with pytest.raises(CheckpointError):
        load_checkpoint(write_tampered(tmp_path, mutate))


@pytest.mark.parametrize("edit", [
    lambda m: m["norm_stats"].pop("std"),
    lambda m: m["norm_stats"].pop("mean"),
    lambda m: m.update(norm_stats=[80.0, 37.0]),
    lambda m: m["norm_stats"].update(mean=["eighty", "thirty-seven"]),
    lambda m: m["norm_stats"].update(mean=[80.0]),
    lambda m: m["norm_stats"].update(std=[10.0]),
    lambda m: m["norm_stats"]["mean"].__setitem__(0, float("nan")),
    lambda m: m["norm_stats"]["std"].__setitem__(0, float("inf")),
    lambda m: m["norm_stats"]["std"].__setitem__(0, -1.0),
], ids=["missing_std", "missing_mean", "not_an_object", "non_numeric_mean", "short_mean",
        "short_std", "nan_mean", "infinite_std", "negative_std"])
def test_malformed_norm_stats_rejected(tmp_path, edit):
    def mutate(d):
        def apply(m):
            edit(m)
            return m
        return edit_manifest(d, apply)
    with pytest.raises(CheckpointError):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_unknown_config_key_rejected(tmp_path):
    def mutate(d):
        def edit(m):
            m["config"]["mystery_knob"] = 3
            return m
        return edit_manifest(d, edit)
    with pytest.raises(CheckpointError, match="TrainConfig"):
        load_checkpoint(write_tampered(tmp_path, mutate))


@pytest.mark.parametrize("edit", [
    lambda m: m["config"]["model"].update(mystery_knob=3),
    lambda m: m["config"]["model"].update(hidden_size=0),
    lambda m: m["config"].update(hidden_size=3),
    lambda m: m["config"]["model"].update(dropout="0.2"),
    lambda m: m["config"].update(split_ratios="abc"),
    lambda m: m.update(schema=[]),
    lambda m: m["config"]["model"].update(n_codes=m["config"]["model"]["n_codes"] + 1),
    lambda m: m["config"]["model"].update(n_members=1),
    lambda m: m["config"].update(split_ratios=[0.7, 0.15, float("nan")]),
    lambda m: m["config"]["model"].update(dropout=float("inf")),
    lambda m: m["config"].update(split_ratios=[0.5, 0.5, 0.5]),
    lambda m: m["config"]["model"].update(use_similarity=True),
    lambda m: m["config"]["model"].update(temperature=50.0),
    lambda m: m["config"]["model"].update(zeta_init=0.4),
], ids=["unknown_model_key", "invalid_model_value", "flat_architecture_key",
        "string_dropout", "string_split_ratios", "empty_schema", "n_codes_off_by_one",
        "removed_n_members_key", "nan_split_ratio", "infinite_dropout",
        "split_ratios_over_one", "removed_use_similarity_key", "removed_temperature_key",
        "removed_zeta_init_key"])
def test_bad_model_config_rejected(tmp_path, edit):
    def mutate(d):
        def apply(m):
            edit(m)
            return m
        return edit_manifest(d, apply)
    with pytest.raises(CheckpointError, match="TrainConfig"):
        load_checkpoint(write_tampered(tmp_path, mutate))


def test_loaded_checkpoint_predicts_identically(tmp_path):
    from hgrc.model import forward_eval
    ckpt = small_checkpoint()
    rng = Rng(31)
    series, icd = rng.normal(size=(6, 2, 48)), (rng.random((6, 4)) < 0.5).astype(np.float64)
    before, _ = forward_eval(ckpt.params, series, icd)
    path = tmp_path / "model.hgrc"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    after, _ = forward_eval(loaded.params, series, icd)
    assert np.array_equal(before, after)
