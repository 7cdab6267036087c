"""GRU autoencoder: tape/numpy parity, training, and checkpoint format."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    decode_greedy_batch_per_step,
    encode_batch_per_step,
    loss_and_grads_per_step,
)

import dprw.autoencoder
from dprw.autoencoder import (
    CHECKPOINT_MAGIC,
    Autoencoder,
    AutoencoderConfig,
    CheckpointCorruptError,
    CheckpointShapeError,
    CheckpointVersionError,
    _parameter_shapes,
    load_checkpoint,
    pad_batch,
    pretrain,
    save_checkpoint,
)
from dprw.corpus import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    Document,
    LabeledDataset,
    build_vocabulary,
    encode,
)
from dprw.dpmech import PrivacyParams, privatize
from dprw.numcore import AdamState, NonFiniteError, Rng, Tape, finite_difference_check
from dprw.pipeline import EPSILON_LADDER
from dprw.synth import FLIGHTS, make_corpus

TINY = AutoencoderConfig(embed_dim=5, hidden_dim=7, max_len=6, epochs=2, batch_size=4)

DOCS = [
    Document("book a flight", "x"),
    Document("cancel the flight", "x"),
    Document("a flight to boston", "x"),
]


def tiny_model(seed: int = 0) -> Autoencoder:
    vocab = build_vocabulary(DOCS)
    config = AutoencoderConfig(
        vocab_size=len(vocab), embed_dim=TINY.embed_dim, hidden_dim=TINY.hidden_dim,
        max_len=TINY.max_len, epochs=TINY.epochs, batch_size=TINY.batch_size,
    )
    return Autoencoder(config, vocab, rng=Rng(seed).derive("autoencoder"))


def doc_batch(model: Autoencoder, docs=DOCS):
    return pad_batch([encode(d, model.vocabulary, model.config.max_len) for d in docs])


# -- config and construction -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        AutoencoderConfig(embed_dim=0)
    with pytest.raises(ValueError):
        AutoencoderConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        AutoencoderConfig(clip_c=-1.0)
    with pytest.raises(ValueError):
        AutoencoderConfig(vocab_size=-2)


def test_constructor_checks_vocab_size_and_parameter_shapes():
    vocab = build_vocabulary(DOCS)
    config = AutoencoderConfig(vocab_size=len(vocab) + 1)
    with pytest.raises(ValueError):
        Autoencoder(config, vocab, rng=Rng(0))
    good = AutoencoderConfig(vocab_size=len(vocab))
    params = Autoencoder(good, vocab, rng=Rng(0)).parameters
    bad = dict(params)
    bad["out_w"] = bad["out_w"][:, :-1]
    with pytest.raises(ValueError):
        Autoencoder(good, vocab, parameters=bad)
    with pytest.raises(ValueError):
        Autoencoder(good, vocab)  # neither parameters nor rng


def test_parameter_shapes_cover_both_sides():
    shapes = _parameter_shapes(AutoencoderConfig(vocab_size=10, embed_dim=3, hidden_dim=4))
    assert shapes["embedding"] == (10, 3)
    for side in ("enc", "dec"):
        for gate in ("z", "r", "h"):
            assert shapes[f"{side}_w{gate}"] == (7, 4)
            assert shapes[f"{side}_b{gate}"] == (4,)
    assert shapes["out_w"] == (4, 10)
    assert shapes["out_b"] == (10,)


def test_init_is_deterministic_in_seed():
    a, b = tiny_model(3), tiny_model(3)
    for k in a.parameters:
        np.testing.assert_array_equal(a.parameters[k], b.parameters[k])
    c = tiny_model(4)
    assert any(not np.array_equal(a.parameters[k], c.parameters[k]) for k in a.parameters)


# -- encoding ----------------------------------------------------------------------


def test_pad_rows_freeze_the_encoder_state():
    model = tiny_model()
    ids = encode(DOCS[0], model.vocabulary, model.config.max_len)
    bare = model.encode_batch(np.array([ids]))
    padded = model.encode_batch(np.array([ids + [PAD_ID] * 5]))
    np.testing.assert_array_equal(bare, padded)


def test_tape_and_numpy_gru_agree():
    model = tiny_model()
    batch = doc_batch(model)
    h_np = model.encode_batch(batch)
    # tape side: build_loss's encoder pass
    tape = Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in model.parameters.items()}
    steps = batch.T
    h0 = tape.leaf(np.zeros((batch.shape[0], model.config.hidden_dim)))
    x = tape.row_select(leaves["embedding"], steps.reshape(-1))
    h = tape.gru_pass(x, h0, [leaves[f"enc_{k}"] for k in ("wz", "bz", "wr", "br", "wh", "bh")], mask=steps != PAD_ID)
    # one GRU cell; the input projections are rows of different GEMMs
    np.testing.assert_allclose(h.value, h_np, rtol=0, atol=1e-15)


# -- the per-step oracle -----------------------------------------------------------


def oracle_model(vocab_size: int, embed: int, hidden: int, clip_c: float, seed: int) -> Autoencoder:
    docs = [Document(" ".join(f"w{i}" for i in range(vocab_size - 4)), "x")]
    vocab = build_vocabulary(docs)
    config = AutoencoderConfig(
        vocab_size=len(vocab), embed_dim=embed, hidden_dim=hidden, max_len=6, clip_c=clip_c
    )
    return Autoencoder(config, vocab, rng=Rng(seed).derive("autoencoder"))


def assert_close(actual, expected, rtol=1e-12):
    """Every entry within rtol of the array's largest magnitude."""
    scale = max(float(np.abs(expected).max()), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 4),
    t_len=st.integers(2, 5),
    clip_c=st.sampled_from([1e-4, 1e3]),
    seed=st.integers(0, 10_000),
)
@example(b=1, t_len=2, clip_c=1e-4, seed=0)
@example(b=1, t_len=2, clip_c=1e3, seed=1)
@example(b=3, t_len=5, clip_c=1e-4, seed=2)
def test_build_loss_matches_the_per_step_oracle(b, t_len, clip_c, seed):
    rng = Rng(seed)
    model = oracle_model(9, 3, 4, clip_c, seed)
    ids = rng.derive("ids").integers(1, 9, size=(b, t_len))
    lengths = rng.derive("len").integers(2, t_len + 1, size=b)
    lengths[0] = 2  # PAD from step 2 on
    ids[np.arange(t_len)[None, :] >= lengths[:, None]] = PAD_ID
    latents = model.encode_batch(ids)
    norms = np.abs(latents).sum(axis=1)
    assert np.all(norms > clip_c) if clip_c < 1 else np.all(norms < clip_c)

    expected_loss, expected = loss_and_grads_per_step(model, ids)
    tape = Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in model.parameters.items()}
    loss = model.build_loss(tape, leaves, ids)
    tape.backward(loss)
    assert math.isclose(float(loss.value), expected_loss, rel_tol=1e-12)
    for name, grad in expected.items():
        assert_close(leaves[name].grad, grad)


def test_build_loss_is_one_node_per_pass():
    model = tiny_model()
    tape = Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in model.parameters.items()}
    model.build_loss(tape, leaves, doc_batch(model))
    assert [n.name for n in tape.nodes] == [
        "row_select", "gru_pass", "clip_rows_l1",
        "row_select", "gru_pass", "matmul", "add", "softmax_cross_entropy",
    ]


@pytest.fixture(scope="module")
def trained():
    """A small model pre-trained on a fixed corpus, and that corpus's ids."""
    ds = make_corpus(FLIGHTS, seed=4, train_size=40, val_size=0, test_size=0)
    config = AutoencoderConfig(embed_dim=8, hidden_dim=12, max_len=12, epochs=15, batch_size=8)
    model = Autoencoder.from_checkpoint(pretrain(ds, config, seed=4))
    return model, pad_batch([encode(d, model.vocabulary, config.max_len) for d in ds.train])


def test_encode_batch_matches_the_per_step_oracle(trained):
    model, ids = trained
    assert_close(model.encode_batch(ids), encode_batch_per_step(model, ids))


@pytest.mark.parametrize("epsilon", EPSILON_LADDER)
def test_decode_tokens_match_the_per_step_oracle(trained, epsilon):
    model, ids = trained
    privacy = PrivacyParams(epsilon=epsilon, clip_c=model.config.clip_c)
    noisy = []
    for latents in (model.encode_batch(ids), encode_batch_per_step(model, ids)):
        rng = Rng(8)
        noisy.append(np.stack([
            privatize(row, privacy, None if privacy.non_private else rng.derive("doc", j))
            for j, row in enumerate(latents)
        ]))
    decoded = model.decode_greedy_batch(noisy[0])
    assert decoded == decode_greedy_batch_per_step(model, noisy[1])
    assert len({tuple(d) for d in decoded}) > 1


# -- decoding ----------------------------------------------------------------------


def test_decode_output_is_bracketed_and_bounded():
    model = tiny_model()
    latents = model.encode_batch(doc_batch(model))
    for seq in model.decode_greedy_batch(latents):
        assert seq[0] == SOS_ID and seq[-1] == EOS_ID
        assert len(seq) <= model.config.max_len + 2
        assert PAD_ID not in seq[1:-1] and SOS_ID not in seq[1:-1]


def test_decode_is_deterministic():
    model = tiny_model()
    latents = model.encode_batch(doc_batch(model))
    assert model.decode_greedy_batch(latents) == model.decode_greedy_batch(latents)


def test_decode_rejects_bad_latent_shape():
    model = tiny_model()
    with pytest.raises(ValueError):
        model.decode_greedy_batch(np.zeros((2, model.config.hidden_dim + 1)))


# -- training -----------------------------------------------------------------------


def test_initial_loss_is_log_vocab_with_zeroed_output_layer():
    model = tiny_model()
    model.parameters["out_w"][:] = 0.0
    model.parameters["out_b"][:] = 0.0
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
    loss = model.build_loss(tape, leaves, doc_batch(model))
    assert np.isclose(float(loss.value), np.log(len(model.vocabulary)))


def test_latent_is_clipped_during_training():
    model = tiny_model()
    # inflate the encoder output so clipping must engage
    model.parameters["enc_wh"] *= 50.0
    batch = doc_batch(model)
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
    model.build_loss(tape, leaves, batch)
    clip_nodes = [n for n in tape.nodes if n.name == "clip_rows_l1"]
    assert len(clip_nodes) == 1
    norms = np.abs(clip_nodes[0].value).sum(axis=1)
    assert np.all(norms <= model.config.clip_c + 1e-9)


def test_train_step_validates_batch_and_reduces_loss():
    model = tiny_model()
    opt = AdamState.init(model.parameters)
    with pytest.raises(ValueError):
        model.train_step(np.zeros((0, 3), dtype=np.int64), opt)
    with pytest.raises(ValueError):
        model.train_step(np.array([[SOS_ID]]), opt)
    batch = doc_batch(model)
    first = model.train_step(batch, opt)
    for _ in range(60):
        last = model.train_step(batch, opt)
    assert last < first


def test_full_loss_gradients_pass_finite_differences():
    model = tiny_model(seed=5)
    batch = doc_batch(model, DOCS[:2])
    report = finite_difference_check(
        lambda tape, leaves: model.build_loss(tape, leaves, batch),
        model.parameters,
    )
    assert report.ok, f"worst {report.worst_param}: {report.max_rel_error}"


def test_pretrain_is_deterministic_and_respects_vocab_size():
    ds = LabeledDataset(train=DOCS)
    config = AutoencoderConfig(embed_dim=4, hidden_dim=5, max_len=6, epochs=2, batch_size=2)
    a = pretrain(ds, config, seed=1)
    b = pretrain(ds, config, seed=1)
    assert a.config == b.config
    for k in a.parameters:
        np.testing.assert_array_equal(a.parameters[k], b.parameters[k])
    assert a.metadata["epochs_completed"] == 2
    assert a.metadata["seed"] == 1
    c = pretrain(ds, config, seed=2)
    assert any(not np.array_equal(a.parameters[k], c.parameters[k]) for k in a.parameters)
    with pytest.raises(ValueError):
        pretrain(ds, AutoencoderConfig(vocab_size=999, epochs=1), seed=1)
    with pytest.raises(ValueError):
        pretrain(LabeledDataset(train=[]), config, seed=1)


def test_pretrain_names_the_failing_batch(monkeypatch):
    # two batches per epoch; after the third update a parameter holds inf,
    # so the leaf check of epoch 1, batch 1 fails
    real = dprw.autoencoder.adam_step
    updates = []

    def poisoning(params, *args):
        real(params, *args)
        updates.append(1)
        if len(updates) == 3:
            params["dec_bh"][0] = np.inf

    monkeypatch.setattr(dprw.autoencoder, "adam_step", poisoning)
    ds = LabeledDataset(train=DOCS + DOCS[:1])
    config = AutoencoderConfig(embed_dim=4, hidden_dim=5, max_len=6, epochs=3, batch_size=2)
    with pytest.raises(NonFiniteError, match=re.escape("seed 7, epoch 1, batch 1: non-finite result in op 'dec_bh'")):
        pretrain(ds, config, seed=7)
    assert len(updates) == 3


def test_train_step_drops_the_inference_tables():
    model = tiny_model()
    batch = doc_batch(model)
    before = model.encode_batch(batch)
    model.train_step(batch, AdamState.init(model.parameters))
    after = model.encode_batch(batch)
    assert not np.array_equal(before, after)
    np.testing.assert_array_equal(after, Autoencoder(model.config, model.vocabulary, model.parameters).encode_batch(batch))


def test_pretrain_memorizes_a_tiny_corpus():
    ds = LabeledDataset(train=DOCS)
    config = AutoencoderConfig(
        embed_dim=12, hidden_dim=24, max_len=6, epochs=150, batch_size=3, learning_rate=0.01
    )
    ckpt = pretrain(ds, config, seed=0)
    model = Autoencoder.from_checkpoint(ckpt)
    batch = pad_batch([encode(d, model.vocabulary, config.max_len) for d in ds.train])
    decoded = model.decode_greedy_batch(model.encode_batch(batch))
    reconstructions = [
        " ".join(model.vocabulary.token(i) for i in seq[1:-1]) for seq in decoded
    ]
    assert reconstructions == [d.text for d in ds.train]


# -- checkpoint format ---------------------------------------------------------------


def roundtrip(tmp_path, model: Autoencoder, metadata=None):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(model.to_checkpoint(metadata), path)
    return path, load_checkpoint(path)


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    model = tiny_model(seed=9)
    _, loaded = roundtrip(tmp_path, model, {"final_loss": 0.25, "seed": 9})
    assert loaded.config == model.config
    assert loaded.vocabulary.id_to_token == model.vocabulary.id_to_token
    assert loaded.metadata == {"final_loss": 0.25, "seed": 9}
    for k, v in model.parameters.items():
        np.testing.assert_array_equal(loaded.parameters[k], v)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path, _ = roundtrip(tmp_path, tiny_model())
    raw = bytearray(path.read_bytes())
    raw[:5] = b"XXXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)


def test_checkpoint_rejects_future_version(tmp_path):
    path, _ = roundtrip(tmp_path, tiny_model())
    raw = bytearray(path.read_bytes())
    raw[: len(CHECKPOINT_MAGIC)] = b"DPRW9"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path, _ = roundtrip(tmp_path, tiny_model())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])  # cut into the last blob
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)
    path.write_bytes(raw[:8])  # cut into the header
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    path, _ = roundtrip(tmp_path, tiny_model())
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointCorruptError):
        load_checkpoint(path)


def test_checkpoint_rejects_non_finite_parameters(tmp_path):
    # save refuses such a checkpoint, so patch the bytes of a valid file:
    # a marker value in dec_bh becomes nan or inf on disk
    marker = 1234.5678
    ckpt = tiny_model().to_checkpoint()
    ckpt.parameters["dec_bh"][1] = marker
    path = tmp_path / "nonfinite.bin"
    save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    needle = np.float64(marker).astype("<f8").tobytes()
    assert raw.count(needle) == 1
    for bad in (np.nan, np.inf):
        path.write_bytes(raw.replace(needle, np.float64(bad).astype("<f8").tobytes()))
        with pytest.raises(CheckpointCorruptError, match="'dec_bh'"):
            load_checkpoint(path)


def test_save_refuses_non_finite_parameters_and_writes_nothing(tmp_path):
    for bad in (np.nan, -np.inf):
        ckpt = tiny_model().to_checkpoint()
        ckpt.parameters["enc_wz"][0, 2] = bad
        path = tmp_path / "diverged.bin"
        with pytest.raises(CheckpointCorruptError, match="'enc_wz'"):
            save_checkpoint(ckpt, path)
        assert not path.exists()


def test_checkpoint_rejects_shape_drift(tmp_path):
    model = tiny_model()
    ckpt = model.to_checkpoint()
    ckpt.parameters["out_b"] = np.zeros(len(model.vocabulary) + 1)
    path = tmp_path / "bad.bin"
    with pytest.raises(CheckpointShapeError):
        save_checkpoint(ckpt, path)


def test_loaded_checkpoint_behaves_identically(tmp_path):
    model = tiny_model(seed=2)
    _, loaded = roundtrip(tmp_path, model)
    clone = Autoencoder.from_checkpoint(loaded)
    batch = doc_batch(model)
    np.testing.assert_array_equal(model.encode_batch(batch), clone.encode_batch(batch))
    latents = model.encode_batch(batch)
    assert model.decode_greedy_batch(latents) == clone.decode_greedy_batch(latents)
