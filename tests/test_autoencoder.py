"""GRU autoencoder: training/inference parity, the training graph against
its references, training, and checkpoint format."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    build_loss_and_grads,
    build_loss_graph,
    check_build_loss_gradients,
    decode_greedy_batch_freeze_rows,
    decode_greedy_batch_per_step,
    encode_batch_freeze_every_step,
    encode_batch_per_step,
    graph_loss_and_grads,
    loss_and_grads_per_step,
)

import dprw.autoencoder
from dprw.autoencoder import (
    CHECKPOINT_MAGIC,
    Autoencoder,
    AutoencoderConfig,
    CheckpointCorruptError,
    CheckpointError,
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
from dprw.numcore import AdamState, NonFiniteError, Rng, Tape, gru_pass
from dprw.pipeline import EPSILON_LADDER, rewrite_documents
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
    for lr in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            AutoencoderConfig(learning_rate=lr)
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
    # training side: build_loss's encoder pass, rows sorted longest first
    p = model.parameters
    lengths = (batch != PAD_ID).sum(axis=1)
    order = np.argsort(-lengths, kind="stable")
    steps = batch[order].T
    uniq, inv = np.unique(steps.reshape(-1), return_inverse=True)
    h0 = np.zeros((batch.shape[0], model.config.hidden_dim))
    weights = [p[f"enc_{k}"] for k in ("wz", "bz", "wr", "br", "wh", "bh")]
    active = [int((lengths > t).sum()) for t in range(steps.shape[0])]
    h, _ = gru_pass(p["embedding"][uniq], inv, h0, weights, active)
    # one GRU cell; the input projections are rows of different GEMMs
    np.testing.assert_allclose(h, h_np[order], rtol=0, atol=1e-15)


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
    loss, grads = build_loss_and_grads(model, model.parameters, ids)
    assert math.isclose(float(loss), expected_loss, rel_tol=1e-12)
    assert set(grads) == set(expected)
    for name, grad in expected.items():
        assert_close(grads[name], grad)


@settings(max_examples=80, deadline=None)
@given(
    b=st.integers(1, 32),
    t_len=st.integers(2, 7),
    regime=st.sampled_from(["inside", "outside", "both"]),
    seed=st.integers(0, 10_000),
)
@example(b=3, t_len=5, regime="both", seed=0)
@example(b=32, t_len=7, regime="both", seed=1)
@example(b=1, t_len=2, regime="outside", seed=2)
def test_build_loss_and_backward_equal_the_graph_tape_in_float64(b, t_len, regime, seed):
    # ragged rows in any order; the latent rows sit inside the clip ball,
    # outside it, or on both sides. The package packs and sorts its rows,
    # so the sums run in another order: equal to rounding, not bit for bit.
    rng = Rng(seed)
    model = oracle_model(9, 3, 4, 1.0, seed)
    ids = rng.derive("ids").integers(1, 9, size=(b, t_len))
    lengths = rng.derive("len").integers(2, t_len + 1, size=b)
    ids[np.arange(t_len)[None, :] >= lengths[:, None]] = PAD_ID
    norms = np.sort(np.abs(model.encode_batch(ids)).sum(axis=1))
    assume(regime != "both" or norms[-1] > 1.1 * norms[0])
    clip_c = {"inside": 2.0 * norms[-1], "outside": 0.5 * norms[0], "both": 0.5 * (norms[0] + norms[-1])}[regime]
    model = Autoencoder(replace(model.config, clip_c=float(clip_c)), model.vocabulary, model.parameters)

    loss, grads = build_loss_and_grads(model, model.parameters, ids)
    expected_loss, expected = graph_loss_and_grads(
        lambda tape, leaves: build_loss_graph(model, tape, leaves, ids), model.parameters
    )
    assert loss.dtype == expected_loss.dtype == np.float64
    assert math.isclose(float(loss), float(expected_loss), rel_tol=1e-12)
    assert set(grads) == set(expected) == set(model.parameters)
    for name, grad in expected.items():
        assert grads[name].dtype == np.float64, name
        assert_close(grads[name], grad)


def test_build_loss_is_one_node_per_pass():
    model = tiny_model()
    tape = Tape()
    _, grads = model.build_loss(tape, model.parameters, doc_batch(model))
    assert [name for name, _ in tape.nodes] == ["encoder", "clip", "decoder", "output", "cross_entropy"]
    assert grads == {}  # filled by backward
    tape.backward(np.ones(()))
    assert set(grads) == set(model.parameters)


def test_build_loss_checks_parameters_and_ids():
    model = tiny_model()
    batch = doc_batch(model)
    with pytest.raises(ValueError, match="token id out of range"):
        model.build_loss(Tape(), model.parameters, np.where(batch == PAD_ID, len(model.vocabulary), batch))
    with pytest.raises(ValueError, match="token id out of range"):
        model.build_loss(Tape(), model.parameters, np.where(batch == PAD_ID, -1, batch))
    params = {**model.parameters, "out_w": model.parameters["out_w"].copy()}
    params["out_w"][1, 2] = np.nan
    with pytest.raises(NonFiniteError, match="'out_w'"):
        model.build_loss(Tape(), params, batch)


def test_build_loss_refuses_pad_inside_a_row_and_rows_shorter_than_two():
    model = tiny_model()
    batch = doc_batch(model)
    holed = batch.copy()
    holed[0, 1] = PAD_ID  # PAD before the row's real ids end
    with pytest.raises(ValueError, match="PAD only as a suffix"):
        model.build_loss(Tape(), model.parameters, holed)
    leading = np.concatenate([np.full((batch.shape[0], 1), PAD_ID), batch[:, :-1]], axis=1)
    with pytest.raises(ValueError, match="PAD only as a suffix"):
        model.build_loss(Tape(), model.parameters, leading)
    short = batch.copy()
    short[1, 1:] = PAD_ID  # one id left in row 1
    with pytest.raises(ValueError, match="at least two ids"):
        model.build_loss(Tape(), model.parameters, short)
    with pytest.raises(ValueError, match="at least two ids"):
        model.build_loss(Tape(), model.parameters, np.full_like(batch, PAD_ID))


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


@pytest.mark.parametrize(
    "ids",
    [
        [[1, 5, 0, 6, 2], [1, 4, 5, 6, 2]],  # interior PAD
        [[1, 5, 0, 6], [1, 4, 0, 0], [1, 7, 0, 8]],  # an all-PAD column
        [[1, 4, 5, 6, 2], [1, 7, 2, 0, 0], [1, 8, 9, 2, 0]],  # ragged right padding
        [[1, 4, 5, 6, 2]],  # a single unpadded row
    ],
)
def test_encode_batch_equals_the_freeze_every_step_loop(ids):
    model = tiny_model()
    ids = np.array(ids)
    np.testing.assert_array_equal(model.encode_batch(ids), encode_batch_freeze_every_step(model, ids))


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


@pytest.mark.parametrize("max_len", [0, 1, 2, 3, None])
@pytest.mark.parametrize("eos_bias", [-30.0, 1.0, 30.0])
def test_decode_equals_the_freeze_rows_loop(eos_bias, max_len):
    # the EOS bias sets the mix: -30 never emits EOS, so every row hits the
    # limit; 30 ends every row at step 0; 1 ends rows at steps 0 to 6. The
    # content budget is the config's max_len (None: TINY's 6); the config
    # refuses a budget of 0, so no model decodes with one
    model = tiny_model()
    if max_len == 0:
        with pytest.raises(ValueError, match="max_len must be positive"):
            replace(model.config, max_len=max_len)
        return
    params = {**model.parameters, "out_b": model.parameters["out_b"].copy()}
    params["out_b"][EOS_ID] = eos_bias
    model = Autoencoder(model.config, model.vocabulary, params)
    budget = model if max_len is None else Autoencoder(replace(model.config, max_len=max_len), model.vocabulary, params)
    latents = Rng(31).normal(0.0, 2.0, (16, model.config.hidden_dim))
    for batch in (latents, latents[:3], latents[5:6]):
        assert budget.decode_greedy_batch(batch) == decode_greedy_batch_freeze_rows(budget, batch)
    lengths = {len(seq) - 2 for seq in model.decode_greedy_batch(latents)}
    assert lengths == {-30.0: {6}, 1.0: {0, 1, 2, 3, 4, 6}, 30.0: {0}}[eos_bias]


def test_decode_rejects_bad_latent_shape():
    model = tiny_model()
    with pytest.raises(ValueError):
        model.decode_greedy_batch(np.zeros((2, model.config.hidden_dim + 1)))


# -- training -----------------------------------------------------------------------


def test_initial_loss_is_log_vocab_with_zeroed_output_layer():
    model = tiny_model()
    model.parameters["out_w"][:] = 0.0
    model.parameters["out_b"][:] = 0.0
    loss, _ = model.build_loss(Tape(), model.parameters, doc_batch(model))
    assert np.isclose(float(loss), np.log(len(model.vocabulary)))


def test_latent_is_clipped_during_training(monkeypatch):
    model = tiny_model()
    # inflate the encoder output so clipping must engage
    model.parameters["enc_wh"] *= 50.0
    batch = doc_batch(model)
    clips = []
    real = dprw.autoencoder.clip_rows_l1

    def spy(x, c):
        clips.append((x, c, real(x, c)))
        return clips[-1][2]

    monkeypatch.setattr(dprw.autoencoder, "clip_rows_l1", spy)
    model.build_loss(Tape(), model.parameters, batch)
    assert len(clips) == 1
    final, c, (latent, _, scale) = clips[0]
    assert c == model.config.clip_c and final.shape == (batch.shape[0], model.config.hidden_dim)
    assert (scale < 1.0).any()
    norms = np.abs(latent).sum(axis=1)
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
    report = check_build_loss_gradients(model, batch)
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


# -- damaged checkpoint files --------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    """A valid checkpoint's header object and its blob bytes."""
    start = len(CHECKPOINT_MAGIC) + 8
    (header_len,) = np.frombuffer(raw, dtype="<u8", count=1, offset=len(CHECKPOINT_MAGIC))
    return json.loads(raw[start : start + int(header_len)]), raw[start + int(header_len) :]


def _join_checkpoint(header, blobs: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + len(text).to_bytes(8, "little") + text + blobs


@st.composite
def damaged_checkpoints(draw, raw: bytes) -> bytes:
    """A truncation, byte flips, a header edit (a value replaced or removed
    up to three levels down, the length prefix rewritten to fit) or a blob
    region grown or shrunk."""
    kind = draw(st.sampled_from(["truncate", "flip", "header", "blob"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        out = bytearray(raw)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    header, blobs = _split_checkpoint(raw)
    if kind == "blob":
        at = draw(st.integers(0, len(blobs)))
        if draw(st.booleans()):
            return _join_checkpoint(header, blobs[:at] + draw(st.binary(min_size=1, max_size=24)) + blobs[at:])
        return _join_checkpoint(header, blobs[:at] + blobs[at + draw(st.integers(1, 24)) :])
    parent, key = None, None
    node = header
    for _ in range(draw(st.integers(1, 3))):
        if isinstance(node, dict) and node:
            parent, key = node, draw(st.sampled_from(sorted(node)))
        elif isinstance(node, list) and node:
            parent, key = node, draw(st.integers(0, len(node) - 1))
        else:
            break
        node = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return _join_checkpoint(header, blobs)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.bin"
    save_checkpoint(tiny_model(seed=4).to_checkpoint({"final_loss": 0.5, "seed": 4}), path)
    return path


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_checkpoint_fuzz_raises_only_checkpoint_errors(valid_checkpoint, data):
    raw = valid_checkpoint.read_bytes()
    path = valid_checkpoint.with_name("damaged.bin")
    path.write_bytes(data.draw(damaged_checkpoints(raw)))
    try:
        ckpt = load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
    else:
        # what loads is a usable model
        model = Autoencoder.from_checkpoint(ckpt)
        model.decode_greedy_batch(model.encode_batch(doc_batch(model)))


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda h: h["config"].update(embed_dim=5.0), "'embed_dim' has the wrong type"),
        (lambda h: h["config"].update(clip_c=True), "'clip_c' has the wrong type"),
        (lambda h: h["config"].update(extra=1), "exactly the fields"),
        (lambda h: h["parameters"][0].__setitem__(0, ["embedding"]), "parameter table"),
        (lambda h: h["parameters"].reverse(), "parameter table"),
        (lambda h: h.update(vocabulary=h["vocabulary"][:-1] + [h["vocabulary"][-2]]), "distinct"),
        (lambda h: h.update(vocabulary=h["vocabulary"][1:] + ["x"]), "special tokens"),
        (lambda h: h.update(vocabulary=h["vocabulary"][:-1] + [["a"]]), "list of strings"),
        (lambda h: h.update(vocabulary=len(h["vocabulary"])), "list of strings"),
        (lambda h: h.update(metadata=[1]), "metadata must be an object"),
        (lambda h: h.pop("metadata"), "must be an object with"),
    ],
)
def test_checkpoint_refuses_malformed_headers(valid_checkpoint, tmp_path, edit, error):
    header, blobs = _split_checkpoint(valid_checkpoint.read_bytes())
    edit(header)
    path = tmp_path / "edited.bin"
    path.write_bytes(_join_checkpoint(header, blobs))
    with pytest.raises(CheckpointError, match=re.escape(error)):
        load_checkpoint(path)


def test_checkpoint_errors_name_the_file(tmp_path):
    missing = tmp_path / "missing.bin"
    with pytest.raises(CheckpointCorruptError, match=re.escape(f"checkpoint {missing}: cannot read it")):
        load_checkpoint(missing)


# -- training precision ----------------------------------------------------------------


def test_pretrain_trains_in_float32_and_returns_exact_float64(monkeypatch):
    seen = []
    real = dprw.autoencoder.adam_step

    def spy(params, grads, lr, state):
        seen.append({k: (params[k].dtype, grads[k].dtype, state.m[k].dtype, state.v[k].dtype) for k in params})
        real(params, grads, lr, state)
        seen.append({k: (params[k].dtype, state.m[k].dtype, state.v[k].dtype) for k in params})

    monkeypatch.setattr(dprw.autoencoder, "adam_step", spy)
    config = AutoencoderConfig(embed_dim=4, hidden_dim=5, max_len=6, epochs=2, batch_size=2)
    ckpt = pretrain(LabeledDataset(train=DOCS), config, seed=3)
    assert len(seen) == 2 * 4  # two batches per epoch, before and after each update
    assert {dtype for step in seen for dtypes in step.values() for dtype in dtypes} == {np.dtype(np.float32)}
    for k, v in ckpt.parameters.items():
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v.astype(np.float32).astype(np.float64), v, err_msg=k)


def test_pretrain_starts_from_the_float64_init_rounded_to_float32(monkeypatch):
    config = AutoencoderConfig(vocab_size=len(build_vocabulary(DOCS)), embed_dim=4, hidden_dim=5, max_len=6, batch_size=2)
    ckpt = pretrain(LabeledDataset(train=DOCS), replace(config, epochs=0), seed=3)
    init = Autoencoder(config, build_vocabulary(DOCS), rng=Rng(3).derive("autoencoder"))
    for k, v in init.parameters.items():
        np.testing.assert_array_equal(ckpt.parameters[k], v.astype(np.float32).astype(np.float64), err_msg=k)


def test_rewrites_from_the_in_memory_and_the_saved_checkpoint_are_identical(tmp_path):
    ds = make_corpus(FLIGHTS, seed=3, train_size=24, val_size=4, test_size=4)
    ckpt = pretrain(ds, AutoencoderConfig(embed_dim=6, hidden_dim=8, max_len=10, epochs=3, batch_size=8), seed=5)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    for k, v in ckpt.parameters.items():
        assert loaded.parameters[k].dtype == v.dtype == np.float64
        np.testing.assert_array_equal(loaded.parameters[k], v)
    for epsilon in EPSILON_LADDER:
        privacy = PrivacyParams(epsilon=epsilon, clip_c=ckpt.config.clip_c)
        rewrites = [
            rewrite_documents(Autoencoder.from_checkpoint(c), ds.train, privacy, seed=2, split_name="train")
            for c in (ckpt, loaded)
        ]
        assert rewrites[0] == rewrites[1]
