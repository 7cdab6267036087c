"""Recurrent sequence autoencoder: token sequence -> latent vector -> text.

A single-layer gated recurrent encoder compresses a sentence into its final
hidden state. That one vector is the only channel into the decoder (it
becomes the decoder's initial hidden state), so privatizing it privatizes
the rewrite. During pre-training the latent is l1-clipped exactly as it
will be at rewrite time, but no noise is added; that asymmetry is the leak
channel the case study exposes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    SPECIAL_TOKENS,
    LabeledDataset,
    Vocabulary,
    build_vocabulary,
    encode,
)
from .numcore import (
    AdamState, Array, NonFiniteError, Rng, Tape, adam_step, clip_rows_l1, clip_rows_l1_vjp,
    gru_cell, gru_pass, require_finite, softmax_cross_entropy, split_gru_weights,
)

__all__ = [
    "AutoencoderConfig",
    "Autoencoder",
    "AutoencoderCheckpoint",
    "pretrain",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "CheckpointVersionError",
    "CheckpointCorruptError",
    "CheckpointShapeError",
]

CHECKPOINT_MAGIC = b"DPRW1"


@dataclass(frozen=True)
class AutoencoderConfig:
    """Architecture and pre-training hyperparameters.

    vocab_size 0 means "infer from the training split" and is only legal
    as input to pretrain; a constructed model always has the real size.
    """

    vocab_size: int = 0
    embed_dim: int = 64
    hidden_dim: int = 128
    max_len: int = 20
    epochs: int = 200
    learning_rate: float = 0.003
    batch_size: int = 32
    clip_c: float = 5.0

    def __post_init__(self):
        if self.vocab_size < 0:
            raise ValueError("vocab_size must be non-negative")
        for name in ("embed_dim", "hidden_dim", "max_len", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if not (np.isfinite(self.clip_c) and self.clip_c > 0):
            raise ValueError("clip_c must be positive and finite")

    def to_dict(self) -> dict:
        return asdict(self)


def _parameter_shapes(config: AutoencoderConfig) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape table; also fixes checkpoint blob order."""
    v, e, h = config.vocab_size, config.embed_dim, config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {"embedding": (v, e)}
    for side in ("enc", "dec"):
        for gate in ("z", "r", "h"):
            shapes[f"{side}_w{gate}"] = (e + h, h)
            shapes[f"{side}_b{gate}"] = (h,)
    shapes["out_w"] = (h, v)
    shapes["out_b"] = (v,)
    return shapes


class CheckpointError(Exception):
    """Base for unreadable or inconsistent checkpoint files."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointCorruptError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


@dataclass
class AutoencoderCheckpoint:
    config: AutoencoderConfig
    parameters: dict[str, Array]
    vocabulary: Vocabulary
    metadata: dict = field(default_factory=dict)


def _gru_names(side: str) -> tuple[str, ...]:
    """One side's parameter names in ``split_gru_weights`` order."""
    return tuple(f"{side}_{name}" for name in ("wz", "bz", "wr", "br", "wh", "bh"))


class Autoencoder:
    """Encoder/decoder pair sharing one embedding table.

    Training and inference run the same GRU step, ``numcore.gru_cell``:
    the training passes, ``numcore.gru_pass``, step with it. A constructed
    model holds float64 parameters, so inference runs in float64; ``pretrain``
    narrows its model's parameters to float32 for training. Inference
    takes each token's input projection from a per-side (V, 3H) table, the
    embedding projected once, and the hidden side from the split weights
    (u_zr, u_h), u_zr a (H, 2H) copy; the tables and split weights are
    built on first use and dropped by ``train_step``, so code that edits
    ``parameters`` in place some other way must build a new model before
    running inference. The inference loops make as few numpy calls per
    step as they can, since most rewrite requests carry one document and
    a call costs about the same at any size there.
    """

    def __init__(
        self,
        config: AutoencoderConfig,
        vocabulary: Vocabulary,
        parameters: dict[str, Array] | None = None,
        rng: Rng | None = None,
    ):
        if config.vocab_size != len(vocabulary):
            raise ValueError(
                f"config.vocab_size {config.vocab_size} != vocabulary size {len(vocabulary)}"
            )
        self.config = config
        self.vocabulary = vocabulary
        shapes = _parameter_shapes(config)
        if parameters is not None:
            for name, shape in shapes.items():
                if name not in parameters or parameters[name].shape != shape:
                    raise ValueError(f"parameter {name!r} missing or wrong shape")
            self.parameters = {k: np.asarray(parameters[k], dtype=np.float64) for k in shapes}
        else:
            if rng is None:
                raise ValueError("either parameters or an init rng is required")
            self.parameters = self._init_parameters(shapes, rng)
        self._inference: dict[str, tuple] = {}

    @staticmethod
    def _init_parameters(shapes: dict[str, tuple[int, ...]], rng: Rng) -> dict[str, Array]:
        params: dict[str, Array] = {}
        for name, shape in shapes.items():
            if name.endswith(("_bz", "_br", "_bh")) or name == "out_b":
                params[name] = np.zeros(shape)
            elif name == "embedding":
                params[name] = rng.derive("init", name).normal(0.0, 0.1, shape)
            else:
                fan_in = shape[0]
                scale = 1.0 / np.sqrt(fan_in)
                params[name] = rng.derive("init", name).normal(0.0, scale, shape)
        return params

    @classmethod
    def from_checkpoint(cls, ckpt: AutoencoderCheckpoint) -> "Autoencoder":
        return cls(ckpt.config, ckpt.vocabulary, parameters=ckpt.parameters)

    def to_checkpoint(self, metadata: dict | None = None) -> AutoencoderCheckpoint:
        """A copy of the parameters, widened to float64 (exact from float32)."""
        return AutoencoderCheckpoint(
            config=self.config,
            parameters={k: v.astype(np.float64) for k, v in self.parameters.items()},
            vocabulary=self.vocabulary,
            metadata=dict(metadata or {}),
        )

    # -- inference ----------------------------------------------------------

    def _gru_inference(self, side: str) -> tuple[Array, tuple]:
        """One side's (V, 3H) input projection of every token, and its
        hidden-side rows."""
        if side not in self._inference:
            wx, bias, u = split_gru_weights([self.parameters[k] for k in _gru_names(side)])
            self._inference[side] = (self.parameters["embedding"] @ wx + bias, u)
        return self._inference[side]

    def encode_batch(self, ids: Array) -> Array:
        """Final encoder hidden states for a padded (B, T) id matrix.

        The hidden state freezes on PAD steps so padding never moves it;
        the freeze is applied only at steps where some row holds PAD.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise ValueError("ids must be a non-empty (batch, time) matrix")
        keep = ids.T != PAD_ID
        partial = (~keep.all(axis=1)).tolist()
        h = np.zeros((ids.shape[0], self.config.hidden_dim))
        table, u = self._gru_inference("enc")
        for step, step_keep, pad in zip(ids.T, keep, partial):
            h_new = gru_cell(table[step], h, u)[0]  # no cache kept across steps: peak memory
            h = np.where(step_keep[:, None], h_new, h) if pad else h_new
        return h

    def decode_greedy_batch(self, latents: Array) -> list[list[int]]:
        """Greedy decode each latent: SOS start, argmax steps, stop at EOS.

        Every output is bracketed as [SOS, ...content..., EOS]; EOS is
        forced when the content budget, ``config.max_len``, runs out. A row
        that has emitted EOS keeps stepping until every row has, and what
        it emits after its first EOS is dropped: each GEMM row depends only
        on its own inputs and the batch shape never changes, so the other
        rows' outputs are the ones a frozen row would leave them.
        """
        latents = np.asarray(latents)
        if latents.ndim != 2 or latents.shape[1] != self.config.hidden_dim:
            raise ValueError("latents must be (batch, hidden_dim)")
        limit = self.config.max_len
        h = latents
        table, u = self._gru_inference("dec")
        out_w, out_b = self.parameters["out_w"], self.parameters["out_b"]
        tokens = np.full(latents.shape[0], SOS_ID, dtype=np.int64)
        done = np.zeros(latents.shape[0], dtype=bool)
        emitted = []
        for _ in range(limit + 1):  # +1 so EOS can follow a full-budget output
            h = gru_cell(table[tokens], h, u)[0]
            logits = h @ out_w
            logits += out_b
            tokens = logits.argmax(axis=1)
            emitted.append(tokens)
            done |= tokens == EOS_ID
            if done.all():
                break
        rows = np.stack(emitted, axis=1).tolist() if emitted else [[] for _ in latents]
        return [
            [SOS_ID] + (row[: row.index(EOS_ID)] if EOS_ID in row else row)[:limit] + [EOS_ID]
            for row in rows
        ]

    # -- training -----------------------------------------------------------

    def build_loss(self, tape: Tape, params: dict[str, Array], batch: Array) -> tuple[Array, dict[str, Array]]:
        """Teacher-forced reconstruction loss for a padded (B, T) batch, and
        the gradient dict that ``tape.backward`` fills.

        Every row must hold at least two ids, with PAD only as a suffix.
        The rows are sorted by length, longest first and stably, so each
        step of a pass runs only the prefix of rows still in their
        sentence; the loss, a mean over every real target, does not depend
        on the row order. Both passes take their input rows from the
        batch's distinct tokens. Five steps, each recorded with its
        backward: the encoder pass, which ends each row at its last real
        token, the clip of its final states, which are the latents, the
        decoder pass from the latent over the inputs, stepping only rows
        whose next target is real, the output layer over those steps, and
        the cross-entropy against their targets. The embedding's gradient
        is the decoder's plus the encoder's, the order reverse mode adds
        them in.
        """
        for name, value in params.items():
            require_finite(value, name)
        batch = np.asarray(batch, dtype=np.int64)
        table = params["embedding"]
        if batch.min() < 0 or batch.max() >= table.shape[0]:
            raise ValueError(f"token id out of range for a vocabulary of {table.shape[0]}")
        real = batch != PAD_ID
        lengths = real.sum(axis=1)
        if not np.array_equal(real, np.arange(batch.shape[1]) < lengths[:, None]):
            raise ValueError("batch rows must hold PAD only as a suffix")
        if lengths.min() < 2:
            raise ValueError("every batch row needs at least two ids (SOS and EOS)")
        order = np.argsort(-lengths, kind="stable")
        steps = batch[order, : lengths.max()].T  # (T, B), rows longest first
        active = np.count_nonzero(lengths > np.arange(steps.shape[0])[:, None], axis=1).tolist()
        uniq, inv = np.unique(steps.reshape(-1), return_inverse=True)
        x = table[uniq]
        grads: dict[str, Array] = {}

        h0 = np.zeros((steps.shape[1], self.config.hidden_dim), dtype=table.dtype)
        enc_names = _gru_names("enc")
        final, enc_backward = gru_pass(x, inv, h0, [params[k] for k in enc_names], active)

        def encoder(g):
            dx, _, dweights = enc_backward(g)
            grads.update(zip(enc_names, dweights))
            grads["embedding"][uniq] += dx

        tape.record("encoder", encoder)

        clip_c = self.config.clip_c
        latent, norms, scale = clip_rows_l1(final, clip_c)
        tape.record("clip", lambda g: clip_rows_l1_vjp(g, final, clip_c, norms, scale))

        dec_names = _gru_names("dec")
        dec_active = active[1:]  # a row steps while its next target is real
        dec_weights = [params[k] for k in dec_names]
        states, dec_backward = gru_pass(x, inv[: -steps.shape[1]], latent, dec_weights, dec_active, all_states=True)

        def decoder(g):
            dx, dlatent, dweights = dec_backward(g)
            grads.update(zip(dec_names, dweights))
            grads["embedding"] = np.zeros_like(table)
            grads["embedding"][uniq] = dx
            return dlatent

        tape.record("decoder", decoder)

        out_w = params["out_w"]
        logits = states @ out_w
        logits += params["out_b"]
        require_finite(logits, "output layer")

        def output(g):
            grads["out_w"] = states.T @ g
            grads["out_b"] = g.sum(axis=0)
            return g @ out_w.T

        tape.record("output", output)

        targets = np.concatenate([steps[t + 1, :n] for t, n in enumerate(dec_active)])
        loss, ce_backward = softmax_cross_entropy(logits, targets, ignore_id=PAD_ID)
        tape.record("cross_entropy", ce_backward)
        return loss, grads

    def train_step(self, batch: Array, opt_state: AdamState) -> float:
        """One teacher-forced batch: forward, backward, Adam update."""
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[0] == 0 or batch.shape[1] < 2:
            raise ValueError("batch must be (B, T) with T >= 2")
        tape = Tape()
        loss, grads = self.build_loss(tape, self.parameters, batch)
        tape.backward(np.ones((), loss.dtype))
        adam_step(self.parameters, grads, self.config.learning_rate, opt_state)
        self._inference.clear()
        return float(loss)


def pad_batch(sequences: list[list[int]]) -> Array:
    """Stack id sequences into a (B, T_max) matrix, PAD on the right."""
    if not sequences:
        raise ValueError("empty batch")
    t_max = max(len(s) for s in sequences)
    out = np.full((len(sequences), t_max), PAD_ID, dtype=np.int64)
    for i, seq in enumerate(sequences):
        out[i, : len(seq)] = seq
    return out


def pretrain(
    dataset: LabeledDataset, config: AutoencoderConfig, seed: int
) -> AutoencoderCheckpoint:
    """Train the autoencoder on reconstruction over the training split.

    Clipping is live during pre-training; noise never is. Training runs in
    float32: the float64 init draws are rounded once, and the parameters
    and Adam moments stay float32; the checkpoint holds them widened to
    float64. All randomness (init, shuffling) flows from the seed, so the
    checkpoint is a pure function of (dataset, config, seed).
    """
    if not dataset.train:
        raise ValueError("training split is empty")
    vocab = build_vocabulary(dataset.train)
    if config.vocab_size == 0:
        config = replace(config, vocab_size=len(vocab))
    elif config.vocab_size != len(vocab):
        raise ValueError(
            f"config.vocab_size {config.vocab_size} != training vocabulary {len(vocab)}"
        )
    rng = Rng(seed)
    model = Autoencoder(config, vocab, rng=rng.derive("autoencoder"))
    model.parameters = {k: v.astype(np.float32) for k, v in model.parameters.items()}
    encoded = [encode(doc, vocab, config.max_len) for doc in dataset.train]
    opt = AdamState.init(model.parameters)
    shuffle = rng.derive("shuffle")
    final_loss = None
    for epoch in range(config.epochs):
        order = shuffle.derive(epoch).permutation(len(encoded))
        losses = []
        for start in range(0, len(order), config.batch_size):
            chunk = order[start : start + config.batch_size]
            batch = pad_batch([encoded[i] for i in chunk])
            try:
                losses.append(model.train_step(batch, opt))
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"pre-training seed {seed}, epoch {epoch}, batch {start // config.batch_size}: {exc}"
                ) from exc
        final_loss = float(np.mean(losses))
    return model.to_checkpoint(
        {"epochs_completed": config.epochs, "final_loss": final_loss, "seed": seed}
    )


# -- checkpoint serialization -------------------------------------------------
# Layout: 5-byte magic, uint64 LE header length, UTF-8 JSON header, then
# float64 LE parameter blobs in the header's listed order.


def save_checkpoint(ckpt: AutoencoderCheckpoint, path: str | Path) -> None:
    shapes = _parameter_shapes(ckpt.config)
    for name, shape in shapes.items():
        if name not in ckpt.parameters or ckpt.parameters[name].shape != shape:
            raise CheckpointShapeError(f"parameter {name!r} missing or wrong shape")
        if not np.all(np.isfinite(ckpt.parameters[name])):
            raise CheckpointCorruptError(f"parameter {name!r} holds non-finite values")
    if len(ckpt.vocabulary) != ckpt.config.vocab_size:
        raise CheckpointShapeError(
            f"vocabulary size {len(ckpt.vocabulary)} != config vocab_size {ckpt.config.vocab_size}"
        )
    header = {
        "config": ckpt.config.to_dict(),
        "vocabulary": ckpt.vocabulary.id_to_token,
        "metadata": ckpt.metadata,
        "parameters": [[name, list(shape)] for name, shape in shapes.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name in shapes:
            blob = np.ascontiguousarray(ckpt.parameters[name], dtype="<f8")
            fh.write(blob.tobytes())


def load_checkpoint(path: str | Path) -> AutoencoderCheckpoint:
    """Read and verify a checkpoint file; every refusal is a
    ``CheckpointError`` whose message names ``path``."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointCorruptError(f"checkpoint {path}: cannot read it: {exc.strerror}") from None
    try:
        return _decode_checkpoint(raw)
    except CheckpointError as exc:
        raise type(exc)(f"checkpoint {path}: {exc}") from None


def _decode_checkpoint(raw: bytes) -> AutoencoderCheckpoint:
    if len(raw) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointCorruptError("file too short for a checkpoint")
    magic = raw[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        if magic[:4] == CHECKPOINT_MAGIC[:4]:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {magic!r}, expected {CHECKPOINT_MAGIC!r}"
            )
        raise CheckpointCorruptError("bad magic; not a checkpoint file")
    offset = len(CHECKPOINT_MAGIC)
    (header_len,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    if offset + header_len > len(raw):
        raise CheckpointCorruptError("truncated header")
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointCorruptError(f"unreadable header: {exc}") from None
    offset += header_len
    if not isinstance(header, dict) or set(header) != {"config", "vocabulary", "metadata", "parameters"}:
        raise CheckpointCorruptError("header must be an object with config, vocabulary, metadata and parameters")
    config = _header_config(header["config"])
    tokens, metadata = header["vocabulary"], header["metadata"]
    if not isinstance(metadata, dict):
        raise CheckpointCorruptError("header metadata must be an object")
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise CheckpointCorruptError("header vocabulary must be a list of strings")
    if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS or len(set(tokens)) != len(tokens):
        raise CheckpointCorruptError("header vocabulary must be distinct tokens after the special tokens")
    if len(tokens) != config.vocab_size:
        raise CheckpointShapeError(
            f"vocabulary size {len(tokens)} != config vocab_size {config.vocab_size}"
        )
    shapes = _parameter_shapes(config)
    if header["parameters"] != [[name, list(shape)] for name, shape in shapes.items()]:
        raise CheckpointShapeError("parameter table does not match config")

    parameters: dict[str, Array] = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise CheckpointCorruptError(f"truncated blob for parameter {name!r}")
        blob = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        if not np.all(np.isfinite(blob)):
            raise CheckpointCorruptError(f"parameter {name!r} holds non-finite values")
        parameters[name] = blob.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointCorruptError("trailing bytes after final parameter blob")
    vocabulary = Vocabulary(
        id_to_token=list(tokens),
        token_to_id={tok: i for i, tok in enumerate(tokens)},
    )
    return AutoencoderCheckpoint(
        config=config, parameters=parameters, vocabulary=vocabulary, metadata=metadata
    )


def _header_config(values) -> AutoencoderConfig:
    """The header's config object: every field, each of its default's type
    (an int also for a float field, never a bool), and valid."""
    defaults = AutoencoderConfig().to_dict()
    if not isinstance(values, dict) or set(values) != set(defaults):
        raise CheckpointCorruptError(f"header config must have exactly the fields {sorted(defaults)}")
    for key, value in values.items():
        kinds = (int, float) if isinstance(defaults[key], float) else int
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise CheckpointCorruptError(f"header config {key!r} has the wrong type: {value!r}")
    try:
        return AutoencoderConfig(**values)
    except ValueError as exc:
        raise CheckpointCorruptError(f"header config: {exc}") from None
