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
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import EOS_ID, PAD_ID, SOS_ID, LabeledDataset, Vocabulary, build_vocabulary, encode
from .numcore import AdamState, Array, NonFiniteError, Rng, Tape, adam_step, gru_cell, split_gru_weights

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
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
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


def _gru_weights(params: dict, side: str) -> tuple:
    """One side's (wz, bz, wr, br, wh, bh) in ``split_gru_weights`` order;
    the values are arrays for inference and tape nodes for training."""
    return tuple(params[f"{side}_{name}"] for name in ("wz", "bz", "wr", "br", "wh", "bh"))


class Autoencoder:
    """Encoder/decoder pair sharing one embedding table.

    Training and inference run the same GRU step, ``numcore.gru_cell``:
    the tape's ``gru_pass`` op uses it as its forward. Inference takes each
    token's input projection from a per-side (V, 3H) table, the embedding
    projected once; the tables and split weights are built on first use and
    dropped by ``train_step``, so code that edits ``parameters`` in place
    some other way must build a new model before running inference.
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
        return AutoencoderCheckpoint(
            config=self.config,
            parameters={k: v.copy() for k, v in self.parameters.items()},
            vocabulary=self.vocabulary,
            metadata=dict(metadata or {}),
        )

    # -- inference ----------------------------------------------------------

    def _gru_inference(self, side: str) -> tuple[Array, tuple]:
        """One side's (V, 3H) input projection of every token, and its
        hidden-side rows."""
        if side not in self._inference:
            wx, bias, u = split_gru_weights(_gru_weights(self.parameters, side))
            self._inference[side] = (self.parameters["embedding"] @ wx + bias, u)
        return self._inference[side]

    def encode_batch(self, ids: Array) -> Array:
        """Final encoder hidden states for a padded (B, T) id matrix.

        The hidden state freezes on PAD steps so padding never moves it.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise ValueError("ids must be a non-empty (batch, time) matrix")
        h = np.zeros((ids.shape[0], self.config.hidden_dim))
        table, u = self._gru_inference("enc")
        for step in ids.T:
            h_new = gru_cell(table[step], h, u)[0]  # no cache kept across steps: peak memory
            h = np.where((step != PAD_ID)[:, None], h_new, h)
        return h

    def decode_greedy_batch(self, latents: Array, max_len: int | None = None) -> list[list[int]]:
        """Greedy decode each latent: SOS start, argmax steps, stop at EOS.

        Every output is bracketed as [SOS, ...content..., EOS]; EOS is
        forced when the content budget runs out.
        """
        latents = np.asarray(latents)
        if latents.ndim != 2 or latents.shape[1] != self.config.hidden_dim:
            raise ValueError("latents must be (batch, hidden_dim)")
        limit = self.config.max_len if max_len is None else max_len
        b = latents.shape[0]
        h = latents.copy()
        table, u = self._gru_inference("dec")
        tokens = np.full(b, SOS_ID, dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        eos_step = np.full(b, -1)
        emitted = []
        for step_i in range(limit + 1):  # +1 so EOS can follow a full-budget output
            if done.all():
                break
            h = np.where(done[:, None], h, gru_cell(table[tokens], h, u)[0])
            logits = h @ self.parameters["out_w"] + self.parameters["out_b"]
            nxt = np.argmax(logits, axis=1)
            emitted.append(np.where(done, PAD_ID, nxt))
            newly_done = ~done & (nxt == EOS_ID)
            eos_step[newly_done] = step_i
            done |= newly_done
            tokens = np.where(done, tokens, nxt)
        grid = np.stack(emitted, axis=1) if emitted else np.zeros((b, 0), dtype=np.int64)
        out: list[list[int]] = []
        for i in range(b):
            end = eos_step[i] if eos_step[i] >= 0 else grid.shape[1]
            content = [int(t) for t in grid[i, :end]][:limit]
            out.append([SOS_ID] + content + [EOS_ID])
        return out

    # -- training -----------------------------------------------------------

    def build_loss(self, tape: Tape, leaves: dict, batch: Array):
        """Teacher-forced reconstruction loss for a padded (B, T) batch.

        The clipped latent is the decoder's initial hidden state; targets
        are the inputs shifted left one step, PAD positions ignored. Each
        GRU pass is one tape node over time-major rows.
        """
        steps = np.asarray(batch).T  # (T, B)
        h0 = tape.leaf(np.zeros((steps.shape[1], self.config.hidden_dim)), name="h0")
        x = tape.row_select(leaves["embedding"], steps.reshape(-1))
        final = tape.gru_pass(x, h0, _gru_weights(leaves, "enc"), mask=steps != PAD_ID)
        latent = tape.clip_rows_l1(final, self.config.clip_c)

        x = tape.row_select(leaves["embedding"], steps[:-1].reshape(-1))
        states = tape.gru_pass(x, latent, _gru_weights(leaves, "dec"), all_states=True)
        logits = tape.add(tape.matmul(states, leaves["out_w"]), leaves["out_b"])
        return tape.softmax_cross_entropy(logits, steps[1:].reshape(-1), ignore_id=PAD_ID)

    def train_step(self, batch: Array, opt_state: AdamState) -> float:
        """One teacher-forced batch: forward, backward, Adam update."""
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[0] == 0 or batch.shape[1] < 2:
            raise ValueError("batch must be (B, T) with T >= 2")
        tape = Tape()
        leaves = {k: tape.leaf(v, name=k) for k, v in self.parameters.items()}
        loss = self.build_loss(tape, leaves, batch)
        tape.backward(loss)
        grads = {
            k: (leaves[k].grad if leaves[k].grad is not None else np.zeros_like(self.parameters[k]))
            for k in self.parameters
        }
        adam_step(self.parameters, grads, self.config.learning_rate, opt_state)
        self._inference.clear()
        return float(loss.value)


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

    Clipping is live during pre-training; noise never is. All randomness
    (init, shuffling) flows from the seed, so the checkpoint is a pure
    function of (dataset, config, seed).
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
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointCorruptError(f"cannot read checkpoint: {exc}") from exc
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
        config = AutoencoderConfig(**header["config"])
        vocab_tokens = header["vocabulary"]
        metadata = header["metadata"]
        listed = [(name, tuple(shape)) for name, shape in header["parameters"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointCorruptError(f"unreadable header: {exc}") from exc
    offset += header_len

    expected = _parameter_shapes(config)
    if dict(listed) != expected:
        raise CheckpointShapeError("parameter table does not match config")
    if len(vocab_tokens) != config.vocab_size:
        raise CheckpointShapeError(
            f"vocabulary size {len(vocab_tokens)} != config vocab_size {config.vocab_size}"
        )
    parameters: dict[str, Array] = {}
    for name, shape in listed:
        count = int(np.prod(shape)) if shape else 1
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
        id_to_token=list(vocab_tokens),
        token_to_id={tok: i for i, tok in enumerate(vocab_tokens)},
    )
    return AutoencoderCheckpoint(
        config=config, parameters=parameters, vocabulary=vocabulary, metadata=metadata
    )
