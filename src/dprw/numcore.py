"""Dense numeric core: deterministic RNG streams, the one sigmoid, GRU
cell, softmax and row-wise l1 clip that training, inference, the
classifier and the privacy mechanism share, the training passes with
their backward, and an Adam optimizer.

Values are plain numpy arrays, and every operation computes in its
inputs' precision: float32 inputs give float32 values, gradients and Adam
moments, and float64 inputs float64 ones. Pre-training uses float32;
inference, the privacy mechanism and the checkpoint blobs (``<f8``) are
float64. A training pass (``gru_pass``, ``softmax_cross_entropy``)
returns its value and a ``backward`` function; the autoencoder records
the five backward steps of its loss on a ``Tape`` and runs them in
reverse. ``gru_pass`` trains the way inference runs: it projects each
distinct input row once, as the inference tables do, and packs its
steps, running each on the prefix of rows, sorted by length, that is
still in its sentence. The passes validate shapes and reject non-finite
results, so a diverging training run fails at the pass that produced the
bad value instead of corrupting downstream state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or infinity."""


def as_f64(x) -> Array:
    """Coerce to a float64 ndarray without copying when already one."""
    return np.asarray(x, dtype=np.float64)


def require_finite(x: Array, name: str) -> None:
    """Raise ``NonFiniteError`` naming ``name`` if ``x`` holds NaN or inf."""
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"non-finite result in op {name!r}")


# ---------------------------------------------------------------------------
# Deterministic random streams


def _stream_key(seed: int, path: tuple) -> int:
    """Hash (seed, *path) into a 128-bit PCG64 seed.

    Each path element is tagged and length-prefixed so distinct paths can
    never collide by concatenation.
    """
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for key in path:
        if isinstance(key, (int, np.integer)):
            h.update(b"i")
            h.update(int(key).to_bytes(16, "little", signed=True))
        elif isinstance(key, str):
            raw = key.encode("utf-8")
            h.update(b"s")
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
        else:
            raise TypeError(f"stream keys must be int or str, got {type(key)!r}")
    return int.from_bytes(h.digest()[:16], "little")


class Rng:
    """Seeded random stream with named, order-independent substreams.

    ``Rng(seed).derive("rewrite", doc_index)`` always yields the same
    stream for the same (seed, purpose) path, regardless of which other
    streams were consumed first. Identical seed implies a bit-identical
    stream. The path is hashed (and its keys checked) at construction, but
    the generator is seeded on the first draw: seeding costs more than the
    hash, and roots and intermediate streams often only derive.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self.path = _path
        self._key = _stream_key(self.seed, _path)

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._key))

    def derive(self, *keys: int | str) -> "Rng":
        return Rng(self.seed, self.path + keys)

    def random(self, size=None):
        """Uniform float64 in [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def choice(self, seq: Sequence):
        return seq[int(self._gen.integers(0, len(seq)))]


# ---------------------------------------------------------------------------
# Shared array math


def sigmoid(x: Array, out: Array | None = None) -> Array:
    """Logistic function as 0.5 + 0.5 tanh(x / 2), four passes; tanh
    saturates instead of overflowing, so every input, infinities
    included, gives a finite value in [0, 1]. ``out``, which may be ``x``,
    takes the result."""
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def split_gru_weights(weights: Sequence[Array]) -> tuple[Array, Array, tuple[Array, Array]]:
    """Split one side's (wz, bz, wr, br, wh, bh), each w of shape (E + H, H)
    with the x rows first, into the input side ``wx`` (E, 3H) and ``b``
    (3H,), taken as one projection of all steps, and the hidden side
    ``u`` = (u_zr, u_h) that ``gru_cell`` applies per step: u_zr =
    [wz[E:], wr[E:]] side by side (H, 2H), a copy, so the z and r terms
    are one GEMM, and u_h = wh[E:], a view."""
    wz, bz, wr, br, wh, bh = weights
    e = wz.shape[0] - wz.shape[1]
    wx = np.concatenate([wz[:e], wr[:e], wh[:e]], axis=1)
    u_zr = np.concatenate([wz[e:], wr[e:]], axis=1)
    return wx, np.concatenate([bz, br, bh]), (u_zr, wh[e:])


def gru_cell(xp: Array, h: Array, u: tuple[Array, Array], out: Array | None = None) -> tuple[Array, tuple]:
    """One GRU step (Cho et al. 2014) over a batch of rows, hidden side only.

    ``xp`` is the step's input projection x wx + b and ``u`` = (u_zr, u_h)
    the hidden rows (``split_gru_weights``), with the z, r and candidate
    blocks side by side: [z, r] = sigmoid(xp[:, :2H] + h u_zr),
    cand = tanh(xp[:, 2H:] + (r * h) u_h), h' = h + z * (cand - h).
    Returns h', written into ``out`` when given (not ``h``), and the
    intermediates ``gru_cell_vjp`` needs.
    """
    u_zr, u_h = u
    hd = h.shape[1]
    zr = h @ u_zr
    zr += xp[:, : 2 * hd]
    sigmoid(zr, out=zr)
    rh = zr[:, hd:] * h
    cand = rh @ u_h
    cand += xp[:, 2 * hd :]
    np.tanh(cand, out=cand)
    h_new = np.subtract(cand, h, out=out)
    h_new *= zr[:, :hd]
    h_new += h
    return h_new, (zr, rh, cand)


def gru_cell_vjp(g: Array, h: Array, u_t: tuple[Array, Array], cache: tuple, da: Array) -> Array:
    """Backward of one ``gru_cell`` step for output gradient ``g``; ``u_t``
    holds the forward's hidden rows transposed, (u_zr.T, u_h.T), as
    contiguous copies, so the z and r terms of dh are one GEMM.

    Writes the gradient at the step's pre-activations, which is also the
    gradient of its input projection, into ``da`` (B, 3H) and returns the
    gradient of ``h``. The weight gradients are sums over steps of outer
    products with ``da``, left to the caller."""
    u_zr_t, u_h_t = u_t
    zr, rh, cand = cache
    hd = h.shape[1]
    gz = g * zr[:, :hd]
    da_zr, da_h = da[:, : 2 * hd], da[:, 2 * hd :]
    np.multiply(cand, cand, out=da_h)
    np.subtract(1.0, da_h, out=da_h)
    da_h *= gz
    d_rh = da_h @ u_h_t
    np.subtract(cand, h, out=da_zr[:, :hd])
    da_zr[:, :hd] *= g
    np.multiply(d_rh, h, out=da_zr[:, hd:])
    da_zr *= zr * (1.0 - zr)  # sigmoid' = s (1 - s), z and r at once
    dh = g - gz
    d_rh *= zr[:, hd:]
    dh += d_rh
    dh += da_zr @ u_zr_t
    return dh


def softmax(z: Array) -> tuple[Array, Array]:
    """Row-wise softmax of (M, V) logits and each row's log partition
    function; the row max is subtracted before exp."""
    zmax = z.max(axis=1, keepdims=True)
    expz = np.exp(z - zmax)
    sumexp = expz.sum(axis=1)
    return expz / sumexp[:, None], zmax[:, 0] + np.log(sumexp)


def clip_rows_l1(x: Array, c: float) -> tuple[Array, Array, Array]:
    """Rescale each row of ``x`` into the l1 ball of radius ``c``.

    Returns (x * scale[:, None], norms, scale); scale is c / ||x[i]||_1
    outside the ball (direction is kept) and exactly 1 inside, so rows
    inside pass through bit-exactly, signed zeros included.
    """
    if c <= 0:
        raise ValueError("clip radius must be positive")
    if x.ndim != 2:
        raise ValueError("clip_rows_l1 expects a 2-D input")
    norms = np.abs(x).sum(axis=1)
    scale = np.ones_like(norms)
    over = norms > c
    scale[over] = c / norms[over]
    return x * scale[:, None], norms, scale


# ---------------------------------------------------------------------------
# Training passes and their backward


def clip_rows_l1_vjp(g: Array, x: Array, c: float, norms: Array, scale: Array) -> Array:
    """Backward of ``clip_rows_l1(x, c)``, given the norms and scale it
    returned: ``g`` times the scale, and on clipped rows a rank-one
    correction along sign(x), since there the scale depends on x."""
    grad = g * scale[:, None]
    over = norms > c
    if over.any():
        dot = (g[over] * x[over]).sum(axis=1)
        grad[over] -= (scale[over] * dot / norms[over])[:, None] * np.sign(x[over])
    return grad


def gru_pass(
    x: Array, inv: Array, h0: Array, weights: Sequence[Array], active: Sequence[int], all_states: bool = False
) -> tuple[Array, Callable]:
    """A GRU run over T steps of rows sorted by length, and its backward.

    ``x`` holds the U distinct input rows (U, E) and ``inv`` (T * B,) the
    row of ``x`` each step takes, time-major; ``h0`` is the (B, H) initial
    state and ``weights`` the (wz, bz, wr, br, wh, bh) arrays. ``active``
    gives, per step, how many rows are still in their sentence: B at the
    first step and never more later, so the rows still going are always
    a prefix, and step t runs ``gru_cell`` on rows [:active[t]] only. One
    GEMM projects the U distinct rows, and each step gathers its rows of
    that projection. The value is each row's state after its last step,
    or with ``all_states`` every active row's state, packed time-major
    (sum(active), H); every state is checked for non-finite values.

    ``backward(g)``, for the value's gradient ``g``, goes back through the
    steps with ``gru_cell_vjp``; rows past their last step hold a zero
    gradient, so one GEMM over all T * B rows gives each hidden-side
    weight gradient. A one-hot (U, T * B) GEMM sums the step gradients per
    distinct row, which then gives the input-side weight gradient and dx
    (U, E). It returns (dx, dh0, [dwz, dbz, dwr, dbr, dwh, dbh]).
    """
    if x.ndim != 2 or h0.ndim != 2 or inv.ndim != 1 or inv.shape[0] % h0.shape[0]:
        raise ValueError(
            f"gru_pass expects (U, E), (T*B,) and (B, H) inputs, got {x.shape}, {inv.shape}, {h0.shape}"
        )
    (b, hd), e = h0.shape, x.shape[1]
    steps = inv.shape[0] // b
    if [w.shape for w in weights] != [(e + hd, hd), (hd,)] * 3:
        raise ValueError("gru_pass weight shapes do not match the inputs")
    active = [int(n) for n in active]
    if not steps or len(active) != steps or active[0] != b or sorted(active, reverse=True) != active or active[-1] < 0:
        raise ValueError(f"gru_pass active counts must be {steps} non-increasing values from B = {b}, got {active}")
    wx, bias, u = split_gru_weights(weights)
    proj = x @ wx
    proj += bias
    inv_steps = inv.reshape(steps, b)
    # hs[t] enters step t, rhs[t] is its r * h; rows past their end stay 0
    hs = np.zeros((steps + 1, b, hd), dtype=proj.dtype)
    hs[0] = h0
    rhs = np.zeros((steps, b, hd), dtype=proj.dtype)
    caches = []
    for t, n in enumerate(active):
        zr, rh, cand = gru_cell(proj[inv_steps[t, :n]], hs[t, :n], u, out=hs[t + 1, :n])[1]
        rhs[t, :n] = rh
        caches.append((zr, rhs[t, :n], cand))
    require_finite(hs[1:], "gru_pass")
    live = np.arange(b) < np.array(active)[:, None]  # (T, B), True where a row takes the step
    value = hs[1:][live] if all_states else hs[live.sum(axis=0), np.arange(b)]

    # The backward's buffers are made here, with the forward's: made in
    # backward, after the steps' many small arrays, they left the heap's
    # top free at every batch's end, and glibc returned and refetched it
    # (5 to 10 times the minor page faults of a pre-train).
    u_t = tuple(np.ascontiguousarray(w.T) for w in u)
    da = np.zeros((steps, b, 3 * hd), dtype=hs.dtype)

    def backward(g):
        offsets = np.cumsum([0] + active)
        dh = g[:0]  # the gradients of rows [:len(dh)] at the step's output
        for t in reversed(range(steps)):
            n, m = active[t], len(dh)
            g_t = g[offsets[t] : offsets[t + 1]] if all_states else g
            if all_states:
                dh += g_t[:m]
            if n > m:  # rows whose last step is t
                dh = np.concatenate([dh, g_t[m:n]])
            dh = gru_cell_vjp(dh, hs[t, :n], u_t, caches[t], da[t, :n])
        da_rows = da.reshape(steps * b, 3 * hd)
        onehot = np.equal.outer(np.arange(x.shape[0]), inv).astype(hs.dtype)
        dproj = onehot @ da_rows
        dwx = x.T @ dproj
        db = dproj.sum(axis=0)
        du_zr = hs[:-1].reshape(steps * b, hd).T @ da_rows[:, : 2 * hd]
        du_h = rhs.reshape(steps * b, hd).T @ da_rows[:, 2 * hd :]
        dweights = []
        for k, du in enumerate((du_zr[:, :hd], du_zr[:, hd:], du_h)):
            cols = slice(k * hd, (k + 1) * hd)
            dweights.extend([np.concatenate([dwx[:, cols], du]), db[cols]])
        return dproj @ wx.T, dh, dweights

    return value, backward


def softmax_cross_entropy(z: Array, targets, ignore_id: int) -> tuple[Array, Callable]:
    """Mean cross-entropy of (M, V) logits over the rows whose target
    differs from ``ignore_id``, and its backward, ``g`` -> d loss / d z
    times ``g``. Raises if every row is ignored or a target is out of
    range."""
    targets = np.asarray(targets, dtype=np.int64)
    if z.ndim != 2 or targets.shape != (z.shape[0],):
        raise ValueError("softmax_cross_entropy expects (M,V) logits and (M,) targets")
    valid = targets != ignore_id
    count = int(valid.sum())
    if count == 0:
        raise ValueError("softmax_cross_entropy: every target is ignored")
    checked = targets[valid]
    if checked.min() < 0 or checked.max() >= z.shape[1]:
        raise ValueError("softmax_cross_entropy target id out of range")

    probs, log_z = softmax(z)
    rows, cols = np.arange(z.shape[0]), np.where(valid, targets, 0)
    loss = (log_z - z[rows, cols])[valid].sum() / count
    require_finite(loss, "softmax_cross_entropy")

    def backward(g):
        grad = probs.copy()
        grad[rows, cols] -= 1.0
        grad[~valid] = 0.0
        return grad * (float(g) / count)

    return loss, backward


class Tape:
    """The backward steps of one training loss, in forward order.

    A step maps the gradient of its output to the gradient of its input,
    which is the output of the step recorded before it, and writes any
    parameter gradients it owns as it goes. A tape is single-threaded and
    runs backward once.
    """

    def __init__(self):
        self.nodes: list[tuple[str, Callable[[Array], Array]]] = []
        self._backward_done = False

    def record(self, name: str, step: Callable[[Array], Array]) -> None:
        self.nodes.append((name, step))

    def backward(self, g: Array) -> None:
        """Run the steps newest first, from ``g``, the loss's gradient."""
        if self._backward_done:
            raise RuntimeError("backward already ran on this tape; build a fresh tape")
        for _, step in reversed(self.nodes):
            g = step(g)
        self._backward_done = True


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter dict."""

    m: dict[str, Array]
    v: dict[str, Array]
    t: int = 0

    @classmethod
    def init(cls, params: dict[str, Array]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, Array],
    grads: dict[str, Array],
    lr: float,
    state: AdamState,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place Adam update over a named parameter dict."""
    if set(grads) != set(params) or set(state.m) != set(params):
        raise ValueError("adam_step: params/grads/state keys differ")
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ValueError(f"adam_step: gradient shape mismatch for {k!r}")
        state.m[k] = beta1 * state.m[k] + (1.0 - beta1) * g
        state.v[k] = beta2 * state.v[k] + (1.0 - beta2) * (g * g)
        mhat = state.m[k] / bc1
        vhat = state.v[k] / bc2
        p -= lr * mhat / (np.sqrt(vhat) + eps)

