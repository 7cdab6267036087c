"""Dense float64 numeric core: deterministic RNG streams, the one sigmoid,
GRU cell, softmax and row-wise l1 clip that the tape, inference, the
classifier and the privacy mechanism share, a reverse-mode tape, and an
Adam optimizer.

Values are plain numpy float64 arrays. Every tape operation validates
shapes and rejects non-finite results, so a diverging training run fails
at the op that produced the bad value instead of corrupting downstream
state. A tape is single-threaded; concurrent training requires one model
instance (and one Rng stream) per worker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
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
    stream.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed)
        self.path = _path
        self._gen = np.random.Generator(np.random.PCG64(_stream_key(self.seed, _path)))

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
    """Logistic function: 1 / (1 + e) where x >= 0, else e / (1 + e), with
    e = exp(-|x|), so exp never overflows. max(e, x >= 0) picks the
    numerator, since e <= 1. ``out``, which may be ``x``, takes the result."""
    pos = x >= 0
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    np.maximum(e, pos, out=e)
    e /= denom
    return e


def split_gru_weights(weights: Sequence[Array]) -> tuple[Array, Array, tuple[Array, Array, Array]]:
    """Split one side's (wz, bz, wr, br, wh, bh), each w of shape (E + H, H)
    with the x rows first, into the input side ``wx`` (E, 3H) and ``b``
    (3H,), taken as one projection of all steps, and the hidden-side rows
    ``u`` = (wz[E:], wr[E:], wh[E:]), views that ``gru_cell`` applies per
    step."""
    wz, bz, wr, br, wh, bh = weights
    e = wz.shape[0] - wz.shape[1]
    wx = np.concatenate([wz[:e], wr[:e], wh[:e]], axis=1)
    return wx, np.concatenate([bz, br, bh]), (wz[e:], wr[e:], wh[e:])


def gru_cell(xp: Array, h: Array, u: tuple[Array, Array, Array]) -> tuple[Array, tuple]:
    """One GRU step (Cho et al. 2014) over a batch of rows, hidden side only.

    ``xp`` is the step's input projection x wx + b and ``u`` the hidden
    rows (``split_gru_weights``), with the z, r and candidate blocks side
    by side: [z, r] = sigmoid(xp[:, :2H] + [h u_z, h u_r]),
    cand = tanh(xp[:, 2H:] + (r * h) u_h), h' = (1 - z) * h + z * cand.
    Returns h' and the intermediates ``gru_cell_vjp`` needs.
    """
    u_z, u_r, u_h = u
    hd = h.shape[1]
    zr = np.empty((h.shape[0], 2 * hd))
    np.matmul(h, u_z, out=zr[:, :hd])
    np.matmul(h, u_r, out=zr[:, hd:])
    zr += xp[:, : 2 * hd]
    sigmoid(zr, out=zr)
    z = zr[:, :hd]
    rh = zr[:, hd:] * h
    cand = rh @ u_h
    cand += xp[:, 2 * hd :]
    np.tanh(cand, out=cand)
    h_new = 1.0 - z
    h_new *= h
    h_new += z * cand
    return h_new, (zr, rh, cand)


def gru_cell_vjp(g: Array, h: Array, u_zr: Array, u_h: Array, cache: tuple, da: Array) -> Array:
    """Backward of one ``gru_cell`` step for output gradient ``g``; ``u_zr``
    is [u_z, u_r] side by side (H, 2H), so the z and r terms of dh are one
    GEMM.

    Writes the gradient at the step's pre-activations, which is also the
    gradient of its input projection, into ``da`` (B, 3H) and returns the
    gradient of ``h``. The weight gradients are sums over steps of outer
    products with ``da``, left to the caller."""
    zr, rh, cand = cache
    hd = h.shape[1]
    z, r = zr[:, :hd], zr[:, hd:]
    da_zr, da_h = da[:, : 2 * hd], da[:, 2 * hd :]
    np.multiply(g, z, out=da_h)
    da_h *= 1.0 - cand * cand
    d_rh = da_h @ u_h.T
    np.subtract(cand, h, out=da_zr[:, :hd])
    da_zr[:, :hd] *= g
    np.multiply(d_rh, h, out=da_zr[:, hd:])
    da_zr *= zr * (1.0 - zr)  # sigmoid' = s (1 - s), z and r at once
    dh = 1.0 - z
    dh *= g
    dh += d_rh * r
    dh += da_zr @ u_zr.T
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
# Reverse-mode tape


@dataclass
class Node:
    """One value on the tape plus everything backward() needs.

    ``vjps[i]`` maps the gradient at this node to the contribution for
    ``parents[i]``; gradients accumulate additively across consumers.
    """

    value: Array
    parents: tuple = ()
    vjps: tuple = ()
    name: str = ""
    grad: Array | None = field(default=None, repr=False)

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Records a computation graph; op nodes are appended after their
    inputs, so reversing creation order is a reverse topological order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._backward_done = False

    # -- construction ------------------------------------------------------

    def _push(self, value: Array, parents: tuple = (), vjps: tuple = (), name: str = "") -> Node:
        value = as_f64(value)
        require_finite(value, name)
        node = Node(value=value, parents=parents, vjps=vjps, name=name)
        self.nodes.append(node)
        return node

    def leaf(self, value, name: str = "") -> Node:
        """Register an input or parameter value. Leaves are checked but not
        recorded: backward() reaches them through the ops that use them."""
        name = name or "leaf"
        value = as_f64(value)
        require_finite(value, name)
        return Node(value=value, name=name)

    # -- primitives --------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        return self._push(
            a.value @ b.value,
            parents=(a, b),
            vjps=(lambda g: g @ b.value.T, lambda g: a.value.T @ g),
            name="matmul",
        )

    def add(self, a: Node, b: Node) -> Node:
        """Elementwise add; also accepts a 1-D bias broadcast over the rows
        of a 2-D left operand."""
        if a.shape == b.shape:
            return self._push(
                a.value + b.value, parents=(a, b), vjps=(lambda g: g, lambda g: g), name="add"
            )
        if a.value.ndim == 2 and b.value.ndim == 1 and a.shape[1] == b.shape[0]:
            return self._push(
                a.value + b.value,
                parents=(a, b),
                vjps=(lambda g: g, lambda g: g.sum(axis=0)),
                name="add",
            )
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")

    def row_select(self, table: Node, ids) -> Node:
        """Embedding lookup: rows of ``table`` at integer ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        if table.value.ndim != 2 or ids.ndim != 1:
            raise ValueError("row_select expects a 2-D table and 1-D ids")
        if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
            raise ValueError("row_select id out of range")

        def vjp(g):
            out = np.zeros_like(table.value)
            np.add.at(out, ids, g)
            return out

        return self._push(table.value[ids], parents=(table,), vjps=(vjp,), name="row_select")

    def clip_rows_l1(self, a: Node, c: float) -> Node:
        """Row-wise l1 clip (``clip_rows_l1`` above) as a tape op."""
        x = a.value
        out, norms, scale = clip_rows_l1(x, c)
        over = norms > c

        def vjp(g):
            grad = g * scale[:, None]
            if over.any():
                # clipped rows: d(s*x)/dx has a rank-one correction along sign(x)
                dot = (g[over] * x[over]).sum(axis=1)
                grad[over] -= (scale[over] * dot / norms[over])[:, None] * np.sign(x[over])
            return grad

        return self._push(out, parents=(a,), vjps=(vjp,), name="clip_rows_l1")

    def gru_pass(
        self, x: Node, h0: Node, weights: Sequence[Node], mask=None, all_states: bool = False
    ) -> Node:
        """A GRU run over T steps as one node.

        ``x`` holds every step's input, time-major (T * B, E); ``h0`` is the
        (B, H) initial state and ``weights`` the (wz, bz, wr, br, wh, bh)
        nodes. One GEMM projects all T * B inputs, then ``gru_cell`` runs
        the hidden side step by step. Where the constant (T, B) ``mask`` is
        False a row keeps its state (padding). The value is the final state,
        or with ``all_states`` every step's state, time-major (T * B, H);
        every state is checked for non-finite values either way.

        The VJP runs once, and only if backward() reaches the node: back
        through the steps with ``gru_cell_vjp``, then one GEMM each for the
        input-side and both hidden-side weight gradients and for dx, over
        all T * B rows.
        """
        if x.value.ndim != 2 or h0.value.ndim != 2 or x.shape[0] % h0.shape[0]:
            raise ValueError(f"gru_pass expects (T*B, E) and (B, H) inputs, got {x.shape}, {h0.shape}")
        (b, hd), e = h0.shape, x.shape[1]
        steps = x.shape[0] // b
        if [w.shape for w in weights] != [(e + hd, hd), (hd,)] * 3:
            raise ValueError("gru_pass weight shapes do not match the inputs")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (steps, b):
                raise ValueError(f"gru_pass mask must be (T, B) = {(steps, b)}, got {mask.shape}")
        wx, bias, u = split_gru_weights([w.value for w in weights])
        xp = x.value @ wx
        xp += bias
        xp = xp.reshape(steps, b, 3 * hd)
        hs = np.empty((steps + 1, b, hd))  # hs[t] enters step t
        hs[0] = h0.value
        caches = []
        for t in range(steps):
            h_new, cache = gru_cell(xp[t], hs[t], u)
            hs[t + 1] = h_new if mask is None else np.where(mask[t][:, None], h_new, hs[t])
            caches.append(cache)
        require_finite(hs[1:], "gru_pass")
        grads: list = []

        def backward(g):
            u_zr = np.concatenate(u[:2], axis=1)
            g_steps = g.reshape(steps, b, hd) if all_states else None
            da = np.empty((steps, b, 3 * hd))
            dh = np.zeros((b, hd)) if all_states else g
            for t in reversed(range(steps)):
                if all_states:
                    dh = dh + g_steps[t]
                if mask is None:
                    dh = gru_cell_vjp(dh, hs[t], u_zr, u[2], caches[t], da[t])
                else:
                    keep = mask[t][:, None]
                    dh = gru_cell_vjp(dh * keep, hs[t], u_zr, u[2], caches[t], da[t]) + dh * ~keep
            da = da.reshape(steps * b, 3 * hd)
            dwx = x.value.T @ da
            db = da.sum(axis=0)
            du_zr = hs[:-1].reshape(steps * b, hd).T @ da[:, : 2 * hd]
            du_h = np.concatenate([c[1] for c in caches]).T @ da[:, 2 * hd :]
            grads.extend([da @ wx.T, dh])
            for k, du in enumerate((du_zr[:, :hd], du_zr[:, hd:], du_h)):
                cols = slice(k * hd, (k + 1) * hd)
                grads.extend([np.concatenate([dwx[:, cols], du]), db[cols]])

        def part(i):
            def vjp(g):
                if not grads:
                    backward(g)
                return grads[i]

            return vjp

        parents = (x, h0, *weights)
        return self._push(
            hs[1:].reshape(steps * b, hd) if all_states else hs[-1],
            parents=parents,
            vjps=tuple(part(i) for i in range(len(parents))),
            name="gru_pass",
        )

    def softmax_cross_entropy(self, logits: Node, targets, ignore_id: int) -> Node:
        """Mean cross-entropy over rows whose target differs from ignore_id.

        Returns a scalar node; raises if every row is ignored.
        """
        targets = np.asarray(targets, dtype=np.int64)
        z = logits.value
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
        picked = z[np.arange(z.shape[0]), np.where(valid, targets, 0)]
        losses = log_z - picked
        loss = losses[valid].sum() / count

        def vjp(g):
            grad = probs.copy()
            grad[np.arange(z.shape[0]), np.where(valid, targets, 0)] -= 1.0
            grad[~valid] = 0.0
            return grad * (float(g) / count)

        return self._push(np.float64(loss), parents=(logits,), vjps=(vjp,), name="softmax_cross_entropy")

    # -- reverse pass ------------------------------------------------------

    def backward(self, loss: Node) -> None:
        """Accumulate d(loss)/d(node) into .grad for every reachable node.

        Visits nodes in reverse creation order (a reverse topological
        order) exactly once. A tape supports a single backward pass.
        """
        if self._backward_done:
            raise RuntimeError("backward already ran on this tape; build a fresh tape")
        if loss.value.shape != ():
            raise ValueError("backward requires a scalar loss node")
        loss.grad = np.float64(1.0)
        for node in reversed(self.nodes):
            if node.grad is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                contribution = vjp(node.grad)
                if parent.grad is None:
                    parent.grad = np.array(contribution, dtype=np.float64)
                else:
                    parent.grad = parent.grad + contribution
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


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    ok: bool


def finite_difference_check(
    build: Callable[[Tape, dict[str, Node]], Node],
    params: dict[str, Array],
    rtol: float = 1e-4,
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    ``build`` constructs a scalar loss node from leaf nodes for ``params``
    on the given tape; it must be deterministic. The relative error for an
    entry is |g - fd| / max(|g|, |fd|), treated as 0 when both are tiny.
    """

    def evaluate(values: dict[str, Array]) -> float:
        tape = Tape()
        leaves = {k: tape.leaf(v, name=k) for k, v in values.items()}
        return float(build(tape, leaves).value)

    tape = Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    loss = build(tape, leaves)
    tape.backward(loss)
    grads = {
        k: (leaves[k].grad if leaves[k].grad is not None else np.zeros_like(params[k]))
        for k in params
    }

    worst = 0.0
    worst_param = ""
    probe = {k: v.copy() for k, v in params.items()}
    for k, p in probe.items():
        flat = p.reshape(-1)
        gflat = np.asarray(grads[k]).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = evaluate(probe)
            flat[i] = orig - step
            lo = evaluate(probe)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(fd))
            rel = 0.0 if denom < 1e-6 else abs(gflat[i] - fd) / denom
            if rel > worst:
                worst = rel
                worst_param = k
    return GradCheckReport(max_rel_error=worst, worst_param=worst_param, ok=worst < rtol)
