"""Dense float64 numeric core: deterministic RNG streams, the one sigmoid,
GRU cell and row-wise l1 clip that the tape, inference and the privacy
mechanism share, a reverse-mode tape, and an Adam optimizer.

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


def sigmoid(x: Array) -> Array:
    """Logistic function; exp only ever sees -|x|, so it never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def gru_cell(x: Array, h: Array, weights: Sequence[Array]) -> tuple[Array, tuple]:
    """One GRU step (Cho et al. 2014) over a batch of rows.

    ``weights`` is (wz, bz, wr, br, wh, bh); with xh = [x, h]:
    z = sigmoid(xh wz + bz), r = sigmoid(xh wr + br),
    cand = tanh([x, r * h] wh + bh), h' = (1 - z) * h + z * cand.
    Returns h' and the intermediates ``gru_cell_vjp`` needs.
    """
    wz, bz, wr, br, wh, bh = weights
    xh = np.concatenate([x, h], axis=1)
    z = sigmoid(xh @ wz + bz)
    r = sigmoid(xh @ wr + br)
    xrh = np.concatenate([x, r * h], axis=1)
    cand = np.tanh(xrh @ wh + bh)
    one_minus_z = 1.0 - z
    return one_minus_z * h + z * cand, (xh, z, r, xrh, cand, one_minus_z)


def gru_cell_vjp(g: Array, h: Array, weights: Sequence[Array], cache: tuple) -> tuple:
    """Gradients of one ``gru_cell`` step for output gradient ``g``:
    (dx, dx, dh, dh, dh, dwz, dbz, dwr, dbr, dwh, dbh). x and h get one term
    per path (x: candidate, gates; h: carry, reset gate, gates), in the
    order elementwise reverse mode would sum them, so sums round the same."""
    wz, _, wr, _, wh, _ = weights
    xh, z, r, xrh, cand, one_minus_z = cache
    e = xh.shape[1] - h.shape[1]
    # d_* is at a gate's output, da_* at its pre-activation
    d_z = g * cand - g * h
    da_h = (g * z) * (1.0 - cand * cand)
    dxrh = da_h @ wh.T
    d_rh = dxrh[:, e:]
    da_r = d_rh * h * r * (1.0 - r)
    da_z = d_z * z * (1.0 - z)
    dxh = da_r @ wr.T + da_z @ wz.T
    return (
        dxrh[:, :e], dxh[:, :e],
        g * one_minus_z, d_rh * r, dxh[:, e:],
        xh.T @ da_z, da_z.sum(axis=0),
        xh.T @ da_r, da_r.sum(axis=0),
        xrh.T @ da_h, da_h.sum(axis=0),
    )


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
    """Records a computation graph; nodes are appended after their inputs,
    so reversing creation order is a reverse topological order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._backward_done = False

    # -- construction ------------------------------------------------------

    def _push(self, value: Array, parents: tuple = (), vjps: tuple = (), name: str = "") -> Node:
        value = as_f64(value)
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"non-finite result in op {name!r}")
        node = Node(value=value, parents=parents, vjps=vjps, name=name)
        self.nodes.append(node)
        return node

    def leaf(self, value, name: str = "") -> Node:
        """Register an input or parameter value."""
        return self._push(value, name=name or "leaf")

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

    def concat(self, parts: Sequence[Node], axis: int) -> Node:
        if axis not in (0, 1):
            raise ValueError("concat supports axis 0 or 1")
        sizes = [p.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def make_vjp(i):
            lo, hi = offsets[i], offsets[i + 1]
            if axis == 0:
                return lambda g: g[lo:hi]
            return lambda g: g[:, lo:hi]

        return self._push(
            np.concatenate([p.value for p in parts], axis=axis),
            parents=tuple(parts),
            vjps=tuple(make_vjp(i) for i in range(len(parts))),
            name="concat",
        )

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

    def where_rows(self, mask, a: Node, b: Node) -> Node:
        """Per-row select: row i of ``a`` where mask[i] else row i of ``b``.
        The mask is a constant, not a differentiable input."""
        mask = np.asarray(mask, dtype=bool)
        if a.shape != b.shape or mask.shape != (a.shape[0],):
            raise ValueError("where_rows shape mismatch")
        m = mask[:, None]
        return self._push(
            np.where(m, a.value, b.value),
            parents=(a, b),
            vjps=(lambda g: g * m, lambda g: g * (~m)),
            name="where_rows",
        )

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

    def gru_step(self, x: Node, h: Node, weights: Sequence[Node]) -> Node:
        """One ``gru_cell`` step as a single node; ``weights`` are the (wz,
        bz, wr, br, wh, bh) nodes. ``gru_cell_vjp`` runs once, and only if
        backward() reaches the node: a forward-only pass computes no
        gradients."""
        if x.value.ndim != 2 or h.value.ndim != 2 or x.shape[0] != h.shape[0]:
            raise ValueError(f"gru_step expects (B, E) and (B, H) inputs, got {x.shape}, {h.shape}")
        e, hd = x.shape[1], h.shape[1]
        if [w.shape for w in weights] != [(e + hd, hd), (hd,)] * 3:
            raise ValueError("gru_step weight shapes do not match the inputs")
        values = tuple(w.value for w in weights)
        h_new, cache = gru_cell(x.value, h.value, values)
        grads: list = []

        def part(i):
            def vjp(g):
                if not grads:
                    grads.extend(gru_cell_vjp(g, h.value, values, cache))
                return grads[i]

            return vjp

        parents = (x, x, h, h, h, *weights)
        return self._push(
            h_new, parents=parents, vjps=tuple(part(i) for i in range(len(parents))), name="gru_step"
        )

    def sum_all(self, a: Node) -> Node:
        shape = a.shape
        return self._push(
            a.value.sum(),
            parents=(a,),
            vjps=(lambda g: np.full(shape, float(g)),),
            name="sum_all",
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

        zmax = z.max(axis=1, keepdims=True)
        expz = np.exp(z - zmax)
        sumexp = expz.sum(axis=1)
        log_z = zmax[:, 0] + np.log(sumexp)
        picked = z[np.arange(z.shape[0]), np.where(valid, targets, 0)]
        losses = log_z - picked
        loss = losses[valid].sum() / count
        softmax = expz / sumexp[:, None]

        def vjp(g):
            grad = softmax.copy()
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
