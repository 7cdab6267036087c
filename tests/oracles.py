"""Independent oracles the test suite checks the package against.

The BLEU oracle below is deliberately naive: n-grams are materialized as
tuple lists and clipped counts are computed by scanning and removing from
a mutable copy of the reference list. No Counter, no shared code with the
package implementation. Keep it slow and obvious.

The leak-audit oracle is the audit's original per-pair loop: every
rewrite is scored against every pre-training document with a
list-removal unigram F1. It shares only ``tokenize`` and the report type
with the package.

The graph tape is the general reverse-mode tape the autoencoder trained
with before its loss was written out as five backward steps: a node per
op value, a VJP per parent, gradients accumulated across consumers in
reverse creation order, and ops for matmul, add, row lookup, the l1
clip, a whole GRU pass (every row at every step, PAD rows frozen by a
mask) and the cross-entropy. It calls the package's
``split_gru_weights``, ``gru_cell``, ``clip_rows_l1`` and ``softmax``;
the rest of its arithmetic, the reverse pass and the cell's backward
(``gru_cell_vjp``, the package's before its cell took fewer passes)
included, is its own. The package's ``build_loss``, which sorts, packs
and projects distinct tokens, must match it to rounding in float64. The
finite-difference check compares any gradient dict with central
differences of a loss function.

The GRU oracle is the autoencoder's original per-step path: a cell over
the concatenated [x, h] with its single-step backward, one graph-tape
node per step, ``where_rows`` freezing PAD rows and the decoder's step
logits concatenated. It shares the graph tape's leaf, matmul, add,
row_select, clip and cross-entropy ops and ``sigmoid`` with the package.

The inference-loop oracles freeze rows at every step: the encoder
applies ``np.where`` at every step, and the decoder freezes a finished
row's state and token and fills PAD after its EOS. They share
``gru_cell`` and the inference tables with the package, so the package's
loops, which skip that work, must match them exactly.

The classifier oracle is the graph tape the classifier trained with
before its gradient was written by hand.

The macro-F1 oracle is the per-label scan in ``Fraction`` arithmetic the
package used before it counted labels once and summed in integers; the
pooling oracle is the per-document ``np.add.at`` the package used before
one ``np.bincount``. Both must match the package exactly.

The bound-suite oracle is the suite the package ran before it streamed
its trials in blocks: every stream drawn whole, every (trials, dim) array
held at once, one max and one count over all ratios. It shares the
Laplace sampler, the row clip, the calibration, ``verify_dp_bound`` and
the report type with the package, whose blocked suite must give the same
report, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from dprw.corpus import EOS_ID, PAD_ID, SOS_ID, Document, Vocabulary, tokenize
from dprw.dpmech import (
    BOUND_TOL,
    BoundSuiteReport,
    PrivacyParams,
    calibrate_scale,
    sample_laplace,
    verify_dp_bound,
)
from dprw.metrics import LeakReport
from dprw.numcore import (
    Array,
    Rng,
    Tape,
    clip_rows_l1,
    gru_cell,
    require_finite,
    sigmoid,
    softmax,
    split_gru_weights,
)


def _ngram_list(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    out = []
    for i in range(len(tokens) - n + 1):
        out.append(tuple(tokens[i : i + n]))
    return out


def _clipped_matches(hyp_ngrams: list[tuple[str, ...]], ref_ngrams: list[tuple[str, ...]]) -> int:
    pool = list(ref_ngrams)
    matches = 0
    for gram in hyp_ngrams:
        if gram in pool:
            pool.remove(gram)
            matches += 1
    return matches


def bleu_brute_force(hypothesis: list[str], reference: list[str]) -> float:
    """BLEU-4, brute force. Same smoothing contract as the package:
    zero unigram matches → 0.0; for n ≥ 2 a zero-match order uses
    (m+1)/(t+1); brevity penalty min(1, exp(1 - r/c))."""
    if not reference:
        raise ValueError("reference must be non-empty")
    if not hypothesis:
        return 0.0
    precisions = []
    for n in range(1, 5):
        hyp_ngrams = _ngram_list(hypothesis, n)
        ref_ngrams = _ngram_list(reference, n)
        total = len(hyp_ngrams)
        matches = _clipped_matches(hyp_ngrams, ref_ngrams)
        if n == 1:
            if matches == 0:
                return 0.0
            precisions.append(matches / total)
        elif matches == 0:
            precisions.append((matches + 1) / (total + 1))
        else:
            precisions.append(matches / total)
    geo = (precisions[0] * precisions[1] * precisions[2] * precisions[3]) ** 0.25
    c, r = len(hypothesis), len(reference)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return geo * brevity


def _unigram_f1_brute_force(a: list[str], b: list[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 2.0 * _clipped_matches(a, b) / (len(a) + len(b))


def leak_audit_brute_force(
    rewritten: list[Document],
    source: list[Document],
    pretrain_corpus: list[Document],
    margin: float = 0.1,
) -> LeakReport:
    """The leak audit one pair at a time; the first strictly larger
    similarity wins, so ties go to the lowest pre-training index and a
    rewrite that matches nothing keeps -1 and 0.0."""
    pretrain_tokens = [tokenize(doc.text) for doc in pretrain_corpus]
    report = LeakReport(margin=margin)
    for rewrite, orig in zip(rewritten, source):
        toks = tokenize(rewrite.text)
        s_src = _unigram_f1_brute_force(toks, tokenize(orig.text))
        s_pre = 0.0
        nearest = -1
        for j, cand in enumerate(pretrain_tokens):
            s = _unigram_f1_brute_force(toks, cand)
            if s > s_pre:
                s_pre = s
                nearest = j
        report.similarity_to_source.append(s_src)
        report.max_similarity_to_pretrain.append(s_pre)
        report.nearest_pretrain_index.append(nearest)
        report.flagged.append(s_pre >= s_src + margin)
    return report


def _docs(texts: list[str]) -> list[Document]:
    return [Document(text=t, label="x") for t in texts]


# (rewritten, source, pretrain corpus) triples: empty rewrites and empty
# pre-training documents, repeated tokens (count thresholds >= 2), ties
# between pre-training documents, and an empty pre-training corpus.
CURATED_LEAK_CASES: list[tuple[list[Document], list[Document], list[Document]]] = [
    (_docs(["book a flight", "play music"]), _docs(["book a flight", "cancel it"]), _docs(["play some music", "book a"])),
    (_docs(["", "a b"]), _docs(["a", ""]), _docs(["", "a", "b"])),
    (_docs(["a a a b", "b b"]), _docs(["a b", "b"]), _docs(["a a", "a a a a b", "b b b"])),
    (_docs(["x y", "q"]), _docs(["x", "q"]), _docs(["x z", "y z", "x y z w", "y x"])),
    (_docs(["a b c", ""]), _docs(["a b", ""]), []),
    (_docs(["the the the", "to to from"]), _docs(["the", "from to"]), _docs(["the cat the", "to from to from", "nothing here"])),
]


# 20 curated pairs exercising identity, disjointness, clipping, short
# hypotheses, brevity penalty on both sides, repeats, and shuffles.
CURATED_BLEU_PAIRS: list[tuple[list[str], list[str]]] = [
    (["the", "cat", "sat", "on", "mat"], ["the", "cat", "sat", "on", "mat"]),
    (["the", "cat", "sat"], ["the", "cat", "sat", "down"]),
    (["a", "b", "c", "d"], ["x", "y", "z", "w"]),
    (["hello"], ["hello"]),
    (["hello"], ["world"]),
    (
        ["the", "cat", "sat", "on", "the", "mat", "today"],
        ["the", "cat", "sat", "on", "the", "mat"],
    ),
    (["the", "the", "the", "the"], ["the", "cat"]),
    (["good", "morning"], ["good", "morning"]),
    (["good", "night"], ["good", "morning"]),
    (["i", "like"], ["i", "like", "green", "eggs"]),
    (["mat", "the", "on", "sat", "cat"], ["the", "cat", "sat", "on", "mat"]),
    (
        ["please", "book", "a", "flight", "from", "boston", "to", "denver", "tomorrow"],
        ["please", "book", "a", "flight", "from", "austin", "to", "denver", "today"],
    ),
    (["cat", "cat", "sat"], ["the", "cat", "sat"]),
    (["a", "x", "b", "y"], ["a", "b"]),
    (
        ["the", "quick", "brown", "fox", "jumps"],
        ["the", "quick", "brown", "fox", "jumped"],
    ),
    (["run", "forrest", "run"], ["run", "forrest", "run"]),
    (["run", "forrest"], ["run", "forrest", "run"]),
    (
        ["what", "is", "the", "fare", "for", "the", "morning", "train", "to", "the", "coast", "please"],
        ["what", "is", "the", "fare", "on", "the", "evening", "train", "to", "the", "coast", "thanks"],
    ),
    (["a", "b", "c", "a", "b", "c"], ["a", "b", "c"]),
    (["show", "me", "flights"], ["show", "me", "all", "flights", "please"]),
]


# Hand-computed macro-F1 cases. Each per-label F1 is 2tp/(2tp+fp+fn) with
# the 0/0 case defined as 0; expected values are exact rationals from the
# confusion matrices, worked by hand.
MACRO_F1_HAND_CASES: list[tuple[list[str], list[str], list[str], Fraction]] = [
    # (gold, predictions, label_set, expected)
    (["a", "b", "c"], ["a", "b", "c"], ["a", "b", "c"], Fraction(1)),
    # all predicted as b: F1(a)=0, F1(b)=2*2/(4+2+0)=2/3
    (["a", "a", "b", "b"], ["b", "b", "b", "b"], ["a", "b"], Fraction(1, 3)),
    # F1(a)=2*2/(4+0+1)=4/5, F1(b)=2*1/(2+1+0)=2/3
    (["a", "a", "a", "b"], ["a", "a", "b", "b"], ["a", "b"], Fraction(11, 15)),
    # F1(a)=4/5, F1(b)=1/2, F1(c)=2/3
    (
        ["a", "b", "a", "b", "c", "c"],
        ["a", "a", "a", "b", "c", "b"],
        ["a", "b", "c"],
        Fraction(59, 90),
    ),
    # label b absent from both still averages in as 0
    (["a", "a"], ["a", "a"], ["a", "b"], Fraction(1, 2)),
    (["a", "a"], ["b", "b"], ["a", "b"], Fraction(0)),
    # only label a predicted correctly; b and c swapped
    (["a", "b", "c", "a"], ["a", "c", "b", "a"], ["a", "b", "c"], Fraction(1, 3)),
    (["b"], ["b"], ["a", "b", "c"], Fraction(1, 3)),
    # F1(a)=2*1/(2+0+1)=2/3, F1(b)=2*1/(2+1+0)=2/3
    (["a", "a", "b"], ["a", "b", "b"], ["a", "b"], Fraction(2, 3)),
    # F1(a)=F1(b)=1/2, F1(c)=F1(d)=1
    (
        ["a", "b", "c", "d", "a", "b"],
        ["a", "b", "c", "d", "b", "a"],
        ["a", "b", "c", "d"],
        Fraction(3, 4),
    ),
]


def macro_f1_fraction(predictions: list[str], gold: list[str], label_set: list[str]) -> float:
    """Macro-F1 as a sum of ``Fraction(2 tp, 2 tp + fp + fn)`` per label,
    each count a scan of all pairs, rounded once at the end."""
    total = Fraction(0)
    for label in label_set:
        tp = sum(1 for p, g in zip(predictions, gold) if p == label and g == label)
        fp = sum(1 for p, g in zip(predictions, gold) if p == label and g != label)
        fn = sum(1 for p, g in zip(predictions, gold) if p != label and g == label)
        denom = 2 * tp + fp + fn
        if denom:
            total += Fraction(2 * tp, denom)
    return float(total / len(label_set))


def mean_pool_matrix_add_at(docs: list[Document], vocab: Vocabulary) -> np.ndarray:
    """Each document's row filled by its own ``np.add.at`` of 1 / length."""
    pooled = np.zeros((len(docs), len(vocab)))
    for i, doc in enumerate(docs):
        ids = [vocab.token_id(t) for t in tokenize(doc.text)]
        if not ids:
            continue
        np.add.at(pooled[i], ids, 1.0 / len(ids))
    return pooled


# -- the graph tape ----------------------------------------------------------------


def as_float(x) -> np.ndarray:
    """A float32 or float64 ndarray as it is; anything else as float64."""
    x = np.asarray(x)
    return x if x.dtype in (np.float32, np.float64) else x.astype(np.float64)


def gru_cell_vjp(g: Array, h: Array, u_zr: Array, u_h: Array, cache: tuple, da: Array) -> Array:
    """Backward of one ``gru_cell`` step as the package wrote it before its
    cell took fewer passes: ``u_zr`` and ``u_h`` untransposed, dh formed
    from 1 - z. Writes the pre-activation gradient into ``da`` (B, 3H) and
    returns the gradient of ``h``."""
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


class GraphTape:
    """Records a computation graph; op nodes are appended after their
    inputs, so reversing creation order is a reverse topological order.
    The ``clip_rows_l1`` op calls the package function of that name."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._backward_done = False

    # -- construction ------------------------------------------------------

    def _push(self, value: Array, parents: tuple = (), vjps: tuple = (), name: str = "") -> Node:
        value = as_float(value)
        require_finite(value, name)
        node = Node(value=value, parents=parents, vjps=vjps, name=name)
        self.nodes.append(node)
        return node

    def leaf(self, value, name: str = "") -> Node:
        """Register an input or parameter value. Leaves are checked but not
        recorded: backward() reaches them through the ops that use them."""
        name = name or "leaf"
        value = as_float(value)
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
        hs = np.empty((steps + 1, b, hd), dtype=xp.dtype)  # hs[t] enters step t
        hs[0] = h0.value
        caches = []
        for t in range(steps):
            h_new, cache = gru_cell(xp[t], hs[t], u)
            hs[t + 1] = h_new if mask is None else np.where(mask[t][:, None], h_new, hs[t])
            caches.append(cache)
        require_finite(hs[1:], "gru_pass")
        grads: list = []

        def backward(g):
            u_zr, u_h = u
            g_steps = g.reshape(steps, b, hd) if all_states else None
            da = np.empty((steps, b, 3 * hd), dtype=hs.dtype)
            dh = np.zeros((b, hd), dtype=hs.dtype) if all_states else g
            for t in reversed(range(steps)):
                if all_states:
                    dh = dh + g_steps[t]
                if mask is None:
                    dh = gru_cell_vjp(dh, hs[t], u_zr, u_h, caches[t], da[t])
                else:
                    keep = mask[t][:, None]
                    dh = gru_cell_vjp(dh * keep, hs[t], u_zr, u_h, caches[t], da[t]) + dh * ~keep
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

        return self._push(loss, parents=(logits,), vjps=(vjp,), name="softmax_cross_entropy")

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
        loss.grad = np.ones((), dtype=loss.value.dtype)
        for node in reversed(self.nodes):
            if node.grad is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                contribution = vjp(node.grad)
                if parent.grad is None:
                    parent.grad = np.array(contribution)
                else:
                    parent.grad = parent.grad + contribution
        self._backward_done = True


def build_loss_graph(model, tape: GraphTape, leaves: dict, batch) -> Node:
    """``Autoencoder.build_loss`` as the graph tape built it, eight op nodes."""
    steps = np.asarray(batch).T  # (T, B)
    dtype = leaves["embedding"].value.dtype
    h0 = tape.leaf(np.zeros((steps.shape[1], model.config.hidden_dim), dtype=dtype), name="h0")
    x = tape.row_select(leaves["embedding"], steps.reshape(-1))
    final = tape.gru_pass(x, h0, _side(leaves, "enc"), mask=steps != PAD_ID)
    latent = tape.clip_rows_l1(final, model.config.clip_c)
    x = tape.row_select(leaves["embedding"], steps[:-1].reshape(-1))
    states = tape.gru_pass(x, latent, _side(leaves, "dec"), all_states=True)
    logits = tape.add(tape.matmul(states, leaves["out_w"]), leaves["out_b"])
    return tape.softmax_cross_entropy(logits, steps[1:].reshape(-1), ignore_id=PAD_ID)


def graph_loss_and_grads(build, params: dict) -> tuple[Array, dict]:
    """The loss value ``build(tape, leaves)`` makes on a fresh graph tape
    from leaves for ``params``, and every leaf's gradient (zero where
    backward does not reach it)."""
    tape = GraphTape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    loss = build(tape, leaves)
    tape.backward(loss)
    return loss.value, {
        k: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value) for k, leaf in leaves.items()
    }


def build_loss_and_grads(model, params: dict, batch) -> tuple:
    """``model.build_loss`` on a fresh tape, backward from 1: the loss
    and the gradient dict the tape filled."""
    tape = Tape()
    loss, grads = model.build_loss(tape, params, batch)
    tape.backward(np.ones((), loss.dtype))
    return loss, grads


# -- the finite-difference gradient check ------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    ok: bool


def finite_difference_check(loss, grads: dict, params: dict, rtol: float = 1e-4, step: float = 1e-5) -> GradCheckReport:
    """Compare ``grads``, the gradients of ``loss`` at ``params``, against
    central finite differences.

    ``loss`` maps a parameter dict to a float and must be deterministic.
    The relative error for an entry is |g - fd| / max(|g|, |fd|), treated
    as 0 when both are tiny.
    """
    worst = 0.0
    worst_param = ""
    probe = {k: v.copy() for k, v in params.items()}
    for k, p in probe.items():
        flat = p.reshape(-1)
        gflat = np.asarray(grads[k]).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss(probe)
            flat[i] = orig - step
            lo = loss(probe)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(fd))
            rel = 0.0 if denom < 1e-6 else abs(gflat[i] - fd) / denom
            if rel > worst:
                worst = rel
                worst_param = k
    return GradCheckReport(max_rel_error=worst, worst_param=worst_param, ok=worst < rtol)


def check_build_loss_gradients(model, batch, rtol: float = 1e-4) -> GradCheckReport:
    """``finite_difference_check`` of ``model.build_loss`` on ``batch`` at
    the model's parameters."""
    _, grads = build_loss_and_grads(model, model.parameters, batch)
    return finite_difference_check(
        lambda params: float(model.build_loss(Tape(), params, batch)[0]), grads, model.parameters, rtol=rtol
    )


# -- the per-step GRU path ---------------------------------------------------------

GRU_NAMES = ("wz", "bz", "wr", "br", "wh", "bh")


def gru_cell_concat(x, h, weights):
    """One GRU step with each weight (E + H, H) applied to [x, h]."""
    wz, bz, wr, br, wh, bh = weights
    xh = np.concatenate([x, h], axis=1)
    z = sigmoid(xh @ wz + bz)
    r = sigmoid(xh @ wr + br)
    xrh = np.concatenate([x, r * h], axis=1)
    cand = np.tanh(xrh @ wh + bh)
    one_minus_z = 1.0 - z
    return one_minus_z * h + z * cand, (xh, z, r, xrh, cand, one_minus_z)


def gru_cell_concat_vjp(g, h, weights, cache):
    """(dx, dx, dh, dh, dh, dwz, dbz, dwr, dbr, dwh, dbh) of one step."""
    wz, _, wr, _, wh, _ = weights
    xh, z, r, xrh, cand, one_minus_z = cache
    e = xh.shape[1] - h.shape[1]
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


class StepTape(GraphTape):
    """The tape plus the per-step ops the sequence-level GRU replaced."""

    def where_rows(self, mask, a, b):
        m = np.asarray(mask, dtype=bool)[:, None]
        return self._push(
            np.where(m, a.value, b.value), parents=(a, b),
            vjps=(lambda g: g * m, lambda g: g * (~m)), name="where_rows",
        )

    def concat_rows(self, parts):
        offsets = np.cumsum([0] + [p.shape[0] for p in parts])
        vjps = tuple((lambda lo, hi: lambda g: g[lo:hi])(offsets[i], offsets[i + 1]) for i in range(len(parts)))
        return self._push(np.concatenate([p.value for p in parts]), parents=tuple(parts), vjps=vjps, name="concat")

    def gru_step(self, x, h, weights):
        values = tuple(w.value for w in weights)
        h_new, cache = gru_cell_concat(x.value, h.value, values)
        grads: list = []

        def part(i):
            def vjp(g):
                if not grads:
                    grads.extend(gru_cell_concat_vjp(g, h.value, values, cache))
                return grads[i]

            return vjp

        parents = (x, x, h, h, h, *weights)
        return self._push(h_new, parents=parents, vjps=tuple(part(i) for i in range(len(parents))), name="gru_step")


def _side(params, side):
    return tuple(params[f"{side}_{name}"] for name in GRU_NAMES)


def build_loss_per_step(model, tape: StepTape, leaves: dict, batch):
    """``Autoencoder.build_loss`` one GRU step per node."""
    batch = np.asarray(batch)
    b, t_len = batch.shape
    enc, dec = _side(leaves, "enc"), _side(leaves, "dec")
    h = tape.leaf(np.zeros((b, model.config.hidden_dim)), name="h0")
    for t in range(t_len):
        step = batch[:, t]
        h = tape.where_rows(step != PAD_ID, tape.gru_step(tape.row_select(leaves["embedding"], step), h, enc), h)
    h = tape.clip_rows_l1(h, model.config.clip_c)
    step_logits = []
    for t in range(t_len - 1):
        h = tape.gru_step(tape.row_select(leaves["embedding"], batch[:, t]), h, dec)
        step_logits.append(tape.add(tape.matmul(h, leaves["out_w"]), leaves["out_b"]))
    targets = batch[:, 1:].T.reshape(-1)
    return tape.softmax_cross_entropy(tape.concat_rows(step_logits), targets, ignore_id=PAD_ID)


def loss_and_grads_per_step(model, batch):
    """Loss and every parameter gradient from ``build_loss_per_step``."""
    tape = StepTape()
    leaves = {k: tape.leaf(v, name=k) for k, v in model.parameters.items()}
    loss = build_loss_per_step(model, tape, leaves, batch)
    tape.backward(loss)
    return float(loss.value), {k: leaf.grad for k, leaf in leaves.items()}


def encode_batch_per_step(model, ids):
    """``Autoencoder.encode_batch`` with the concatenated cell."""
    p = model.parameters
    h = np.zeros((ids.shape[0], model.config.hidden_dim))
    for step in np.asarray(ids).T:
        h_new = gru_cell_concat(p["embedding"][step], h, _side(p, "enc"))[0]
        h = np.where((step != PAD_ID)[:, None], h_new, h)
    return h


def decode_greedy_batch_per_step(model, latents):
    """``Autoencoder.decode_greedy_batch`` with the concatenated cell."""
    p = model.parameters
    limit = model.config.max_len
    out = []
    for latent in np.asarray(latents):
        h = latent[None, :]
        token, content = SOS_ID, []
        for _ in range(limit + 1):
            h = gru_cell_concat(p["embedding"][[token]], h, _side(p, "dec"))[0]
            token = int(np.argmax(h @ p["out_w"] + p["out_b"], axis=1)[0])
            if token == EOS_ID:
                break
            content.append(token)
        out.append([SOS_ID] + content[:limit] + [EOS_ID])
    return out


def encode_batch_freeze_every_step(model, ids):
    """``Autoencoder.encode_batch`` with ``np.where`` at every step."""
    ids = np.asarray(ids)
    h = np.zeros((ids.shape[0], model.config.hidden_dim))
    table, u = model._gru_inference("enc")
    for step in ids.T:
        h_new = gru_cell(table[step], h, u)[0]
        h = np.where((step != PAD_ID)[:, None], h_new, h)
    return h


def decode_greedy_batch_freeze_rows(model, latents):
    """``Autoencoder.decode_greedy_batch`` with finished rows frozen."""
    limit = model.config.max_len
    b = latents.shape[0]
    h = latents.copy()
    table, u = model._gru_inference("dec")
    tokens = np.full(b, SOS_ID, dtype=np.int64)
    done = np.zeros(b, dtype=bool)
    eos_step = np.full(b, -1)
    emitted = []
    for step_i in range(limit + 1):
        if done.all():
            break
        h = np.where(done[:, None], h, gru_cell(table[tokens], h, u)[0])
        logits = h @ model.parameters["out_w"] + model.parameters["out_b"]
        nxt = np.argmax(logits, axis=1)
        emitted.append(np.where(done, PAD_ID, nxt))
        newly_done = ~done & (nxt == EOS_ID)
        eos_step[newly_done] = step_i
        done |= newly_done
        tokens = np.where(done, tokens, nxt)
    grid = np.stack(emitted, axis=1) if emitted else np.zeros((b, 0), dtype=np.int64)
    out = []
    for i in range(b):
        end = eos_step[i] if eos_step[i] >= 0 else grid.shape[1]
        content = [int(t) for t in grid[i, :end]][:limit]
        out.append([SOS_ID] + content + [EOS_ID])
    return out


def classifier_grads_tape(params: dict, pooled, targets) -> dict:
    """Gradients of the classifier's mean cross-entropy on one minibatch,
    taken with the tape: (pooled @ embedding) @ out_w + out_b."""
    tape = GraphTape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    logits = tape.add(
        tape.matmul(tape.matmul(tape.leaf(pooled, name="pooled"), leaves["embedding"]), leaves["out_w"]),
        leaves["out_b"],
    )
    tape.backward(tape.softmax_cross_entropy(logits, targets, ignore_id=-1))
    return {k: leaf.grad for k, leaf in leaves.items()}


# -- the whole-array bound suite ---------------------------------------------------


def _random_clipped_batch_whole(rng: Rng, n: int, dim: int, clip_c: float) -> np.ndarray:
    raw = rng.derive("dir").normal(0.0, 1.0, (n, dim))
    norms = np.maximum(np.abs(raw).sum(axis=1), 1e-12)
    radius = clip_c * (0.5 + 0.75 * rng.derive("radius").random(n))
    return clip_rows_l1(raw * (radius / norms)[:, None], clip_c)[0]


def run_bound_suite_whole(
    params: PrivacyParams, dim: int, trials: int, rng: Rng, noise_scale: float | None = None
) -> BoundSuiteReport:
    """``run_bound_suite`` with every (trials, dim) array held at once."""
    b = calibrate_scale(params) if noise_scale is None else float(noise_scale)
    c = params.clip_c
    eps = params.epsilon
    n_antipodal = max(1, trials // 8)
    n_random = trials - n_antipodal

    g = rng.derive("suite")
    ratios_parts = []
    if n_random:
        u = _random_clipped_batch_whole(g.derive("u"), n_random, dim, c)
        v = _random_clipped_batch_whole(g.derive("v"), n_random, dim, c)
        noise = sample_laplace(b, n_random * dim, g.derive("noise")).reshape(n_random, dim)
        box = g.derive("box").uniform(-3.0 * c, 3.0 * c, (n_random, dim))
        style = np.arange(n_random) % 3
        y = np.where((style == 0)[:, None], u + noise, np.where((style == 1)[:, None], v + noise, box))
        ratios_parts.append((np.abs(y - v).sum(axis=1) - np.abs(y - u).sum(axis=1)) / b)

    ga = g.derive("antipodal")
    axes = ga.derive("axis").integers(0, dim, n_antipodal)
    signs = np.where(ga.derive("signs").random((n_antipodal, dim)) < 0.5, -1.0, 1.0)
    ua = np.zeros((n_antipodal, dim))
    on_axis = np.arange(n_antipodal) % 2 == 0
    ua[on_axis, axes[on_axis]] = c
    ua[~on_axis] = signs[~on_axis] * (c / dim)
    reach = 1.0 + 9.0 * ga.derive("reach").random(n_antipodal)
    ya = ua * reach[:, None]
    anti_ratios = (np.abs(ya + ua).sum(axis=1) - np.abs(ya - ua).sum(axis=1)) / b
    ratios_parts.append(anti_ratios)

    ratios = np.abs(np.concatenate(ratios_parts))
    max_ratio = float(ratios.max())
    violations = int((ratios > eps + BOUND_TOL).sum())
    tight = float(np.abs(anti_ratios).max() / eps)

    if noise_scale is None:
        audit = PrivacyParams(epsilon=eps, clip_c=c)
        spot = g.derive("spot")
        n_spot = min(100, trials)
        su = _random_clipped_batch_whole(spot.derive("u"), n_spot, dim, c)
        sv = _random_clipped_batch_whole(spot.derive("v"), n_spot, dim, c)
        sy = su + sample_laplace(b, n_spot * dim, spot.derive("noise")).reshape(n_spot, dim)
        for i in range(n_spot):
            check = verify_dp_bound(su[i], sv[i], sy[i], audit)
            if not check.ok:
                violations += 1
            max_ratio = max(max_ratio, abs(check.log_ratio))

    return BoundSuiteReport(
        epsilon=eps,
        trials=trials,
        max_abs_log_ratio=max_ratio,
        violations=violations,
        tightness=tight,
        ok=violations == 0,
    )
