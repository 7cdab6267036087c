"""Independent oracles the test suite checks the package against.

The BLEU oracle below is deliberately naive: n-grams are materialized as
tuple lists and clipped counts are computed by scanning and removing from
a mutable copy of the reference list. No Counter, no shared code with the
package implementation. Keep it slow and obvious.

The leak-audit oracle is the audit's original per-pair loop: every
rewrite is scored against every pre-training document with a
list-removal unigram F1. It shares only ``tokenize`` and the report type
with the package.

The GRU oracle is the autoencoder's original per-step path: a cell over
the concatenated [x, h] with its single-step backward, one tape node per
step, ``where_rows`` freezing PAD rows and the decoder's step logits
concatenated. It shares the tape's leaf, matmul, add, row_select, clip
and cross-entropy ops and ``sigmoid`` with the package.

The classifier oracle is the tape the classifier trained with before its
gradient was written by hand.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dprw.corpus import EOS_ID, PAD_ID, SOS_ID, Document, tokenize
from dprw.metrics import LeakReport
from dprw.numcore import Tape, sigmoid


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


class StepTape(Tape):
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


def classifier_grads_tape(params: dict, pooled, targets) -> dict:
    """Gradients of the classifier's mean cross-entropy on one minibatch,
    taken with the tape: (pooled @ embedding) @ out_w + out_b."""
    tape = Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    logits = tape.add(
        tape.matmul(tape.matmul(tape.leaf(pooled, name="pooled"), leaves["embedding"]), leaves["out_w"]),
        leaves["out_b"],
    )
    tape.backward(tape.softmax_cross_entropy(logits, targets, ignore_id=-1))
    return {k: leaf.grad for k, leaf in leaves.items()}
