"""Text-overlap and classification metrics, plus the memorization-leak audit.

BLEU and macro-F1 score rewriting quality and downstream task performance.
The leak audit quantifies the failure mode where rewritten text resembles
the pre-training corpus more than its own source document: each rewrite is
compared against its source and against its nearest pre-training neighbor,
and a document counts as leaked when the neighbor wins by a margin.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Document, tokenize

__all__ = [
    "bleu", "bleu_reference", "bleu_counted", "macro_f1", "unigram_f1", "leak_audit", "LeakReport", "PretrainIndex",
]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_reference(reference: Sequence[str]) -> tuple[int, tuple[Counter, ...]]:
    """The part of BLEU that depends on the reference alone: its length
    and its 1- to 4-gram counts, counted once for every hypothesis
    scored against it."""
    if not reference:
        raise ValueError("reference must be non-empty")
    return len(reference), tuple(_ngram_counts(reference, n) for n in range(1, 5))


def bleu_counted(hypothesis: Sequence[str], reference: tuple[int, tuple[Counter, ...]]) -> float:
    """``bleu`` of a hypothesis against a ``bleu_reference``: the same
    arithmetic on the same counts, so the score is the same float."""
    ref_len, ref_counts = reference
    if not hypothesis:
        return 0.0
    log_sum = 0.0
    for n, ref_ngrams in enumerate(ref_counts, start=1):
        matches = sum((_ngram_counts(hypothesis, n) & ref_ngrams).values())
        total = max(len(hypothesis) - n + 1, 0)
        if n == 1:
            if matches == 0:
                return 0.0
            precision = matches / total
        elif matches == 0:
            precision = (matches + 1) / (total + 1)
        else:
            precision = matches / total
        log_sum += math.log(precision)
    c = len(hypothesis)
    brevity = 0.0 if c >= ref_len else 1.0 - ref_len / c
    return math.exp(log_sum / 4.0 + brevity)


def bleu(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """BLEU-4: geometric mean of clipped n-gram precisions times brevity
    penalty.

    Zero unigram overlap scores 0.0 outright. Orders n >= 2 with zero
    matches are smoothed as (m+1)/(t+1), which also neutralizes orders a
    short hypothesis cannot populate. This is ``bleu_counted`` against
    ``bleu_reference(reference)``, the one BLEU implementation; a caller
    that scores many hypotheses against one reference counts the
    reference once and calls ``bleu_counted``.
    """
    return bleu_counted(hypothesis, bleu_reference(reference))


def macro_f1(
    predictions: Sequence[str], gold: Sequence[str], label_set: Sequence[str]
) -> float:
    """Unweighted mean of per-label F1 over the full label set.

    A label absent from both predictions and gold still divides the mean
    (its F1 is 0). Predictions, golds and correct predictions are counted
    once per label. Label l's F1 is 2 tp / (n_pred + n_gold), and the
    sum of these is formed exactly in integers over the lcm of the
    denominators; one correctly rounded int / int division then gives the
    float nearest the exact rational mean, so results match hand-worked
    confusion matrices.
    """
    if len(predictions) != len(gold):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(gold)} gold"
        )
    if not gold:
        raise ValueError("gold labels must be non-empty")
    correct = Counter(p for p, g in zip(predictions, gold) if p == g)
    n_pred, n_gold = Counter(predictions), Counter(gold)
    terms = [(2 * correct[label], n_pred[label] + n_gold[label]) for label in label_set]
    common = math.lcm(*(denom for _, denom in terms if denom))
    numerator = sum(twice_tp * (common // denom) for twice_tp, denom in terms if denom)
    return numerator / (common * len(label_set))


def unigram_f1(a: Sequence[str], b: Sequence[str]) -> float:
    """Harmonic mean of unigram precision and recall with multiset clipping.

    Symmetric by construction: 2·overlap / (len(a) + len(b)).
    """
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    overlap = sum((Counter(a) & Counter(b)).values())
    return 2.0 * overlap / (len(a) + len(b))


@dataclass
class LeakReport:
    """Per-document and corpus-level memorization audit results.

    A document is flagged when its best pre-training-corpus match beats
    its own source by at least ``margin`` in unigram F1.
    """

    margin: float
    similarity_to_source: list[float] = field(default_factory=list)
    max_similarity_to_pretrain: list[float] = field(default_factory=list)
    nearest_pretrain_index: list[int] = field(default_factory=list)
    flagged: list[bool] = field(default_factory=list)

    @property
    def leak_score(self) -> float:
        if not self.flagged:
            return 0.0
        return sum(self.flagged) / len(self.flagged)


def _count_matrix(docs: list[list[str]], index: dict[str, int]) -> np.ndarray:
    """Row i counts doc i's tokens per column of ``index``; tokens outside
    the index are dropped."""
    rows, cols = [], []
    for i, toks in enumerate(docs):
        for tok in toks:
            col = index.get(tok)
            if col is not None:
                rows.append(i)
                cols.append(col)
    flat = np.asarray(rows, dtype=np.int64) * len(index) + np.asarray(cols, dtype=np.int64)
    return np.bincount(flat, minlength=len(docs) * len(index)).reshape(len(docs), len(index))


def _multiset_overlaps(r_counts: np.ndarray, p_counts: np.ndarray) -> np.ndarray:
    """overlap[i, j] = sum over tokens of min(r_counts[i], p_counts[j]).

    min(a, b) = sum_{t >= 1} [a >= t][b >= t], so the overlap is a sum of
    0/1 GEMMs, one per count threshold t, each restricted to the tokens
    that reach t on both sides. Every product and partial sum is a small
    integer, so float64 holds it exactly whatever the BLAS summation order.
    """
    overlap = np.zeros((r_counts.shape[0], p_counts.shape[0]))
    top = min(r_counts.max(initial=0), p_counts.max(initial=0))
    for t in range(1, top + 1):
        r_hit, p_hit = r_counts >= t, p_counts >= t
        cols = r_hit.any(axis=0) & p_hit.any(axis=0)
        overlap += r_hit[:, cols].astype(np.float64) @ p_hit[:, cols].T.astype(np.float64)
    return overlap


class PretrainIndex:
    """A pre-training corpus as the leak audit reads it: a column per
    distinct token in first-occurrence order, the (documents, columns)
    count matrix and each document's length. Build it once and pass it to
    every ``leak_audit`` against that corpus; ``len`` is the number of
    documents."""

    def __init__(self, docs: Sequence[Document]):
        tokens = [tokenize(doc.text) for doc in docs]
        self.columns: dict[str, int] = {}
        for toks in tokens:
            for tok in toks:
                self.columns.setdefault(tok, len(self.columns))
        self.counts = _count_matrix(tokens, self.columns)
        self.lengths = np.array([len(t) for t in tokens], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.lengths)


def leak_audit(
    rewritten: Sequence[Document],
    source: Sequence[Document],
    pretrain_corpus: Sequence[Document] | PretrainIndex,
    margin: float = 0.1,
) -> LeakReport:
    """Compare each rewrite against its source and the pre-training corpus.

    ``rewritten[i]`` must be the rewrite of ``source[i]``. For each i the
    audit computes s_src = unigram_f1(rewritten[i], source[i]) and the
    maximum s_pre over the pre-training corpus; the document is flagged
    iff s_pre >= s_src + margin. leak_score is the flagged fraction. The
    corpus may be given as its documents or as a ``PretrainIndex``.

    All rewrite/pre-training pairs are scored at once from token-count
    matrices (see ``_multiset_overlaps``), with unigram_f1's arithmetic
    and empty-document rules. The nearest document is the first one that
    reaches the maximum, and is -1 (with s_pre 0.0) when no pre-training
    document shares a token with the rewrite.
    """
    if len(rewritten) != len(source):
        raise ValueError(
            f"misaligned inputs: {len(rewritten)} rewritten vs {len(source)} source"
        )
    pretrain = pretrain_corpus if isinstance(pretrain_corpus, PretrainIndex) else PretrainIndex(pretrain_corpus)
    rewrite_tokens = [tokenize(doc.text) for doc in rewritten]
    overlap = _multiset_overlaps(_count_matrix(rewrite_tokens, pretrain.columns), pretrain.counts)
    denom = np.add.outer(np.array([len(t) for t in rewrite_tokens], dtype=np.float64), pretrain.lengths)
    # Column 0 is a 0.0 sentinel: argmax takes the first maximum, so a row
    # with no positive similarity picks it and reports nearest -1, s_pre 0.0.
    # Both documents empty scores 1.0; one empty has overlap 0 and scores 0.0.
    sim = np.ones((len(rewritten), len(pretrain) + 1))
    sim[:, 0] = 0.0
    np.divide(2.0 * overlap, denom, out=sim[:, 1:], where=denom > 0)
    nearest = sim.argmax(axis=1)
    best = sim[np.arange(len(rewritten)), nearest]

    report = LeakReport(margin=margin)
    for toks, orig, j, s_pre in zip(rewrite_tokens, source, nearest.tolist(), best.tolist()):
        s_src = unigram_f1(toks, tokenize(orig.text))
        report.similarity_to_source.append(s_src)
        report.max_similarity_to_pretrain.append(s_pre)
        report.nearest_pretrain_index.append(j - 1)
        report.flagged.append(s_pre >= s_src + margin)
    return report
