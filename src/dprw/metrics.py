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
from fractions import Fraction
from typing import Sequence

from .corpus import Document, tokenize

__all__ = ["bleu", "macro_f1", "unigram_f1", "leak_audit", "LeakReport"]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypothesis: Sequence[str], reference: Sequence[str]) -> float:
    """BLEU-4: geometric mean of clipped n-gram precisions times brevity
    penalty.

    Zero unigram overlap scores 0.0 outright. Orders n >= 2 with zero
    matches are smoothed as (m+1)/(t+1), which also neutralizes orders a
    short hypothesis cannot populate.
    """
    if not reference:
        raise ValueError("reference must be non-empty")
    if not hypothesis:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        counts = _ngram_counts(hypothesis, n)
        matches = sum((counts & _ngram_counts(reference, n)).values())
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
    c, r = len(hypothesis), len(reference)
    brevity = 0.0 if c >= r else 1.0 - r / c
    return math.exp(log_sum / 4.0 + brevity)


def macro_f1(
    predictions: Sequence[str], gold: Sequence[str], label_set: Sequence[str]
) -> float:
    """Unweighted mean of per-label F1 over the full label set.

    A label absent from both predictions and gold still divides the mean
    (its F1 is 0). Computed in exact rational arithmetic and rounded once,
    so results match hand-worked confusion matrices.
    """
    if len(predictions) != len(gold):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(gold)} gold"
        )
    if not gold:
        raise ValueError("gold labels must be non-empty")
    total = Fraction(0)
    for label in label_set:
        tp = sum(1 for p, g in zip(predictions, gold) if p == label and g == label)
        fp = sum(1 for p, g in zip(predictions, gold) if p == label and g != label)
        fn = sum(1 for p, g in zip(predictions, gold) if p != label and g == label)
        denom = 2 * tp + fp + fn
        if denom:
            total += Fraction(2 * tp, denom)
    return float(total / len(label_set))


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


def leak_audit(
    rewritten: Sequence[Document],
    source: Sequence[Document],
    pretrain_corpus: Sequence[Document],
    margin: float = 0.1,
) -> LeakReport:
    """Compare each rewrite against its source and the pre-training corpus.

    ``rewritten[i]`` must be the rewrite of ``source[i]``. For each i the
    audit computes s_src = unigram_f1(rewritten[i], source[i]) and the
    maximum s_pre over the pre-training corpus; the document is flagged
    iff s_pre >= s_src + margin. leak_score is the flagged fraction.
    """
    if len(rewritten) != len(source):
        raise ValueError(
            f"misaligned inputs: {len(rewritten)} rewritten vs {len(source)} source"
        )
    pretrain_tokens = [tokenize(doc.text) for doc in pretrain_corpus]
    report = LeakReport(margin=margin)
    for rewrite, orig in zip(rewritten, source):
        toks = tokenize(rewrite.text)
        s_src = unigram_f1(toks, tokenize(orig.text))
        s_pre = 0.0
        nearest = -1
        for j, cand in enumerate(pretrain_tokens):
            s = unigram_f1(toks, cand)
            if s > s_pre:
                s_pre = s
                nearest = j
        report.similarity_to_source.append(s_src)
        report.max_similarity_to_pretrain.append(s_pre)
        report.nearest_pretrain_index.append(nearest)
        report.flagged.append(s_pre >= s_src + margin)
    return report
