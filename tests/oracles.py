"""Independent oracles the test suite checks the package against.

The BLEU oracle below is deliberately naive: n-grams are materialized as
tuple lists and clipped counts are computed by scanning and removing from
a mutable copy of the reference list. No Counter, no shared code with the
package implementation. Keep it slow and obvious.

The leak-audit oracle is the audit's original per-pair loop: every
rewrite is scored against every pre-training document with a
list-removal unigram F1. It shares only ``tokenize`` and the report type
with the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from dprw.corpus import Document, tokenize
from dprw.metrics import LeakReport


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
