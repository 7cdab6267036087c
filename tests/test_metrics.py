"""Metrics against independent oracles, hand computations, and properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprw.corpus import Document
from dprw.metrics import PretrainIndex, bleu, bleu_counted, bleu_reference, leak_audit, macro_f1, unigram_f1

from oracles import (
    CURATED_BLEU_PAIRS,
    CURATED_LEAK_CASES,
    MACRO_F1_HAND_CASES,
    bleu_brute_force,
    leak_audit_brute_force,
    macro_f1_fraction,
)

tokens = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=8)
nonempty_tokens = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=8)


class TestBleu:
    def test_matches_oracle_on_curated_pairs(self):
        assert len(CURATED_BLEU_PAIRS) == 20
        for hyp, ref in CURATED_BLEU_PAIRS:
            assert bleu(hyp, ref) == pytest.approx(bleu_brute_force(hyp, ref), abs=1e-9)

    def test_oracle_agrees_with_analytic_value(self):
        # all precisions 1, brevity exp(1 - 4/3): anchors the oracle itself
        hyp, ref = ["the", "cat", "sat"], ["the", "cat", "sat", "down"]
        assert bleu_brute_force(hyp, ref) == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-12)
        assert bleu(hyp, ref) == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-12)

    def test_identity_is_exactly_one(self):
        assert bleu(["a"], ["a"]) == 1.0
        assert bleu(["x", "y", "z", "w", "v"], ["x", "y", "z", "w", "v"]) == 1.0

    def test_zero_unigram_overlap_is_zero(self):
        assert bleu(["a", "b"], ["c", "d"]) == 0.0

    def test_empty_hypothesis_is_zero(self):
        assert bleu([], ["a"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            bleu(["a"], [])

    @given(hyp=tokens, ref=nonempty_tokens)
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_random_pairs(self, hyp, ref):
        assert bleu(hyp, ref) == pytest.approx(bleu_brute_force(hyp, ref), abs=1e-9)

    def test_counted_reference_equals_bleu_on_curated_pairs(self):
        for hyp, ref in CURATED_BLEU_PAIRS:
            assert bleu_counted(hyp, bleu_reference(ref)) == bleu(hyp, ref)

    @given(hyps=st.lists(tokens, min_size=1, max_size=6), ref=nonempty_tokens)
    @settings(max_examples=300, deadline=None)
    def test_one_counted_reference_scores_many_hypotheses_as_bleu_does(self, hyps, ref):
        counted = bleu_reference(ref)
        assert [bleu_counted(hyp, counted) for hyp in hyps] == [bleu(hyp, ref) for hyp in hyps]

    @given(x=nonempty_tokens)
    def test_self_bleu_is_one_and_bounded(self, x):
        assert bleu(x, x) == 1.0

    @given(hyp=tokens, ref=nonempty_tokens)
    def test_range(self, hyp, ref):
        score = bleu(hyp, ref)
        assert 0.0 <= score <= 1.0


class TestMacroF1:
    def test_hand_cases_exact(self):
        assert len(MACRO_F1_HAND_CASES) == 10
        for gold, pred, labels, expected in MACRO_F1_HAND_CASES:
            assert macro_f1(pred, gold, labels) == float(expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            macro_f1(["a"], ["a", "b"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_f1([], [], ["a"])

    # predictions and golds may fall outside the label set ("y", "z"), and
    # label-set entries may be absent from both sides ("f")
    @given(
        data=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d", "z"]), st.sampled_from(["a", "b", "c", "d", "y"])),
            min_size=1,
            max_size=60,
        ),
        labels=st.lists(st.sampled_from(["a", "b", "c", "d", "f"]), min_size=1, max_size=5, unique=True),
    )
    @settings(max_examples=500, deadline=None)
    def test_equals_the_fraction_oracle_bit_for_bit(self, data, labels):
        pred = [p for p, _ in data]
        gold = [g for _, g in data]
        assert macro_f1(pred, gold, labels) == macro_f1_fraction(pred, gold, labels)

    @given(
        data=st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=50, max_size=400),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_the_fraction_oracle_on_many_labels(self, data):
        # many distinct denominators, so the common multiple is large
        pred = [f"l{p}" for p, _ in data]
        gold = [f"l{g}" for _, g in data]
        labels = [f"l{i}" for i in range(15)]
        assert macro_f1(pred, gold, labels) == macro_f1_fraction(pred, gold, labels)

    @given(
        data=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"])),
            min_size=1,
            max_size=20,
        )
    )
    def test_relabeling_invariance(self, data):
        pred = [p for p, _ in data]
        gold = [g for _, g in data]
        swap = {"a": "b", "b": "c", "c": "a"}
        swapped_pred = [swap[p] for p in pred]
        swapped_gold = [swap[g] for g in gold]
        assert macro_f1(pred, gold, ["a", "b", "c"]) == macro_f1(
            swapped_pred, swapped_gold, ["a", "b", "c"]
        )


class TestUnigramF1:
    def test_identical(self):
        assert unigram_f1(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert unigram_f1(["a"], ["b"]) == 0.0

    def test_half_overlap(self):
        assert unigram_f1(["x", "y"], ["y", "z"]) == 0.5

    def test_both_empty(self):
        assert unigram_f1([], []) == 1.0

    def test_one_empty(self):
        assert unigram_f1([], ["a"]) == 0.0
        assert unigram_f1(["a"], []) == 0.0

    def test_multiset_clipping(self):
        # overlap of ["a","a"] with ["a"] is 1, not 2
        assert unigram_f1(["a", "a"], ["a"]) == pytest.approx(2.0 / 3.0)

    @given(a=tokens, b=tokens)
    def test_symmetry(self, a, b):
        assert unigram_f1(a, b) == unigram_f1(b, a)

    @given(a=tokens, b=tokens)
    def test_range(self, a, b):
        assert 0.0 <= unigram_f1(a, b) <= 1.0


def _docs(texts: list[str]) -> list[Document]:
    return [Document(text=t, label="x") for t in texts]


def _assert_same_report(got, expected):
    """Every LeakReport field equal, floats compared by their bits."""
    assert got.margin == expected.margin
    for name in ("similarity_to_source", "max_similarity_to_pretrain"):
        assert [x.hex() for x in getattr(got, name)] == [x.hex() for x in getattr(expected, name)], name
        assert all(type(x) is float for x in getattr(got, name)), name
    assert got.nearest_pretrain_index == expected.nearest_pretrain_index
    assert all(type(j) is int for j in got.nearest_pretrain_index)
    assert got.flagged == expected.flagged
    assert got.leak_score == expected.leak_score


class TestLeakAudit:
    def test_faithful_rewrites_score_zero(self):
        source = _docs(["book a flight", "cancel my trip"])
        pretrain = _docs(["play some music", "dim the lights"])
        report = leak_audit(source, source, pretrain)
        assert report.leak_score == 0.0
        assert report.similarity_to_source == [1.0, 1.0]

    def test_verbatim_pretrain_copies_score_one(self):
        source = _docs(["book a flight", "cancel my trip"])
        pretrain = _docs(["play some music", "dim the lights"])
        report = leak_audit(pretrain, source, pretrain)
        assert report.leak_score == 1.0
        assert report.nearest_pretrain_index == [0, 1]
        assert report.max_similarity_to_pretrain == [1.0, 1.0]

    def test_half_copied_half_faithful(self):
        source = _docs(["book a flight", "cancel my trip", "show fare rules", "list all seats"])
        pretrain = _docs(["play some music", "dim the lights"])
        rewritten = [pretrain[0], pretrain[1], source[2], source[3]]
        report = leak_audit(rewritten, source, pretrain)
        assert report.leak_score == 0.5
        assert report.flagged == [True, True, False, False]

    def test_a_pretrain_index_gives_the_documents_report(self):
        source = _docs(["book a flight", "cancel my trip", "show fare rules", ""])
        pretrain = _docs(["play some music", "dim the lights", "book a a flight", "", "show show rules"])
        rewritten = _docs(["book my flight", "play music", "", "show rules show"])
        index = PretrainIndex(pretrain)
        assert len(index) == len(pretrain)
        for margin in (0.0, 0.1):
            _assert_same_report(
                leak_audit(rewritten, source, index, margin=margin),
                leak_audit(rewritten, source, pretrain, margin=margin),
            )

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            leak_audit(_docs(["a"]), _docs(["a", "b"]), _docs(["c"]))

    def test_empty_pretrain_corpus(self):
        source = _docs(["book a flight"])
        report = leak_audit(source, source, [])
        assert report.leak_score == 0.0
        assert report.nearest_pretrain_index == [-1]
        assert report.max_similarity_to_pretrain == [0.0]

    def test_ties_go_to_the_first_pretrain_document(self):
        report = leak_audit(_docs(["a b"]), _docs(["c"]), _docs(["c d", "a c", "b c", "a c"]))
        assert report.nearest_pretrain_index == [1]
        assert report.max_similarity_to_pretrain == [0.5]

    def test_repeated_tokens_count_up_to_the_smaller_multiplicity(self):
        # overlaps with the rewrite "a a a b": min counts give 2, 3 and 1
        report = leak_audit(_docs(["a a a b"]), _docs(["z"]), _docs(["a a", "a a a a b", "b b b"]))
        assert report.nearest_pretrain_index == [1]
        assert report.max_similarity_to_pretrain == [2.0 * 4 / 9]

    def test_empty_documents_follow_unigram_f1(self):
        # an empty rewrite matches only an empty pre-training document
        report = leak_audit(_docs(["", ""]), _docs(["a", ""]), _docs(["a", "", "b"]))
        assert report.nearest_pretrain_index == [1, 1]
        assert report.max_similarity_to_pretrain == [1.0, 1.0]
        assert report.similarity_to_source == [0.0, 1.0]
        assert report.flagged == [True, False]

    def test_matches_oracle_on_curated_cases(self):
        for rewritten, source, pretrain in CURATED_LEAK_CASES:
            _assert_same_report(
                leak_audit(rewritten, source, pretrain),
                leak_audit_brute_force(rewritten, source, pretrain),
            )

    @given(
        data=st.data(),
        n_pretrain=st.integers(min_value=0, max_value=7),
        margin=st.sampled_from([0.0, 0.1, 0.25]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_bit_for_bit(self, data, n_pretrain, margin):
        # a three-word alphabet and up to 8 tokens per document give many
        # repeated tokens, empty documents and tied similarities
        text = st.lists(st.sampled_from(["a", "b", "c"]), max_size=8).map(" ".join)
        rewritten = _docs(data.draw(st.lists(text, max_size=6)))
        source = _docs(data.draw(st.lists(text, min_size=len(rewritten), max_size=len(rewritten))))
        pretrain = _docs(data.draw(st.lists(text, min_size=n_pretrain, max_size=n_pretrain)))
        _assert_same_report(
            leak_audit(rewritten, source, pretrain, margin=margin),
            leak_audit_brute_force(rewritten, source, pretrain, margin=margin),
        )

    @given(
        margins=st.tuples(
            st.floats(min_value=0.0, max_value=0.5),
            st.floats(min_value=0.0, max_value=0.5),
        ),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_score_monotone_in_margin(self, margins, seed):
        import random

        rng = random.Random(seed)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        make = lambda: " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
        source = _docs([make() for _ in range(5)])
        rewritten = _docs([make() for _ in range(5)])
        pretrain = _docs([make() for _ in range(4)])
        lo, hi = sorted(margins)
        score_lo = leak_audit(rewritten, source, pretrain, margin=lo).leak_score
        score_hi = leak_audit(rewritten, source, pretrain, margin=hi).leak_score
        assert score_hi <= score_lo
