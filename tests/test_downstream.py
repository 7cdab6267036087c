"""Mean-embedding classifier: training, prediction, and the baselines."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import classifier_grads_tape

import dprw.downstream
from dprw.corpus import Document, build_vocabulary, collect_labels
from dprw.downstream import (
    ClassifierConfig,
    majority_baseline,
    predict_batch,
    random_baseline,
    train_classifier,
)
from dprw.metrics import macro_f1
from dprw.numcore import NonFiniteError, Rng

SEPARABLE_TRAIN = [
    Document("book a flight", "book"), Document("book the flight now", "book"),
    Document("book me a trip", "book"), Document("cancel my flight", "cancel"),
    Document("cancel the trip", "cancel"), Document("cancel it now", "cancel"),
]
SEPARABLE_TEST = [
    Document("book that flight", "book"), Document("i want to book", "book"),
    Document("cancel that flight", "cancel"), Document("i want to cancel", "cancel"),
]


def fit(train, validation=(), config=None, seed=0):
    vocab = build_vocabulary(train)
    model = train_classifier(
        train, list(validation), vocab, config or ClassifierConfig(epochs=40), seed
    )
    return model, vocab


def test_separable_corpus_reaches_perfect_f1():
    model, vocab = fit(SEPARABLE_TRAIN)
    preds = predict_batch(model, SEPARABLE_TEST, vocab)
    labels = collect_labels(SEPARABLE_TRAIN)
    assert macro_f1(preds, [d.label for d in SEPARABLE_TEST], labels) == 1.0


def test_training_is_deterministic_in_seed():
    m1, vocab = fit(SEPARABLE_TRAIN, seed=3)
    m2, _ = fit(SEPARABLE_TRAIN, seed=3)
    np.testing.assert_array_equal(m1.embedding, m2.embedding)
    np.testing.assert_array_equal(m1.out_w, m2.out_w)
    m3, _ = fit(SEPARABLE_TRAIN, seed=4)
    assert not np.array_equal(m1.embedding, m3.embedding)


def test_prediction_is_order_invariant():
    model, vocab = fit(SEPARABLE_TRAIN)
    forward = predict_batch(model, SEPARABLE_TEST, vocab)
    backward = predict_batch(model, SEPARABLE_TEST[::-1], vocab)
    assert forward == backward[::-1]


def test_label_space_comes_from_train_and_validation():
    validation = [Document("strange words", "other")]
    model, _ = fit(SEPARABLE_TRAIN, validation, ClassifierConfig(epochs=1))
    assert model.labels == ["book", "cancel", "other"]


def test_empty_train_raises():
    with pytest.raises(ValueError):
        fit([])


def test_zero_epochs_warns_and_returns_untrained_model():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model, vocab = fit(SEPARABLE_TRAIN, config=ClassifierConfig(epochs=0))
    assert any("epoch" in str(w.message).lower() for w in caught)
    assert len(predict_batch(model, SEPARABLE_TEST, vocab)) == len(SEPARABLE_TEST)


@pytest.mark.parametrize("with_validation, pools", [(True, 2), (False, 1)])
def test_each_split_is_pooled_once(monkeypatch, with_validation, pools):
    calls = []
    real = dprw.downstream._mean_pool_matrix

    def counting(docs, vocab):
        calls.append(len(docs))
        return real(docs, vocab)

    monkeypatch.setattr(dprw.downstream, "_mean_pool_matrix", counting)
    validation = SEPARABLE_TEST if with_validation else ()
    fit(SEPARABLE_TRAIN, validation, ClassifierConfig(epochs=5))
    assert len(calls) == pools
    assert calls[0] == len(SEPARABLE_TRAIN)


def test_validation_snapshot_takes_earliest_best_epoch():
    # all-OOV validation docs pool to the same vector every epoch, so the
    # validation score is constant and the earliest epoch must win the tie
    train = SEPARABLE_TRAIN
    validation = [Document("zzz yyy", "book"), Document("qqq www", "cancel")]
    long_run, _ = fit(train, validation, ClassifierConfig(epochs=25), seed=1)
    one_epoch, _ = fit(train, validation, ClassifierConfig(epochs=1), seed=1)
    np.testing.assert_array_equal(long_run.embedding, one_epoch.embedding)
    np.testing.assert_array_equal(long_run.out_w, one_epoch.out_w)
    np.testing.assert_array_equal(long_run.out_b, one_epoch.out_b)
    # without validation the final epoch is returned instead
    final_run, _ = fit(train, (), ClassifierConfig(epochs=25), seed=1)
    assert not np.array_equal(long_run.out_w, final_run.out_w)


def test_all_unknown_test_tokens_fall_back_to_a_constant_prediction():
    model, vocab = fit(SEPARABLE_TRAIN)
    unseen = [Document("completely novel words", "book")]
    preds = predict_batch(model, unseen, vocab)
    assert preds[0] in model.labels


def test_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(epochs=-1)
    with pytest.raises(ValueError):
        ClassifierConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        ClassifierConfig(embed_dim=0)


# -- baselines ---------------------------------------------------------------------


def test_majority_baseline_hand_case():
    # majority label "a"; test: 2 of "a", 1 of "b" -> F1(a)=2*2/(2*2+1+0)=0.8, F1(b)=0
    train = [Document("x", "a"), Document("x", "a"), Document("x", "b")]
    test = [Document("y", "a"), Document("y", "a"), Document("y", "b")]
    assert majority_baseline(train, test) == pytest.approx(0.4)


def test_majority_baseline_tie_breaks_toward_first_seen():
    train = [Document("x", "b"), Document("x", "a"), Document("x", "a"), Document("x", "b")]
    test = [Document("y", "b")]
    # counts tie; predicting b (seen first) gives F1(b)=1, F1(a)=0/0->0,
    # macro 0.5; predicting a instead would score 0.0
    assert majority_baseline(train, test) == pytest.approx(0.5)


def test_random_baseline_near_inverse_label_count():
    labels = ["a", "b", "c", "d"]
    test = [Document("t", labels[i % 4]) for i in range(400)]
    scores = [
        random_baseline(test, labels, Rng(s).derive("rb")) for s in range(10)
    ]
    assert abs(float(np.mean(scores)) - 0.25) < 0.05


def test_random_baseline_is_deterministic_per_stream():
    test = [Document("t", "a"), Document("t", "b")]
    a = random_baseline(test, ["a", "b"], Rng(5).derive("rb"))
    b = random_baseline(test, ["a", "b"], Rng(5).derive("rb"))
    assert a == b


def random_classifier(seed: int, vocab: int, dim: int, labels: int):
    rng = Rng(seed)
    model = dprw.downstream.ClassifierModel(
        labels=[f"l{i}" for i in range(labels)],
        embedding=rng.derive("e").normal(0.0, 1.0, (vocab, dim)),
        out_w=rng.derive("w").normal(0.0, 1.0, (dim, labels)),
        out_b=rng.derive("b").normal(0.0, 1.0, labels),
    )
    pooled = rng.derive("p").random((int(rng.derive("n").integers(1, 9)), vocab))
    return model, pooled, rng.derive("t").integers(0, labels, len(pooled))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), vocab=st.integers(1, 6), dim=st.integers(1, 5), labels=st.integers(2, 5))
def test_minibatch_gradients_equal_the_tapes_bit_for_bit(seed, vocab, dim, labels):
    model, pooled, targets = random_classifier(seed, vocab, dim, labels)
    grads = dprw.downstream._gradients(model, pooled, targets)
    expected = classifier_grads_tape(model.parameters(), pooled, targets)
    assert set(grads) == set(expected)
    for name, g in expected.items():
        assert grads[name].tobytes() == g.tobytes(), name


def test_non_finite_logits_raise():
    model, pooled, targets = random_classifier(3, 4, 3, 2)
    model.out_w[0, 0] = np.inf
    with pytest.raises(NonFiniteError, match="classifier logits"):
        dprw.downstream._gradients(model, pooled, targets)
