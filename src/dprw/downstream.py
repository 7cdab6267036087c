"""Intent classifier used to evaluate rewritten text on the original task.

Deliberately small: mean of token embeddings into a linear softmax layer.
The case-study signal is the gap between same-pretrain and cross-pretrain
rewrites, which survives any reasonable classifier; this one is fast,
deterministic, and has an exactly order-invariant pooling stage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import Document, Vocabulary, collect_labels, tokenize
from .metrics import macro_f1
from .numcore import AdamState, Array, Rng, adam_step, require_finite, softmax

__all__ = [
    "ClassifierConfig",
    "ClassifierModel",
    "train_classifier",
    "predict_batch",
    "random_baseline",
    "majority_baseline",
]


@dataclass(frozen=True)
class ClassifierConfig:
    embed_dim: int = 64
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 32

    def __post_init__(self):
        if self.embed_dim < 1 or self.batch_size < 1:
            raise ValueError("embed_dim and batch_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class ClassifierModel:
    labels: list[str]
    embedding: Array
    out_w: Array
    out_b: Array

    def parameters(self) -> dict[str, Array]:
        return {"embedding": self.embedding, "out_w": self.out_w, "out_b": self.out_b}


def _mean_pool_matrix(docs: list[Document], vocab: Vocabulary) -> Array:
    """Row i is the normalized bag-of-tokens vector of doc i.

    (counts / length) @ embedding is exactly the mean token embedding, so
    pooling is order-invariant by construction; empty docs get a zero row.
    """
    pooled = np.zeros((len(docs), len(vocab)))
    for i, doc in enumerate(docs):
        ids = [vocab.token_id(t) for t in tokenize(doc.text)]
        if not ids:
            continue
        np.add.at(pooled[i], ids, 1.0 / len(ids))
    return pooled


def _logits(pooled: Array, model: ClassifierModel) -> Array:
    return (pooled @ model.embedding) @ model.out_w + model.out_b


def predict_batch(model: ClassifierModel, docs: list[Document], vocab: Vocabulary) -> list[str]:
    """Argmax labels; np.argmax takes the first maximum, so ties resolve
    to the lowest label index."""
    if not docs:
        return []
    logits = _logits(_mean_pool_matrix(docs, vocab), model)
    return [model.labels[i] for i in np.argmax(logits, axis=1)]


def _gradients(model: ClassifierModel, pooled: Array, targets: Array) -> dict[str, Array]:
    """Parameter gradients of the mean softmax cross-entropy of one
    minibatch, logits = (pooled @ embedding) @ out_w + out_b, written out
    with the arithmetic reverse mode performs on that graph."""
    hidden = pooled @ model.embedding
    logits = hidden @ model.out_w + model.out_b
    require_finite(logits, "classifier logits")
    g = softmax(logits)[0]
    n = len(targets)
    g[np.arange(n), targets] -= 1.0
    g = g * (1.0 / n)
    return {"embedding": pooled.T @ (g @ model.out_w.T), "out_w": hidden.T @ g, "out_b": g.sum(axis=0)}


def _init_model(labels: list[str], vocab: Vocabulary, config: ClassifierConfig, rng: Rng) -> ClassifierModel:
    return ClassifierModel(
        labels=list(labels),
        embedding=rng.derive("embedding").normal(0.0, 0.1, (len(vocab), config.embed_dim)),
        out_w=rng.derive("out_w").normal(0.0, 1.0 / np.sqrt(config.embed_dim), (config.embed_dim, len(labels))),
        out_b=np.zeros(len(labels)),
    )


def train_classifier(
    train: list[Document],
    validation: list[Document],
    vocab: Vocabulary,
    config: ClassifierConfig,
    seed: int,
) -> ClassifierModel:
    """Adam on softmax cross-entropy; returns the epoch snapshot with the
    best validation macro-F1 (earliest epoch wins ties). With an empty
    validation split the final epoch is returned."""
    if not train:
        raise ValueError("training split is empty")
    labels = collect_labels(train, validation)
    rng = Rng(seed)
    model = _init_model(labels, vocab, config, rng.derive("classifier"))
    if config.epochs == 0:
        warnings.warn("epochs=0: returning an untrained classifier")
        return model

    label_index = {lab: i for i, lab in enumerate(labels)}
    pooled_all = _mean_pool_matrix(train, vocab)
    targets_all = np.array([label_index[d.label] for d in train], dtype=np.int64)
    pooled_val = _mean_pool_matrix(validation, vocab) if validation else None
    gold_val = [d.label for d in validation]

    opt = AdamState.init(model.parameters())
    shuffle = rng.derive("shuffle")
    best_f1 = -1.0
    best_params = None
    for epoch in range(config.epochs):
        order = shuffle.derive(epoch).permutation(len(train))
        for start in range(0, len(order), config.batch_size):
            chunk = order[start : start + config.batch_size]
            grads = _gradients(model, pooled_all[chunk], targets_all[chunk])
            adam_step(model.parameters(), grads, config.learning_rate, opt)
        if validation:
            # predict_batch's arithmetic on the validation split pooled once
            preds = [labels[i] for i in np.argmax(_logits(pooled_val, model), axis=1)]
            f1 = macro_f1(preds, gold_val, labels)
            if f1 > best_f1:
                best_f1 = f1
                best_params = {k: v.copy() for k, v in model.parameters().items()}
    if best_params is not None:
        model.embedding = best_params["embedding"]
        model.out_w = best_params["out_w"]
        model.out_b = best_params["out_b"]
    return model


def random_baseline(test: list[Document], label_set: list[str], rng: Rng) -> float:
    """Macro-F1 of uniform random label predictions."""
    if not test:
        raise ValueError("test split is empty")
    preds = [label_set[int(i)] for i in rng.integers(0, len(label_set), len(test))]
    return macro_f1(preds, [d.label for d in test], label_set)


def majority_baseline(train: list[Document], test: list[Document]) -> float:
    """Macro-F1 of predicting the most frequent training label everywhere.

    Count ties break toward the label seen first in the training split.
    """
    if not train or not test:
        raise ValueError("train and test splits must be non-empty")
    label_set = collect_labels(train, test)
    counts: dict[str, int] = {}
    for doc in train:
        counts[doc.label] = counts.get(doc.label, 0) + 1
    majority = max(counts, key=lambda lab: (counts[lab], -label_set.index(lab)))
    preds = [majority] * len(test)
    return macro_f1(preds, [d.label for d in test], label_set)
