"""Experiment orchestration: the three run modes plus the case-study matrix.

Every run function takes one ExperimentConfig, writes `report.json`,
`summary.txt`, and `config_resolved.json` into the output directory, and
returns the report dict. Reports contain no timestamps or durations, so
repeating an invocation with the same seeds produces byte-identical
output. Seeds and matrix cells are independent work units; `jobs` > 1
fans them out over processes without changing any result. The case
study is composed of the same pretrain, rewrite and downstream units the
single-stage modes run.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .autoencoder import (
    Autoencoder,
    AutoencoderCheckpoint,
    AutoencoderConfig,
    load_checkpoint,
    pad_batch,
    pretrain,
    save_checkpoint,
)
from .corpus import (
    UNK,
    Document,
    LabeledDataset,
    build_vocabulary,
    decode_ids,
    encode,
    load_dataset,
    tokenize,
    write_split,
)
from .dpmech import PrivacyParams, privatize
from .downstream import (
    ClassifierConfig,
    majority_baseline,
    predict_batch,
    random_baseline,
    train_classifier,
)
from .metrics import PretrainIndex, bleu_counted, bleu_reference, leak_audit, macro_f1
from .numcore import Rng

__all__ = [
    "MODES",
    "EPSILON_LADDER",
    "ExperimentConfig",
    "UnitError",
    "epsilon_repr",
    "aggregate_seed_stats",
    "rewrite_documents",
    "run_pretrain",
    "run_rewrite",
    "run_downstream",
    "run_case_study",
    "run_experiment",
]

MODES = ("pretrain", "rewrite", "downstream", "case_study")

# epsilon sweep of the case study, strongest-signal first
EPSILON_LADDER = (math.inf, 1000.0, 100.0, 10.0, 1.0)

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


def epsilon_repr(eps: float) -> str:
    """Stable textual epsilon for report keys and directory names."""
    if math.isinf(eps):
        return "inf"
    if float(eps) == int(eps):
        return str(int(eps))
    return repr(float(eps))


@dataclass
class ExperimentConfig:
    """One experiment invocation; validation is mode-specific."""

    mode: str
    out_dir: str
    train_path: str | None = None
    validation_path: str | None = None
    test_path: str | None = None
    dataset_a: str | None = None
    dataset_b: str | None = None
    checkpoint_in: str | None = None
    checkpoint_out: str | None = None
    epsilon: float | None = None
    clip_c: float | None = None  # rewrite: None is the checkpoint's radius
    autoencoder: AutoencoderConfig = field(default_factory=AutoencoderConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    seeds: list[int] = field(default_factory=lambda: list(DEFAULT_SEEDS))
    jobs: int = 1
    leak_margin: float = 0.1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if not (math.isfinite(self.leak_margin) and self.leak_margin >= 0):
            raise ValueError("leak_margin must be finite and non-negative")
        if self.mode == "pretrain" and not self.train_path:
            raise ValueError("pretrain mode requires a training split")
        if self.mode == "rewrite":
            if not self.checkpoint_in:
                raise ValueError("rewrite mode requires a checkpoint")
            if self.epsilon is None:
                raise ValueError("rewrite mode requires privacy parameters (epsilon)")
            if self.clip_c is not None:
                PrivacyParams(self.epsilon, self.clip_c)
            elif math.isnan(self.epsilon) or self.epsilon <= 0:
                # an unset radius is the checkpoint's: run_rewrite checks the pair
                raise ValueError("epsilon must be positive or infinite")
            if not self.train_path:
                raise ValueError("rewrite mode requires a training split")
        if self.mode == "downstream" and not (self.train_path and self.test_path):
            raise ValueError("downstream mode requires train and test splits")
        if self.mode == "case_study":
            if not (self.dataset_a and self.dataset_b):
                raise ValueError("case_study mode requires two dataset directories")
            for eps in EPSILON_LADDER:  # the case study rewrites at every one
                PrivacyParams(eps, self.autoencoder.clip_c)

    def to_dict(self) -> dict:
        """Every field, with ``epsilon`` as ``epsilon_repr``."""
        out = asdict(self)
        out["epsilon"] = None if self.epsilon is None else epsilon_repr(self.epsilon)
        return out


def aggregate_seed_stats(values: list[float]) -> dict:
    """Mean and sample (n-1) standard deviation; one value has std 0."""
    if not values:
        raise ValueError("cannot aggregate an empty value list")
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std}


def _stats_block(per_seed: dict[int, float]) -> dict:
    """Per-seed values (string keys for JSON) plus their aggregate."""
    values = [per_seed[s] for s in sorted(per_seed)]
    return {"per_seed": {str(s): per_seed[s] for s in sorted(per_seed)}, **aggregate_seed_stats(values)}


def _random_baseline_block(dataset: LabeledDataset, seeds: list[int]) -> dict:
    return _stats_block(
        {s: random_baseline(dataset.test, dataset.label_set, Rng(s).derive("random-baseline")) for s in seeds}
    )


class UnitError(RuntimeError):
    """A work unit failed; the message names its (mode, corpus, seed)."""


def _unit(mode: str, corpus: str, seed: int) -> str:
    return f"{mode} unit ({corpus}, seed {seed})"


def _named(name: str, call, arg):
    try:
        return call(arg)
    except Exception as exc:
        raise UnitError(f"{name}: {exc}") from exc


def _map_units(jobs: int, fn, units: list[tuple[str, object]]) -> list:
    """``fn`` of each (name, payload) unit's payload, in order, over up to
    ``jobs`` processes; the first unit in order that raised is named in a
    ``UnitError``."""
    if jobs <= 1 or len(units) <= 1:
        return [_named(name, fn, payload) for name, payload in units]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [(name, pool.submit(fn, payload)) for name, payload in units]
        return [_named(name, Future.result, future) for name, future in futures]


# -- rewriting ----------------------------------------------------------------


def rewrite_documents(
    model: Autoencoder,
    docs: list[Document],
    privacy: PrivacyParams,
    seed: int,
    split_name: str,
) -> list[Document]:
    """Encode, privatize (clip and noise), and greedily decode every document.

    Noise for document i comes from the stream (seed, "rewrite", split,
    i), so results do not depend on iteration order or parallel sharding.
    At epsilon = inf no noise is drawn, so no stream is derived.
    A decode that produces no tokens is materialized as a single UNK so
    the document count and TSV format survive.
    """
    if not docs:
        return []
    return _privatize_and_decode(model, docs, _encode_documents(model, docs), privacy, seed, split_name)


def _encode_documents(model: Autoencoder, docs: list[Document]) -> np.ndarray:
    """Latents of a non-empty document list; no noise, no epsilon."""
    return model.encode_batch(pad_batch([encode(doc, model.vocabulary, model.config.max_len) for doc in docs]))


def _privatize_and_decode(
    model: Autoencoder,
    docs: list[Document],
    latents: np.ndarray,
    privacy: PrivacyParams,
    seed: int,
    split_name: str,
) -> list[Document]:
    """``rewrite_documents`` after the encoder, on ``docs``' latents."""
    if privacy.non_private:
        streams = [None] * len(docs)
    else:
        rng = Rng(seed)
        streams = [rng.derive("rewrite", split_name, i) for i in range(len(docs))]
    noisy = np.stack([privatize(latent, privacy, stream) for latent, stream in zip(latents, streams)])
    decoded = model.decode_greedy_batch(noisy)
    out = []
    for doc, token_ids in zip(docs, decoded):
        text = decode_ids(token_ids, model.vocabulary)
        out.append(Document(text=text if text else UNK, label=doc.label))
    return out


def _bleu_references(docs: list[Document]) -> list:
    """Each source document tokenized and its n-grams counted, once."""
    return [bleu_reference(tokenize(doc.text)) for doc in docs]


def _mean_bleu(rewritten: list[Document], references: list) -> float:
    scores = [bleu_counted(tokenize(r.text), ref) for r, ref in zip(rewritten, references)]
    return float(np.mean(scores)) if scores else 0.0


def _reconstruction_bleu(ckpt: AutoencoderCheckpoint, docs: list[Document]) -> float:
    """Noise-free rewrite quality of a checkpoint on its own corpus."""
    model = Autoencoder.from_checkpoint(ckpt)
    non_private = PrivacyParams(epsilon=math.inf, clip_c=ckpt.config.clip_c)
    rewritten = rewrite_documents(model, docs, non_private, seed=0, split_name="recon")
    return _mean_bleu(rewritten, _bleu_references(docs))


# -- report writing -----------------------------------------------------------


def _write_outputs(config: ExperimentConfig, report: dict, summary: str) -> dict:
    """Stamp the mode and resolved config into the report, write the three
    output files, and return the stamped report.

    Both JSON files are strict JSON: a NaN or infinite value raises
    ValueError before anything is written.
    """
    resolved = config.to_dict()
    report = {"mode": config.mode, "config": resolved, **report}
    texts = {
        "report.json": json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
        "summary.txt": summary,
        "config_resolved.json": json.dumps(resolved, indent=2, sort_keys=True, allow_nan=False) + "\n",
    }
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    return report


def _write_rewritten(directory: Path, train: list[Document], validation: list[Document]) -> None:
    """Rewritten-TSV layout: train.tsv, plus validation.tsv when that split
    is non-empty. The test split is never rewritten."""
    directory.mkdir(parents=True, exist_ok=True)
    write_split(train, directory / "train.tsv")
    if validation:
        write_split(validation, directory / "validation.tsv")


def _load_splits(config: ExperimentConfig) -> LabeledDataset:
    return load_dataset(config.train_path, config.validation_path, config.test_path)


# -- pretrain mode ------------------------------------------------------------


def _require_training_epochs(config: ExperimentConfig) -> None:
    """A pre-train without epochs has no final loss to report."""
    if config.autoencoder.epochs == 0:
        raise ValueError(f"epochs must be at least 1 for {config.mode}; with 0 there is no final loss")


def _pretrain_unit(payload) -> tuple[int, AutoencoderCheckpoint, float]:
    dataset, ae_config, seed = payload
    ckpt = pretrain(dataset, ae_config, seed)
    return seed, ckpt, _reconstruction_bleu(ckpt, dataset.train)


def run_pretrain(config: ExperimentConfig) -> dict:
    """Pre-train per seed; the first seed's checkpoint is the canonical
    artifact written to checkpoint_out (default <out_dir>/checkpoint.bin)."""
    _require_training_epochs(config)
    dataset = _load_splits(config)
    results = _map_units(
        config.jobs,
        _pretrain_unit,
        [
            (_unit("pretrain", config.train_path, seed), (dataset, config.autoencoder, seed))
            for seed in config.seeds
        ],
    )
    losses = {seed: ckpt.metadata["final_loss"] for seed, ckpt, _ in results}
    bleus = {seed: recon for seed, _, recon in results}
    canonical = results[0][1]
    ckpt_path = config.checkpoint_out or str(Path(config.out_dir) / "checkpoint.bin")
    Path(ckpt_path).parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(canonical, ckpt_path)

    loss_stats = _stats_block(losses)
    bleu_stats = _stats_block(bleus)
    report = {
        "metrics": {"final_loss": loss_stats, "reconstruction_bleu": bleu_stats},
        "provenance": {
            "checkpoint": ckpt_path,
            "canonical_seed": config.seeds[0],
            "train_path": config.train_path,
        },
    }
    summary = (
        "mode: pretrain\n"
        f"checkpoint: {ckpt_path}\n"
        f"final loss:          {loss_stats['mean']:.4f} ({loss_stats['std']:.4f})\n"
        f"reconstruction BLEU: {bleu_stats['mean']:.4f} ({bleu_stats['std']:.4f})\n"
    )
    return _write_outputs(config, report, summary)


# -- rewrite mode -------------------------------------------------------------


def _rewrite_unit(payload):
    """Rewrite the train and validation splits; never the test split."""
    ckpt, dataset, privacy, seed = payload
    model = Autoencoder.from_checkpoint(ckpt)
    train_rw = rewrite_documents(model, dataset.train, privacy, seed, "train")
    val_rw = rewrite_documents(model, dataset.validation, privacy, seed, "validation")
    return seed, train_rw, val_rw


def run_rewrite(config: ExperimentConfig) -> dict:
    """Rewrite train and validation per seed; the test split is never
    rewritten. Canonical TSVs come from the first seed. The recorded
    autoencoder config is the checkpoint's, not the defaults, and the clip
    radius is the one the checkpoint was pre-trained at: an unset
    ``clip_c`` takes it, and any other is refused."""
    ckpt = load_checkpoint(config.checkpoint_in)
    clip_c = ckpt.config.clip_c
    if config.clip_c is not None and config.clip_c != clip_c:
        raise ValueError(
            f"clip radius {config.clip_c} differs from the checkpoint's "
            f"clip_c {clip_c}; rewrite at the radius it was pre-trained at"
        )
    config = replace(config, clip_c=clip_c, autoencoder=ckpt.config)
    privacy = PrivacyParams(config.epsilon, clip_c)
    dataset = _load_splits(config)
    results = _map_units(
        config.jobs,
        _rewrite_unit,
        [
            (_unit("rewrite", config.train_path, seed), (ckpt, dataset, privacy, seed))
            for seed in config.seeds
        ],
    )
    train_refs = _bleu_references(dataset.train)
    bleu_train = {seed: _mean_bleu(rw_train, train_refs) for seed, rw_train, _ in results}
    per_seed_metrics = {"bleu_train": _stats_block(bleu_train)}
    if dataset.validation:
        val_refs = _bleu_references(dataset.validation)
        bleu_val = {seed: _mean_bleu(rw_val, val_refs) for seed, _, rw_val in results}
        per_seed_metrics["bleu_validation"] = _stats_block(bleu_val)

    rewritten_dir = Path(config.out_dir) / "rewritten"
    _write_rewritten(rewritten_dir, *results[0][1:])

    report = {
        "metrics": per_seed_metrics,
        "provenance": {
            "checkpoint": config.checkpoint_in,
            "epsilon": epsilon_repr(config.epsilon),
            "rewritten_dir": str(rewritten_dir),
            "canonical_seed": config.seeds[0],
            "test_split_rewritten": False,
        },
    }
    lines = ["mode: rewrite", f"epsilon: {epsilon_repr(config.epsilon)}"]
    for name, stats in per_seed_metrics.items():
        lines.append(f"{name}: {stats['mean']:.4f} ({stats['std']:.4f})")
    return _write_outputs(config, report, "\n".join(lines) + "\n")


# -- downstream mode ------------------------------------------------------------


def _downstream_unit(payload) -> tuple[int, float]:
    """Train on the dataset's train/validation splits; macro-F1 on its test split."""
    dataset, clf_config, seed = payload
    vocab = build_vocabulary(dataset.train)
    model = train_classifier(dataset.train, dataset.validation, vocab, clf_config, seed)
    preds = predict_batch(model, dataset.test, vocab)
    return seed, macro_f1(preds, [d.label for d in dataset.test], dataset.label_set)


def run_downstream(config: ExperimentConfig) -> dict:
    """Train the classifier per seed on the given (possibly rewritten)
    train/validation splits; always evaluate on the original test split."""
    dataset = _load_splits(config)
    if not dataset.test:
        raise ValueError("downstream mode requires a non-empty test split")
    train_labels = {d.label for d in dataset.train}
    missing = [lab for lab in dataset.label_set if lab not in train_labels]
    if missing:
        warnings.warn(
            f"labels absent from the training split are always scored wrong: {missing}"
        )
    results = _map_units(
        config.jobs,
        _downstream_unit,
        [
            (_unit("downstream", config.train_path, seed), (dataset, config.classifier, seed))
            for seed in config.seeds
        ],
    )
    f1 = _stats_block(dict(results))
    rand = _random_baseline_block(dataset, config.seeds)
    majority = majority_baseline(dataset.train, dataset.test)

    report = {
        "metrics": {
            "test_macro_f1": f1,
            "random_baseline": rand,
            "majority_baseline": majority,
        },
        "provenance": {
            "train_path": config.train_path,
            "test_path": config.test_path,
            "evaluated_on": "original test split",
        },
    }
    summary = (
        "mode: downstream\n"
        f"test macro-F1:     {f1['mean']:.4f} ({f1['std']:.4f})\n"
        f"random baseline:   {rand['mean']:.4f} ({rand['std']:.4f})\n"
        f"majority baseline: {majority:.4f}\n"
    )
    return _write_outputs(config, report, summary)


# -- case-study mode ------------------------------------------------------------


def _load_dataset_dir(path: str) -> tuple[str, LabeledDataset]:
    base = Path(path)
    val = base / "validation.tsv"
    test = base / "test.tsv"
    dataset = load_dataset(
        base / "train.tsv",
        val if val.exists() else None,
        test if test.exists() else None,
    )
    return base.name, dataset


def _case_unit(payload) -> dict:
    """One (pretrain corpus, seed) cell: pre-train once, then for both
    corpora at every epsilon rewrite the train and validation splits, run
    a leak audit and the downstream unit.

    Deterministic work is done once per unit, and every output is the
    one the single-stage units give. Each split is encoded once: the
    encoder draws no noise and never sees epsilon, so each epsilon
    privatizes and decodes the same latents (one decode call per
    epsilon and split, since decoded rows are only bitwise stable at a
    fixed batch). Each source document is tokenized and its n-grams
    counted once for BLEU, and the pre-training corpus is indexed once
    for the leak audits. The reconstruction BLEU is the (own corpus,
    epsilon = inf) bleu_vs_source: at epsilon = inf no noise is drawn,
    so that rewrite is exactly ``_reconstruction_bleu``'s.
    """
    pretrain_name, datasets, ae_config, clf_config, leak_margin, seed, keep_docs = payload
    pretrain_index = PretrainIndex(datasets[pretrain_name].train)
    ckpt = pretrain(datasets[pretrain_name], ae_config, seed)
    model = Autoencoder.from_checkpoint(ckpt)
    out = {
        "pretrain": pretrain_name,
        "seed": seed,
        "final_loss": ckpt.metadata["final_loss"],
        "settings": {},
        "rewritten_docs": {},
    }
    for rewrite_name, target in datasets.items():
        splits = {"train": target.train, "validation": target.validation}
        latents = {name: _encode_documents(model, docs) for name, docs in splits.items() if docs}
        train_refs = _bleu_references(target.train)
        for eps in EPSILON_LADDER:
            privacy = PrivacyParams(epsilon=eps, clip_c=ae_config.clip_c)
            train_rw, val_rw = (
                _privatize_and_decode(model, docs, latents[name], privacy, seed, name) if docs else []
                for name, docs in splits.items()
            )
            audit = leak_audit(train_rw, target.train, pretrain_index, margin=leak_margin)
            rewritten = replace(target, train=train_rw, validation=val_rw)
            _, f1 = _downstream_unit((rewritten, clf_config, seed))
            key = (rewrite_name, epsilon_repr(eps))
            out["settings"][key] = {
                "macro_f1": f1,
                "leak_score": audit.leak_score,
                "bleu_vs_source": _mean_bleu(train_rw, train_refs),
            }
            if keep_docs:
                out["rewritten_docs"][key] = (train_rw, val_rw)
    out["reconstruction_bleu"] = out["settings"][(pretrain_name, epsilon_repr(math.inf))]["bleu_vs_source"]
    return out


def run_case_study(config: ExperimentConfig) -> dict:
    """The full matrix: 2 pretrains x 2 rewrite corpora x 5 epsilons, all
    per seed, plus the 2 original-data downstream rows and baselines."""
    _require_training_epochs(config)
    name_a, ds_a = _load_dataset_dir(config.dataset_a)
    name_b, ds_b = _load_dataset_dir(config.dataset_b)
    if name_a == name_b:
        raise ValueError("case-study dataset directories must have distinct names")
    datasets = {name_a: ds_a, name_b: ds_b}
    canonical_seed = config.seeds[0]

    units = [
        (
            _unit("case_study", pretrain_name, seed),
            (pretrain_name, datasets, config.autoencoder, config.classifier, config.leak_margin, seed, seed == canonical_seed),
        )
        for pretrain_name in datasets
        for seed in config.seeds
    ]
    cell_results = _map_units(config.jobs, _case_unit, units)

    # one result per (dataset, seed), dataset-major
    originals = _map_units(
        config.jobs,
        _downstream_unit,
        [
            (_unit("case_study original", name, seed), (dataset, config.classifier, seed))
            for name, dataset in datasets.items()
            for seed in config.seeds
        ],
    )

    # keyed merge so assembly order is independent of execution order
    by_cell = {(r["pretrain"], r["seed"]): r for r in cell_results}
    settings_rows = []
    rewritten_root = Path(config.out_dir) / "rewritten"
    for pretrain_name in datasets:
        for rewrite_name in datasets:
            for eps in EPSILON_LADDER:
                eps_key = epsilon_repr(eps)
                per_seed = {
                    seed: by_cell[(pretrain_name, seed)]["settings"][(rewrite_name, eps_key)]
                    for seed in config.seeds
                }
                row = {"pretrain": pretrain_name, "rewrite": rewrite_name, "epsilon": eps_key}
                for metric in ("macro_f1", "leak_score", "bleu_vs_source"):
                    row[metric] = _stats_block({s: v[metric] for s, v in per_seed.items()})
                settings_rows.append(row)
                _write_rewritten(
                    rewritten_root / f"{pretrain_name}__{rewrite_name}__eps{eps_key}",
                    *by_cell[(pretrain_name, canonical_seed)]["rewritten_docs"][(rewrite_name, eps_key)],
                )

    n_seeds = len(config.seeds)
    original_rows = [
        {"dataset": name, "macro_f1": _stats_block(dict(originals[i * n_seeds : (i + 1) * n_seeds]))}
        for i, name in enumerate(datasets)
    ]

    baselines = {}
    for name, dataset in datasets.items():
        rand = _random_baseline_block(dataset, config.seeds)
        baselines[name] = {
            "random": rand,
            "majority": majority_baseline(dataset.train, dataset.test),
        }

    pretrain_metrics = {
        name: {
            metric: _stats_block({s: by_cell[(name, s)][metric] for s in config.seeds})
            for metric in ("final_loss", "reconstruction_bleu")
        }
        for name in datasets
    }

    report = {
        "settings": settings_rows,
        "originals": original_rows,
        "baselines": baselines,
        "pretrain_metrics": pretrain_metrics,
        "provenance": {
            "datasets": {name_a: config.dataset_a, name_b: config.dataset_b},
            "canonical_seed": canonical_seed,
            "rewritten_dir": str(rewritten_root),
            "test_split_rewritten": False,
        },
    }
    return _write_outputs(config, report, _case_study_summary(report))


def _case_study_summary(report: dict) -> str:
    """Plain-text matrix in the layout of the paper-style results table:
    one row per (pretrain, rewrite, epsilon) with mean (std) metrics."""
    lines = [
        f"{'pretrain':<14}{'rewrite':<14}{'epsilon':<9}{'macro-F1':<17}{'leak':<17}{'bleu-vs-source':<17}",
        "-" * 88,
    ]
    for row in report["settings"]:
        f1, leak, bl = row["macro_f1"], row["leak_score"], row["bleu_vs_source"]
        lines.append(
            f"{row['pretrain']:<14}{row['rewrite']:<14}{row['epsilon']:<9}"
            f"{f1['mean']:.3f} ({f1['std']:.3f})   "
            f"{leak['mean']:.3f} ({leak['std']:.3f})   "
            f"{bl['mean']:.3f} ({bl['std']:.3f})"
        )
    lines.append("-" * 88)
    for row in report["originals"]:
        f1 = row["macro_f1"]
        lines.append(
            f"{'original':<14}{row['dataset']:<14}{'-':<9}{f1['mean']:.3f} ({f1['std']:.3f})"
        )
    for name, base in report["baselines"].items():
        rand = base["random"]
        lines.append(
            f"baselines {name}: random {rand['mean']:.3f} ({rand['std']:.3f}), "
            f"majority {base['majority']:.3f}"
        )
    return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig) -> dict:
    """Dispatch on config.mode."""
    runner = {
        "pretrain": run_pretrain,
        "rewrite": run_rewrite,
        "downstream": run_downstream,
        "case_study": run_case_study,
    }[config.mode]
    return runner(config)
