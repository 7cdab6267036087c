"""Experiment orchestration: mode isolation, purity, determinism, reports."""

import dataclasses
import json
import math

import numpy as np
import pytest

import dprw.autoencoder
import dprw.dpmech
import dprw.downstream
import dprw.numcore
import dprw.pipeline
from dprw.autoencoder import Autoencoder, AutoencoderConfig, pretrain
from dprw.corpus import UNK, Document, load_split, write_split
from dprw.downstream import ClassifierConfig
from dprw.dpmech import PrivacyParams
from dprw.pipeline import (
    EPSILON_LADDER,
    ExperimentConfig,
    aggregate_seed_stats,
    epsilon_repr,
    rewrite_documents,
    run_case_study,
    run_downstream,
    run_experiment,
    run_pretrain,
    run_rewrite,
)
from dprw.synth import FLIGHTS, SMART_HOME, make_corpus

TINY_AE = AutoencoderConfig(embed_dim=8, hidden_dim=12, max_len=12, epochs=4, batch_size=8)
TINY_CLF = ClassifierConfig(epochs=4)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Two small corpora on disk plus a checkpoint pretrained on flights."""
    root = tmp_path_factory.mktemp("pipe")
    dirs = {}
    datasets = {}
    for spec in (FLIGHTS, SMART_HOME):
        ds = make_corpus(spec, seed=7, train_size=24, val_size=8, test_size=12)
        base = root / spec.name
        base.mkdir()
        write_split(ds.train, base / "train.tsv")
        write_split(ds.validation, base / "validation.tsv")
        write_split(ds.test, base / "test.tsv")
        dirs[spec.name] = base
        datasets[spec.name] = ds
    ckpt_dir = root / "pre"
    report = run_pretrain(
        ExperimentConfig(
            mode="pretrain",
            out_dir=str(ckpt_dir),
            train_path=str(dirs["flights"] / "train.tsv"),
            autoencoder=TINY_AE,
            seeds=[1, 2],
        )
    )
    return {
        "root": root,
        "dirs": dirs,
        "datasets": datasets,
        "checkpoint": report["provenance"]["checkpoint"],
    }


# -- config and helpers ---------------------------------------------------------


def test_config_validates_mode_and_mode_specific_fields(tmp_path):
    with pytest.raises(ValueError, match="unknown mode"):
        ExperimentConfig(mode="nope", out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="training split"):
        ExperimentConfig(mode="pretrain", out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="checkpoint"):
        ExperimentConfig(mode="rewrite", out_dir=str(tmp_path), train_path="t.tsv")
    with pytest.raises(ValueError, match="privacy"):
        ExperimentConfig(
            mode="rewrite", out_dir=str(tmp_path), train_path="t.tsv", checkpoint_in="c.bin"
        )
    with pytest.raises(ValueError, match="train and test"):
        ExperimentConfig(mode="downstream", out_dir=str(tmp_path), train_path="t.tsv")
    with pytest.raises(ValueError, match="dataset directories"):
        ExperimentConfig(mode="case_study", out_dir=str(tmp_path), dataset_a="a")
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(mode="pretrain", out_dir=str(tmp_path), train_path="t", seeds=[])
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(mode="pretrain", out_dir=str(tmp_path), train_path="t", seeds=[1, 1])
    with pytest.raises(ValueError, match="jobs"):
        ExperimentConfig(mode="pretrain", out_dir=str(tmp_path), train_path="t", jobs=0)
    for margin in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="leak_margin must be finite and non-negative"):
            ExperimentConfig(mode="case_study", out_dir=str(tmp_path), dataset_a="a", dataset_b="b", leak_margin=margin)


def test_config_to_dict_lists_every_field_with_privacy_flattened(tmp_path):
    config = ExperimentConfig(
        mode="rewrite",
        out_dir=str(tmp_path),
        train_path="t.tsv",
        checkpoint_in="c.bin",
        epsilon=math.inf, clip_c=2.0,
        classifier=TINY_CLF,
    )
    resolved = config.to_dict()
    assert set(resolved) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert (resolved["epsilon"], resolved["clip_c"]) == ("inf", 2.0)
    assert resolved["classifier"] == {"embed_dim": 64, "learning_rate": 0.01, "epochs": 4, "batch_size": 32}
    assert resolved["autoencoder"] == AutoencoderConfig().to_dict()
    assert resolved["seeds"] == [1, 2, 3, 4, 5]
    no_privacy = ExperimentConfig(mode="pretrain", out_dir=str(tmp_path), train_path="t.tsv").to_dict()
    assert (no_privacy["epsilon"], no_privacy["clip_c"]) == (None, None)


def test_epsilon_repr_forms():
    assert epsilon_repr(math.inf) == "inf"
    assert epsilon_repr(1000.0) == "1000"
    assert epsilon_repr(0.5) == "0.5"


def test_aggregate_seed_stats():
    stats = aggregate_seed_stats([1.0, 2.0, 3.0])
    assert stats["mean"] == pytest.approx(2.0)
    assert stats["std"] == pytest.approx(1.0)  # sample (n-1) convention
    assert aggregate_seed_stats([4.2]) == {"mean": 4.2, "std": 0.0}
    with pytest.raises(ValueError):
        aggregate_seed_stats([])


# -- rewrite_documents -----------------------------------------------------------


def test_rewrite_noise_is_keyed_by_seed_split_and_index(corpora):
    model = Autoencoder.from_checkpoint(dprw.autoencoder.load_checkpoint(corpora["checkpoint"]))
    docs = corpora["datasets"]["flights"].train[:6]
    privacy = PrivacyParams(epsilon=50.0, clip_c=TINY_AE.clip_c)
    a = rewrite_documents(model, docs, privacy, seed=3, split_name="train")
    b = rewrite_documents(model, docs, privacy, seed=3, split_name="train")
    assert a == b
    c = rewrite_documents(model, docs, privacy, seed=4, split_name="train")
    d = rewrite_documents(model, docs, privacy, seed=3, split_name="validation")
    assert a != c
    assert a != d
    assert all(r.label == s.label for r, s in zip(a, docs))


def test_rewrite_non_private_keeps_label_and_is_noiseless(corpora, monkeypatch):
    model = Autoencoder.from_checkpoint(dprw.autoencoder.load_checkpoint(corpora["checkpoint"]))
    docs = corpora["datasets"]["flights"].train[:4]

    def boom(*a, **k):
        raise AssertionError("sampler must not run at epsilon=inf")

    monkeypatch.setattr(dprw.dpmech, "sample_laplace", boom)
    out = rewrite_documents(
        model, docs, PrivacyParams(epsilon=math.inf, clip_c=5.0), seed=1, split_name="train"
    )
    assert len(out) == len(docs)


def test_rewrite_runs_privatize_once_per_document_on_its_own_stream(corpora, monkeypatch):
    model = Autoencoder.from_checkpoint(dprw.autoencoder.load_checkpoint(corpora["checkpoint"]))
    docs = corpora["datasets"]["flights"].train[:5]
    privacy = PrivacyParams(epsilon=10.0, clip_c=TINY_AE.clip_c)
    calls = []
    real = dprw.dpmech.privatize

    def spy(latent, params, rng):
        calls.append(rng.path)
        return real(latent, params, rng)

    monkeypatch.setattr(dprw.pipeline, "privatize", spy)
    rewrite_documents(model, docs, privacy, seed=3, split_name="train")
    assert calls == [("rewrite", "train", i) for i in range(len(docs))]


def _record_derivations(monkeypatch) -> list[tuple]:
    paths = []
    real = dprw.numcore.Rng.derive

    def spy(self, *keys):
        paths.append(self.path + keys)
        return real(self, *keys)

    monkeypatch.setattr(dprw.numcore.Rng, "derive", spy)
    return paths


def test_rewrite_derives_no_noise_stream_at_infinite_epsilon(corpora, monkeypatch):
    model = Autoencoder.from_checkpoint(dprw.autoencoder.load_checkpoint(corpora["checkpoint"]))
    docs = corpora["datasets"]["flights"].train[:5]
    paths = _record_derivations(monkeypatch)
    out = rewrite_documents(
        model, docs, PrivacyParams(epsilon=math.inf, clip_c=TINY_AE.clip_c), seed=3, split_name="train"
    )
    assert len(out) == len(docs)
    assert paths == []


def test_rewrite_derives_one_stream_per_document_at_finite_epsilon(corpora, monkeypatch):
    model = Autoencoder.from_checkpoint(dprw.autoencoder.load_checkpoint(corpora["checkpoint"]))
    docs = corpora["datasets"]["flights"].train[:5]
    paths = _record_derivations(monkeypatch)
    rewrite_documents(
        model, docs, PrivacyParams(epsilon=10.0, clip_c=TINY_AE.clip_c), seed=3, split_name="validation"
    )
    assert paths == [("rewrite", "validation", i) for i in range(len(docs))]


def test_rewrite_empty_decode_becomes_unk_placeholder(corpora):
    ckpt = dprw.autoencoder.load_checkpoint(corpora["checkpoint"])
    model = Autoencoder.from_checkpoint(ckpt)
    # force EOS as the argmax at every step: the decode is empty
    model.parameters["out_b"][:] = 0.0
    model.parameters["out_b"][2] = 1e6
    docs = [Document("book a flight", "x")]
    out = rewrite_documents(
        model, docs, PrivacyParams(epsilon=math.inf, clip_c=5.0), seed=1, split_name="train"
    )
    assert out[0].text == UNK
    assert out[0].label == "x"


def test_rewrite_documents_empty_list_is_empty(corpora):
    model = Autoencoder.from_checkpoint(dprw.autoencoder.load_checkpoint(corpora["checkpoint"]))
    assert rewrite_documents(
        model, [], PrivacyParams(epsilon=1.0, clip_c=5.0), seed=1, split_name="train"
    ) == []


# -- mode isolation ----------------------------------------------------------------


def test_pretrain_never_draws_privacy_noise(corpora, tmp_path, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("pretrain must not sample Laplace noise")

    monkeypatch.setattr(dprw.dpmech, "sample_laplace", boom)
    run_pretrain(
        ExperimentConfig(
            mode="pretrain",
            out_dir=str(tmp_path / "out"),
            train_path=str(corpora["dirs"]["flights"] / "train.tsv"),
            autoencoder=TINY_AE,
            seeds=[1],
        )
    )


def test_rewrite_never_updates_parameters(corpora, tmp_path, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("rewrite must not run optimizer steps")

    monkeypatch.setattr(dprw.autoencoder, "adam_step", boom)
    monkeypatch.setattr(dprw.downstream, "adam_step", boom)
    run_rewrite(
        ExperimentConfig(
            mode="rewrite",
            out_dir=str(tmp_path / "out"),
            train_path=str(corpora["dirs"]["flights"] / "train.tsv"),
            validation_path=str(corpora["dirs"]["flights"] / "validation.tsv"),
            checkpoint_in=corpora["checkpoint"],
            epsilon=100.0, clip_c=5.0,
            seeds=[1],
        )
    )


def test_rewrite_records_the_checkpoint_autoencoder_config(corpora, tmp_path):
    ckpt = dprw.autoencoder.load_checkpoint(corpora["checkpoint"])
    out = tmp_path / "out"
    report = run_rewrite(
        ExperimentConfig(
            mode="rewrite",
            out_dir=str(out),
            train_path=str(corpora["dirs"]["flights"] / "train.tsv"),
            checkpoint_in=corpora["checkpoint"],
            epsilon=100.0, clip_c=5.0,
            seeds=[1],
        )
    )
    assert ckpt.config != AutoencoderConfig()
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["autoencoder"] == ckpt.config.to_dict()
    assert report["config"]["autoencoder"] == ckpt.config.to_dict()


# -- split purity --------------------------------------------------------------------


def test_rewrite_outputs_never_include_a_test_split(corpora, tmp_path):
    out = tmp_path / "out"
    run_rewrite(
        ExperimentConfig(
            mode="rewrite",
            out_dir=str(out),
            train_path=str(corpora["dirs"]["flights"] / "train.tsv"),
            validation_path=str(corpora["dirs"]["flights"] / "validation.tsv"),
            checkpoint_in=corpora["checkpoint"],
            epsilon=10.0, clip_c=5.0,
            seeds=[1],
        )
    )
    rewritten = out / "rewritten"
    assert (rewritten / "train.tsv").exists()
    assert (rewritten / "validation.tsv").exists()
    assert not (rewritten / "test.tsv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["provenance"]["test_split_rewritten"] is False


def test_downstream_evaluates_the_original_test_split(corpora, tmp_path):
    flights = corpora["dirs"]["flights"]
    before = (flights / "test.tsv").read_bytes()
    report = run_downstream(
        ExperimentConfig(
            mode="downstream",
            out_dir=str(tmp_path / "out"),
            train_path=str(flights / "train.tsv"),
            validation_path=str(flights / "validation.tsv"),
            test_path=str(flights / "test.tsv"),
            classifier=TINY_CLF,
            seeds=[1, 2],
        )
    )
    assert (flights / "test.tsv").read_bytes() == before
    assert report["provenance"]["evaluated_on"] == "original test split"
    stats = report["metrics"]["test_macro_f1"]
    assert set(stats["per_seed"]) == {"1", "2"}


def test_downstream_warns_when_test_label_missing_from_train(tmp_path):
    train = tmp_path / "train.tsv"
    test = tmp_path / "test.tsv"
    write_split([Document("alpha beta", "a"), Document("beta gamma", "b")], train)
    write_split([Document("alpha", "a"), Document("gamma", "ghost")], test)
    config = ExperimentConfig(
        mode="downstream",
        out_dir=str(tmp_path / "out"),
        train_path=str(train),
        test_path=str(test),
        classifier=ClassifierConfig(epochs=2),
        seeds=[1],
    )
    with pytest.warns(UserWarning, match="ghost"):
        report = run_downstream(config)
    # the ghost label can never be predicted, so its F1 term is 0
    assert report["metrics"]["test_macro_f1"]["mean"] < 1.0


# -- determinism and reports ------------------------------------------------------------


def test_pretrain_canonical_checkpoint_is_first_seed(corpora, tmp_path):
    out = tmp_path / "out"
    report = run_pretrain(
        ExperimentConfig(
            mode="pretrain",
            out_dir=str(out),
            train_path=str(corpora["dirs"]["flights"] / "train.tsv"),
            autoencoder=TINY_AE,
            seeds=[5, 6],
        )
    )
    loaded = dprw.autoencoder.load_checkpoint(report["provenance"]["checkpoint"])
    direct = pretrain(
        dprw.corpus.load_dataset(corpora["dirs"]["flights"] / "train.tsv"), TINY_AE, seed=5
    )
    for k in direct.parameters:
        np.testing.assert_array_equal(loaded.parameters[k], direct.parameters[k])
    assert loaded.metadata["seed"] == 5


def test_reruns_are_byte_identical_including_checkpoints(corpora, tmp_path):
    out = tmp_path / "out"
    config = dict(
        mode="pretrain",
        out_dir=str(out),
        train_path=str(corpora["dirs"]["flights"] / "train.tsv"),
        autoencoder=TINY_AE,
        seeds=[3],
    )
    run_pretrain(ExperimentConfig(**config))
    snapshot = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    run_pretrain(ExperimentConfig(**config))
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == snapshot
    assert set(snapshot) == {"report.json", "summary.txt", "config_resolved.json", "checkpoint.bin"}


def _all_keys(node):
    """Every dict key at any depth of a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _all_keys(value)
    elif isinstance(node, list):
        for item in node:
            yield from _all_keys(item)


def test_reports_carry_no_timestamps(corpora, tmp_path):
    flights = corpora["dirs"]["flights"]
    runs = {
        "pretrain": run_pretrain(
            ExperimentConfig(
                mode="pretrain",
                out_dir=str(tmp_path / "pretrain"),
                train_path=str(flights / "train.tsv"),
                autoencoder=TINY_AE,
                seeds=[1],
            )
        ),
        "downstream": run_downstream(
            ExperimentConfig(
                mode="downstream",
                out_dir=str(tmp_path / "downstream"),
                train_path=str(flights / "train.tsv"),
                test_path=str(flights / "test.tsv"),
                classifier=TINY_CLF,
                seeds=[1],
            )
        ),
    }
    for mode, report in runs.items():
        assert report["mode"] == mode
        for name in ("report.json", "config_resolved.json"):
            keys = list(_all_keys(json.loads((tmp_path / mode / name).read_text())))
            assert len(keys) > 10
            for key in keys:
                for needle in ("time", "date", "duration"):
                    assert needle not in key.lower(), (mode, name, key)


def test_reports_are_strict_json_and_a_nan_writes_nothing(tmp_path):
    config = ExperimentConfig(mode="downstream", out_dir=str(tmp_path / "out"), train_path="t", test_path="t")
    with pytest.raises(ValueError):
        dprw.pipeline._write_outputs(config, {"metrics": {"mean": float("nan")}}, "summary\n")
    assert not (tmp_path / "out").exists()


def test_pretrain_refuses_zero_epochs_before_training(corpora, tmp_path, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("no pre-training may start")

    monkeypatch.setattr(dprw.pipeline, "pretrain", boom)
    with pytest.raises(ValueError, match="epochs"):
        run_pretrain(
            ExperimentConfig(
                mode="pretrain",
                out_dir=str(tmp_path / "out"),
                train_path=str(corpora["dirs"]["flights"] / "train.tsv"),
                autoencoder=dataclasses.replace(TINY_AE, epochs=0),
                seeds=[1],
            )
        )
    assert not (tmp_path / "out").exists()


def test_jobs_do_not_change_results(corpora, tmp_path):
    outs = []
    for jobs, name in ((1, "serial"), (2, "parallel")):
        out = tmp_path / name
        run_rewrite(
            ExperimentConfig(
                mode="rewrite",
                out_dir=str(out),
                train_path=str(corpora["dirs"]["flights"] / "train.tsv"),
                checkpoint_in=corpora["checkpoint"],
                epsilon=10.0, clip_c=5.0,
                seeds=[1, 2],
                jobs=jobs,
            )
        )
        report = json.loads((out / "report.json").read_text())
        outs.append(
            {
                "metrics": report["metrics"],
                "train": (out / "rewritten" / "train.tsv").read_bytes(),
            }
        )
    assert outs[0] == outs[1]


# -- case study -----------------------------------------------------------------------


def test_case_study_matrix_is_complete_and_test_is_never_rewritten(corpora, tmp_path):
    out = tmp_path / "case"
    report = run_case_study(
        ExperimentConfig(
            mode="case_study",
            out_dir=str(out),
            dataset_a=str(corpora["dirs"]["flights"]),
            dataset_b=str(corpora["dirs"]["smart_home"]),
            autoencoder=TINY_AE,
            classifier=TINY_CLF,
            seeds=[1],
        )
    )
    rows = report["settings"]
    assert len(rows) == 2 * 2 * len(EPSILON_LADDER) == 20
    combos = {(r["pretrain"], r["rewrite"], r["epsilon"]) for r in rows}
    assert len(combos) == 20
    eps_keys = [epsilon_repr(e) for e in EPSILON_LADDER]
    assert {r["epsilon"] for r in rows} == set(eps_keys)
    assert len(report["originals"]) == 2
    assert set(report["baselines"]) == {"flights", "smart_home"}
    setting_dirs = sorted(p.name for p in (out / "rewritten").iterdir())
    assert len(setting_dirs) == 20
    for d in setting_dirs:
        files = sorted(p.name for p in (out / "rewritten" / d).iterdir())
        assert "test.tsv" not in files
        assert "train.tsv" in files
    # canonical TSVs parse and preserve labels
    sample = load_split(out / "rewritten" / setting_dirs[0] / "train.tsv")
    assert len(sample) == 24
    summary = (out / "summary.txt").read_text()
    assert "macro-F1" in summary and "original" in summary and "majority" in summary


@pytest.mark.parametrize("smart_home_validation", [True, False])
def test_case_study_encodes_each_split_once_and_reuses_the_inf_row_for_reconstruction(
    corpora, tmp_path, monkeypatch, smart_home_validation
):
    smart_home = corpora["dirs"]["smart_home"]
    if not smart_home_validation:
        smart_home = tmp_path / "smart_home"
        smart_home.mkdir()
        for split in ("train.tsv", "test.tsv"):
            (smart_home / split).write_bytes((corpora["dirs"]["smart_home"] / split).read_bytes())
    batches = []
    real = dprw.autoencoder.Autoencoder.encode_batch

    def spy(self, ids):
        batches.append(len(ids))
        return real(self, ids)

    monkeypatch.setattr(dprw.autoencoder.Autoencoder, "encode_batch", spy)
    seeds = [1, 2]
    report = run_case_study(
        ExperimentConfig(
            mode="case_study",
            out_dir=str(tmp_path / "case"),
            dataset_a=str(corpora["dirs"]["flights"]),
            dataset_b=str(smart_home),
            autoencoder=TINY_AE,
            classifier=TINY_CLF,
            seeds=seeds,
        )
    )
    # per (pretrain, seed) unit: each corpus's train (24) and validation (8) split once
    per_unit = [24, 8, 24, 8] if smart_home_validation else [24, 8, 24]
    assert batches == per_unit * (2 * len(seeds))

    rows = {(r["pretrain"], r["rewrite"], r["epsilon"]): r for r in report["settings"]}
    for name, metrics in report["pretrain_metrics"].items():
        for seed in seeds:
            recon = metrics["reconstruction_bleu"]["per_seed"][str(seed)]
            assert recon == rows[(name, name, "inf")]["bleu_vs_source"]["per_seed"][str(seed)]
    # and it is the reconstruction BLEU a pre-train of the same corpus, config and seeds reports
    pretrained = json.loads((corpora["root"] / "pre" / "report.json").read_text())
    assert (
        report["pretrain_metrics"]["flights"]["reconstruction_bleu"]
        == pretrained["metrics"]["reconstruction_bleu"]
    )


def test_case_study_indexes_each_pretraining_corpus_once_per_unit(corpora, tmp_path, monkeypatch):
    indexed, audited = [], []
    real_index, real_audit = dprw.pipeline.PretrainIndex, dprw.pipeline.leak_audit

    def index_spy(docs):
        indexed.append(len(docs))
        return real_index(docs)

    def audit_spy(rewritten, source, pretrain_corpus, margin):
        audited.append(pretrain_corpus)
        return real_audit(rewritten, source, pretrain_corpus, margin=margin)

    monkeypatch.setattr(dprw.pipeline, "PretrainIndex", index_spy)
    monkeypatch.setattr(dprw.pipeline, "leak_audit", audit_spy)
    run_case_study(
        ExperimentConfig(
            mode="case_study",
            out_dir=str(tmp_path / "case"),
            dataset_a=str(corpora["dirs"]["flights"]),
            dataset_b=str(corpora["dirs"]["smart_home"]),
            autoencoder=TINY_AE,
            classifier=TINY_CLF,
            seeds=[1],
        )
    )
    assert indexed == [24, 24]  # one index per (pretrain, seed) unit
    # each unit's 2 corpora x 5 epsilons audit against its one index, passed third
    assert len(audited) == 20 and len({id(a) for a in audited}) == 2
    assert all(isinstance(a, real_index) and len(a) == 24 for a in audited)


def test_case_study_rejects_same_directory_name(corpora, tmp_path):
    with pytest.raises(ValueError, match="distinct"):
        run_case_study(
            ExperimentConfig(
                mode="case_study",
                out_dir=str(tmp_path / "case"),
                dataset_a=str(corpora["dirs"]["flights"]),
                dataset_b=str(corpora["dirs"]["flights"]),
                autoencoder=TINY_AE,
                classifier=TINY_CLF,
                seeds=[1],
            )
        )


def test_run_experiment_dispatches_on_mode(corpora, tmp_path):
    report = run_experiment(
        ExperimentConfig(
            mode="downstream",
            out_dir=str(tmp_path / "out"),
            train_path=str(corpora["dirs"]["flights"] / "train.tsv"),
            test_path=str(corpora["dirs"]["flights"] / "test.tsv"),
            classifier=TINY_CLF,
            seeds=[1],
        )
    )
    assert report["mode"] == "downstream"
