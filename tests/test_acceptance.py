"""Acceptance gate: one test per release criterion.

Each test is self-contained, states its tolerance and runtime budget
inline, and prints one summary line so `pytest -v` reads as a pass/fail
checklist. The case-study matrix is computed once (module fixture) and
shared by the criteria that read it.
"""

import math
import re
import time

import numpy as np
import pytest
from oracles import (
    CURATED_BLEU_PAIRS,
    CURATED_LEAK_CASES,
    MACRO_F1_HAND_CASES,
    bleu_brute_force,
    check_build_loss_gradients,
    leak_audit_brute_force,
)

from dprw.autoencoder import Autoencoder, AutoencoderConfig, pad_batch, pretrain
from dprw.corpus import Document, build_vocabulary, encode, tokenize, write_split
from dprw.dpmech import BOUND_TOL, PrivacyParams, run_bound_suite
from dprw.metrics import bleu, leak_audit, macro_f1
from dprw.numcore import Rng
from dprw.pipeline import (
    EPSILON_LADDER,
    ExperimentConfig,
    epsilon_repr,
    rewrite_documents,
    run_case_study,
    run_pretrain,
    run_rewrite,
)
from dprw.synth import FLIGHTS, make_corpus, make_disjoint_pair

LADDER_KEYS = [epsilon_repr(e) for e in EPSILON_LADDER]  # inf, 1000, 100, 10, 1


@pytest.fixture(scope="module")
def case_study(tmp_path_factory):
    """Full 20-setting matrix, 5 seeds, default hyperparameters."""
    root = tmp_path_factory.mktemp("acceptance")
    flights, smart_home = make_disjoint_pair(seed=7)
    dirs = {}
    for name, ds in (("flights", flights), ("smart_home", smart_home)):
        base = root / name
        base.mkdir()
        write_split(ds.train, base / "train.tsv")
        write_split(ds.validation, base / "validation.tsv")
        write_split(ds.test, base / "test.tsv")
        dirs[name] = base
    started = time.perf_counter()
    report = run_case_study(
        ExperimentConfig(
            mode="case_study",
            out_dir=str(root / "out"),
            dataset_a=str(dirs["flights"]),
            dataset_b=str(dirs["smart_home"]),
            seeds=[1, 2, 3, 4, 5],
        )
    )
    elapsed = time.perf_counter() - started
    rows = {
        (r["pretrain"], r["rewrite"], r["epsilon"]): r for r in report["settings"]
    }
    return {"report": report, "rows": rows, "elapsed": elapsed, "out": root / "out"}


def _row(case, pretrain_name, rewrite_name, eps_key):
    return case["rows"][(pretrain_name, rewrite_name, eps_key)]


def test_criterion_1_privacy_bound_holds_at_every_epsilon():
    # 1e5 random triples per epsilon in {1000, 100, 10, 1} at C=5: every
    # |log-density ratio| <= eps + 1e-9, antipodal probes reach >= 0.99 eps,
    # all four suites inside 30 s
    started = time.perf_counter()
    results = []
    for eps in (1000.0, 100.0, 10.0, 1.0):
        params = PrivacyParams(epsilon=eps, clip_c=5.0)
        report = run_bound_suite(
            params, dim=128, trials=100_000, rng=Rng(1).derive("acceptance", str(eps))
        )
        assert report.violations == 0, f"eps={eps}: {report.violations} violations"
        assert report.max_abs_log_ratio <= eps + BOUND_TOL
        assert report.tightness >= 0.99, f"eps={eps}: tightness {report.tightness}"
        results.append(f"eps={epsilon_repr(eps)} max={report.max_abs_log_ratio:.6f}")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s, budget 30s"
    print(f"criterion 1 PASS: {'; '.join(results)}; {elapsed:.1f}s")


def test_criterion_2_miscalibrated_scale_fails_loudly():
    # the historically wrong calibration b = C/eps must FAIL the suite with
    # max ratio within 5% of 2*eps
    for eps in (10.0, 1.0):
        params = PrivacyParams(epsilon=eps, clip_c=5.0)
        report = run_bound_suite(
            params,
            dim=128,
            trials=20_000,
            rng=Rng(2).derive("acceptance", str(eps)),
            noise_scale=params.clip_c / eps,
        )
        assert not report.ok, f"eps={eps}: miscalibration went undetected"
        assert report.violations > 0
        assert abs(report.max_abs_log_ratio - 2 * eps) <= 0.05 * 2 * eps, (
            f"eps={eps}: max {report.max_abs_log_ratio}, expected about {2 * eps}"
        )
    print("criterion 2 PASS: wrong scale b=C/eps detected, max ratio = 2*eps")


def test_criterion_3_gradients_match_finite_differences_on_50_models():
    # 50 random tiny autoencoders, full-loss backward gradients vs central
    # differences, max relative error < 1e-4, under 1 minute
    started = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        rng = Rng(trial).derive("gradcheck")
        n_tokens = int(rng.derive("v").integers(3, 7))
        tokens = [f"t{i}" for i in range(n_tokens)]
        train = []
        for d in range(int(rng.derive("docs").integers(2, 4))):
            k = int(rng.derive("len", d).integers(1, 5))
            picks = rng.derive("pick", d).integers(0, n_tokens, size=k)
            train.append(Document(" ".join(tokens[int(j)] for j in picks), "x"))
        vocab = build_vocabulary(train)
        config = AutoencoderConfig(
            vocab_size=len(vocab),
            embed_dim=int(rng.derive("e").integers(2, 5)),
            hidden_dim=int(rng.derive("h").integers(2, 5)),
            max_len=6,
            epochs=1,
            batch_size=4,
            clip_c=float(rng.derive("c").uniform(0.5, 5.0)),
        )
        model = Autoencoder(config, vocab, rng=rng.derive("init"))
        batch = pad_batch([encode(d, vocab, config.max_len) for d in train])
        report = check_build_loss_gradients(model, batch, rtol=1e-4)
        worst = max(worst, report.max_rel_error)
        assert report.ok, (
            f"model {trial}: rel error {report.max_rel_error:.2e} in {report.worst_param}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s, budget 60s"
    print(f"criterion 3 PASS: 50 models, worst rel error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_reconstruction_bleu_reaches_09(tmp_path):
    # default pre-training recipe (200 epochs, lr 0.003, clip 5, max-len 20)
    # on a 200-sentence corpus: noise-free rewrite of the train split must
    # reach mean BLEU >= 0.9, single-threaded, under 10 minutes
    ds = make_corpus(FLIGHTS, seed=7)
    assert len(ds.train) == 200
    started = time.perf_counter()
    ckpt = pretrain(ds, AutoencoderConfig(), seed=1)
    model = Autoencoder.from_checkpoint(ckpt)
    rewritten = rewrite_documents(
        model, ds.train, PrivacyParams(epsilon=math.inf, clip_c=5.0), seed=1, split_name="train"
    )
    scores = [bleu(tokenize(r.text), tokenize(s.text)) for r, s in zip(rewritten, ds.train)]
    mean_bleu = float(np.mean(scores))
    elapsed = time.perf_counter() - started
    assert mean_bleu >= 0.9, f"train reconstruction BLEU {mean_bleu:.4f} < 0.9"
    assert elapsed < 600.0, f"pretrain+rewrite took {elapsed:.1f}s, budget 600s"
    print(f"criterion 4 PASS: reconstruction BLEU {mean_bleu:.4f}, {elapsed:.1f}s")


def test_criterion_5_memorization_leak_separates_corpora(case_study):
    # at eps=inf: rewriting corpus B through a model pre-trained on A leaks
    # A's phrasing (leak >= 0.8); rewriting B through B's own model does not
    # (leak <= 0.2); downstream F1 gap same-vs-cross pretrain >= 0.3;
    # the whole 20-setting matrix inside 30 minutes
    for a, b in (("flights", "smart_home"), ("smart_home", "flights")):
        cross_leak = _row(case_study, a, b, "inf")["leak_score"]["mean"]
        same_leak = _row(case_study, b, b, "inf")["leak_score"]["mean"]
        assert cross_leak >= 0.8, f"pretrain {a}, rewrite {b}: leak {cross_leak:.3f} < 0.8"
        assert same_leak <= 0.2, f"pretrain {b}, rewrite {b}: leak {same_leak:.3f} > 0.2"
        same_f1 = _row(case_study, b, b, "inf")["macro_f1"]["mean"]
        cross_f1 = _row(case_study, a, b, "inf")["macro_f1"]["mean"]
        assert same_f1 - cross_f1 >= 0.3, (
            f"rewrite {b}: same-pretrain F1 {same_f1:.3f} - cross {cross_f1:.3f} < 0.3"
        )
    elapsed = case_study["elapsed"]
    assert elapsed < 1800.0, f"matrix took {elapsed:.0f}s, budget 1800s"
    print(
        "criterion 5 PASS: cross-pretrain leak >= 0.8, same <= 0.2, "
        f"F1 gap >= 0.3; matrix in {elapsed:.0f}s"
    )


def test_criterion_6_utility_degrades_monotonically_with_epsilon(case_study):
    # same-pretrain mean F1 over eps = inf -> 1000 -> 100 -> 10 -> 1 never
    # rises by more than 0.05 per step, and at eps in {10, 1} sits within
    # 0.1 of the random baseline
    lines = []
    for name in ("flights", "smart_home"):
        means = [
            _row(case_study, name, name, key)["macro_f1"]["mean"] for key in LADDER_KEYS
        ]
        for i in range(len(means) - 1):
            assert means[i + 1] <= means[i] + 0.05, (
                f"{name}: F1 rose {means[i]:.3f} -> {means[i + 1]:.3f} "
                f"at eps {LADDER_KEYS[i]} -> {LADDER_KEYS[i + 1]}"
            )
        random_mean = case_study["report"]["baselines"][name]["random"]["mean"]
        for key in ("10", "1"):
            f1 = _row(case_study, name, name, key)["macro_f1"]["mean"]
            assert abs(f1 - random_mean) <= 0.1, (
                f"{name} eps={key}: F1 {f1:.3f} vs random {random_mean:.3f}"
            )
        lines.append(f"{name}: " + " -> ".join(f"{m:.3f}" for m in means))
    print(f"criterion 6 PASS: {'; '.join(lines)}")


def test_criterion_7_metrics_match_independent_oracles():
    # BLEU vs brute-force n-gram counting on 20 curated pairs within 1e-9;
    # macro-F1 vs hand-worked confusion matrices, exact equality; the leak
    # audit vs its per-pair loop on curated cases, every field exact
    assert len(CURATED_BLEU_PAIRS) == 20
    for hyp, ref in CURATED_BLEU_PAIRS:
        fast, slow = bleu(hyp, ref), bleu_brute_force(hyp, ref)
        assert abs(fast - slow) <= 1e-9, f"{hyp} vs {ref}: {fast} != {slow}"
    assert len(MACRO_F1_HAND_CASES) == 10
    for i, (preds, golds, labels, expected) in enumerate(MACRO_F1_HAND_CASES):
        got = macro_f1(preds, golds, labels)
        assert got == float(expected), f"case {i}: {got} != {expected}"
    assert len(CURATED_LEAK_CASES) == 6
    for i, (rewritten, source, pretrain_docs) in enumerate(CURATED_LEAK_CASES):
        got = leak_audit(rewritten, source, pretrain_docs)
        expected = leak_audit_brute_force(rewritten, source, pretrain_docs)
        assert got == expected, f"leak case {i}: {got} != {expected}"
    print(
        "criterion 7 PASS: 20 BLEU pairs within 1e-9, 10 macro-F1 cases exact, "
        "6 leak-audit cases exact"
    )


def test_criterion_8_reruns_are_byte_identical_and_reports_show_mean_std(
    case_study, tmp_path
):
    # repeating an invocation with the same seeds must reproduce reports,
    # checkpoints, and rewritten TSVs byte for byte; multi-seed reports
    # print mean (std) per setting
    corpus = make_corpus(FLIGHTS, seed=3, train_size=24, val_size=8, test_size=8)
    data = tmp_path / "data"
    data.mkdir()
    write_split(corpus.train, data / "train.tsv")
    tiny = AutoencoderConfig(embed_dim=8, hidden_dim=12, max_len=12, epochs=3, batch_size=8)

    snapshots = []
    for _ in range(2):
        pre_dir = tmp_path / "pre"
        run_pretrain(
            ExperimentConfig(
                mode="pretrain",
                out_dir=str(pre_dir),
                train_path=str(data / "train.tsv"),
                autoencoder=tiny,
                seeds=[1, 2],
            )
        )
        rw_dir = tmp_path / "rw"
        run_rewrite(
            ExperimentConfig(
                mode="rewrite",
                out_dir=str(rw_dir),
                train_path=str(data / "train.tsv"),
                checkpoint_in=str(pre_dir / "checkpoint.bin"),
                epsilon=10.0, clip_c=5.0,
                autoencoder=tiny,
                seeds=[1, 2],
            )
        )
        files = {}
        for base in (pre_dir, rw_dir):
            for path in sorted(base.rglob("*")):
                if path.is_file():
                    files[str(path.relative_to(tmp_path))] = path.read_bytes()
        snapshots.append(files)
    assert snapshots[0] == snapshots[1], "second run differed from the first"

    summary = (case_study["out"] / "summary.txt").read_text()
    # every matrix row shows "mean (std)" from the 5 seeds
    assert len(re.findall(r"\d\.\d{3} \(\d\.\d{3}\)", summary)) >= 60
    for row in case_study["report"]["settings"]:
        assert set(row["macro_f1"]["per_seed"]) == {"1", "2", "3", "4", "5"}
        assert "mean" in row["macro_f1"] and "std" in row["macro_f1"]
    print("criterion 8 PASS: byte-identical reruns; 5-seed mean (std) layout")
