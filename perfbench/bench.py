"""Benchmark worker: runs one workload of dprw in this process.

`run.py` starts this script in a fresh process for every set-up sample and
for every measured run, from the root of a source checkout (the package is
imported from ./src). Modes:

  prepare  build the inputs the workload loads (rewrite only: TSV corpora
           and a pre-trained flights checkpoint);
  setup    time the set-up (imports, corpus generation or loading,
           checkpoint load) and exit;
  measure  set up, then repeat the workload's round until --seconds have
           passed, check every output, and write the result as JSON.

With --trace 1 the measure mode alternates untraced and traced rounds, so
one process gives both the per-layer metrics and the tracing overhead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import dprw  # noqa: E402
from dprw import autoencoder, corpus, dpmech, metrics, pipeline, synth  # noqa: E402
from dprw.numcore import Rng  # noqa: E402

from tracing import Tracer, span_cost_s  # noqa: E402

WORKLOADS = ("pretrain", "rewrite", "case_study")

# Sizes per profile. "full" is what BENCHMARK.json measures; "tiny" only
# exercises the code paths, for the benchmark's own tests.
SIZES = {
    "full": {
        "pretrain": {"corpus": (200, 40, 160), "epochs": 8},
        "rewrite": {"corpus": (200, 40, 160), "checkpoint_epochs": 20, "max_batch": 64, "replays": 5},
        "case_study": {"corpus": (60, 12, 48), "epochs": 5, "bound_trials": 5000},
    },
    "tiny": {
        "pretrain": {"corpus": (40, 8, 16), "epochs": 2},
        "rewrite": {"corpus": (40, 8, 16), "checkpoint_epochs": 1, "max_batch": 4, "replays": 2},
        "case_study": {"corpus": (24, 8, 16), "epochs": 1, "bound_trials": 200},
    },
}

SPLITS = ("train", "validation", "test")
# The classifier on original data must beat predicting the majority label
# everywhere by this much, so that a collapsed classifier fails the run.
MAJORITY_MARGIN = 0.1
DOMAINS = ("flights", "smart_home")


class Op:
    """One timed call into dprw, or one correctness check after the run."""

    def __init__(self, kind: str):
        self.kind = kind
        self.seconds = 0.0
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "s": self.seconds, "errors": self.errors}


def timed(kind: str, fn, *args):
    """Run fn(*args) as an op; an exception fails the op instead of the run."""
    op = Op(kind)
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failing operation is a measured outcome
        result = None
        op.errors.append(f"{type(exc).__name__}: {exc}")
    op.seconds = time.perf_counter() - start
    return op, result


def write_corpora(work: Path, seed: int, sizes: tuple[int, int, int]) -> None:
    for name, dataset in zip(DOMAINS, synth.make_disjoint_pair(seed, *sizes)):
        base = work / "data" / name
        base.mkdir(parents=True, exist_ok=True)
        for split in SPLITS:
            corpus.write_split(getattr(dataset, split), base / f"{split}.tsv")


def load_corpus(work: Path, name: str) -> corpus.LabeledDataset:
    base = work / "data" / name
    return corpus.load_dataset(*(base / f"{split}.tsv" for split in SPLITS))


def within(value: float, ref: dict) -> bool:
    return abs(value - ref["value"]) <= ref["tol"]


# -- pretrain -------------------------------------------------------------------


class Pretrain:
    """One default-architecture pre-train of the flights train split."""

    def __init__(self, work: Path, seed: int, size: dict):
        self.seed = seed
        self.flights, _ = synth.make_disjoint_pair(seed, *size["corpus"])
        self.config = autoencoder.AutoencoderConfig(epochs=size["epochs"])
        self.work = work
        self.losses: list[float] = []
        self.checkpoint = None

    def info(self) -> dict:
        vocab = corpus.build_vocabulary(self.flights.train)
        max_len = self.config.max_len
        targets = sum(len(corpus.encode(d, vocab, max_len)) - 1 for d in self.flights.train)
        return {
            "train_docs": len(self.flights.train),
            "epochs": self.config.epochs,
            "docs_per_round": len(self.flights.train) * self.config.epochs,
            "train_tokens_per_round": targets * self.config.epochs,
        }

    def round(self, index: int) -> list[Op]:
        op, ckpt = timed("pretrain", autoencoder.pretrain, self.flights, self.config, self.seed)
        if ckpt is not None:
            loss = ckpt.metadata["final_loss"]
            op.check(loss is not None and math.isfinite(loss), f"final loss {loss} is not finite")
            op.check(not self.losses or loss == self.losses[0], "pre-training is not deterministic across rounds")
            self.losses.append(loss)
            self.checkpoint = ckpt
        return [op]

    def finish(self, reference: dict | None) -> list[Op]:
        first_epoch, one = timed("first_epoch_loss", autoencoder.pretrain, self.flights, replace(self.config, epochs=1), self.seed)
        if one is not None and self.losses:
            first = one.metadata["final_loss"]
            first_epoch.check(self.losses[0] < first, f"final loss {self.losses[0]} not below first epoch's {first}")
        ops = [first_epoch]
        if self.checkpoint is not None:
            path = self.work / "roundtrip.ckpt"
            roundtrip, back = timed("checkpoint_roundtrip", roundtrip_checkpoint, self.checkpoint, path)
            if back is not None:
                same = back.config == self.checkpoint.config
                same = same and back.vocabulary.id_to_token == self.checkpoint.vocabulary.id_to_token
                same = same and all(np.array_equal(back.parameters[k], v) for k, v in self.checkpoint.parameters.items())
                roundtrip.check(same, "checkpoint does not round-trip bit-exactly")
            ops.append(roundtrip)
        if reference is not None and self.losses:
            quality = Op("reference_final_loss")
            ref = reference["final_loss"]
            quality.check(within(self.losses[0], ref), f"final loss {self.losses[0]:.4f} outside {ref}")
            ops.append(quality)
        return ops


def roundtrip_checkpoint(ckpt, path: Path):
    autoencoder.save_checkpoint(ckpt, path)
    return autoencoder.load_checkpoint(path)


# -- rewrite --------------------------------------------------------------------


def prepare_rewrite(work: Path, seed: int, size: dict) -> None:
    write_corpora(work, seed, size["corpus"])
    flights = load_corpus(work, "flights")
    config = autoencoder.AutoencoderConfig(epochs=size["checkpoint_epochs"])
    autoencoder.save_checkpoint(autoencoder.pretrain(flights, config, seed), work / "rewrite.ckpt")


def request_mix(largest: int) -> list[tuple[int, int]]:
    """(batch size, requests) for every power of two up to ``largest``.

    The number of requests halves as the size doubles, so half of all
    requests carry one document and every size carries the same number of
    documents. This mix is an assumption, not a measured trace: under local
    DP each user privatizes their own text, so most requests are small.
    """
    return [(1 << k, largest >> k) for k in range(largest.bit_length())]


class Rewrite:
    """Closed loop, one client: private rewrite requests against a checkpoint.

    A round is a deck: the request mix of `request_mix` at every
    (epsilon, corpus) combination, in a seeded order, each request drawing
    its documents from that corpus.
    """

    def __init__(self, work: Path, seed: int, size: dict):
        self.seed = seed
        self.size = size
        self.data = {name: load_corpus(work, name) for name in DOMAINS}
        self.model = autoencoder.Autoencoder.from_checkpoint(autoencoder.load_checkpoint(work / "rewrite.ckpt"))
        self.pools = {name: ds.train + ds.validation + ds.test for name, ds in self.data.items()}
        self.deck = [
            (n, eps, name)
            for n, count in request_mix(size["max_batch"])
            for _ in range(count)
            for eps in pipeline.EPSILON_LADDER
            for name in DOMAINS
        ]
        self.latencies_ms: list[tuple[int, float]] = []  # (batch size, ms) per request
        self.replays: list[tuple] = []

    def info(self) -> dict:
        return {
            "requests_per_round": len(self.deck),
            "docs_per_round": sum(n for n, _, _ in self.deck),
            "request_mix": request_mix(self.size["max_batch"]),
            "epsilons": [pipeline.epsilon_repr(e) for e in pipeline.EPSILON_LADDER],
            "checkpoint_epochs": self.size["checkpoint_epochs"],
            "corpus_docs": {name: len(pool) for name, pool in self.pools.items()},
        }

    def round(self, index: int) -> list[Op]:
        rng = Rng(self.seed).derive("deck", index)
        order = rng.derive("order").permutation(len(self.deck))
        replay_at = set(rng.derive("replay").permutation(len(self.deck))[: self.size["replays"]]) if index == 0 else ()
        vocab = self.model.vocabulary.token_to_id
        ops = []
        for k, slot in enumerate(order):
            n, eps, name = self.deck[slot]
            pool = self.pools[name]
            docs = [pool[i] for i in rng.derive("docs", k).permutation(len(pool))[:n]]
            privacy = dpmech.PrivacyParams(epsilon=eps, clip_c=self.model.config.clip_c)
            split = f"round{index}-request{k}"
            op, out = timed("request", pipeline.rewrite_documents, self.model, docs, privacy, self.seed, split)
            self.latencies_ms.append((n, 1000.0 * op.seconds))
            if out is not None:
                op.check(len(out) == len(docs), f"{split}: {len(out)} documents back for {len(docs)}")
                op.check(all(o.label == d.label for o, d in zip(out, docs)), f"{split}: labels changed")
                op.check(all(o.text.strip() for o in out), f"{split}: empty rewrite")
                op.check(
                    all(tok in vocab for o in out for tok in corpus.tokenize(o.text)),
                    f"{split}: token outside the checkpoint vocabulary",
                )
                if slot in replay_at:
                    self.replays.append((docs, privacy, split, out))
            ops.append(op)
        return ops

    def finish(self, reference: dict | None) -> list[Op]:
        ops = []
        for docs, privacy, split, out in self.replays:
            op, again = timed("replay", pipeline.rewrite_documents, self.model, docs, privacy, self.seed, split)
            op.check(again == out, f"{split}: replay differs")
            ops.append(op)
        if reference is not None:
            train = self.data["flights"].train
            non_private = dpmech.PrivacyParams(epsilon=math.inf, clip_c=self.model.config.clip_c)
            op, rewritten = timed("reference_reconstruction_bleu", pipeline.rewrite_documents, self.model, train, non_private, 0, "recon")
            if rewritten is not None:
                score = float(np.mean([metrics.bleu(corpus.tokenize(r.text), corpus.tokenize(s.text)) for r, s in zip(rewritten, train)]))
                ref = reference["reconstruction_bleu"]
                op.check(within(score, ref), f"reconstruction BLEU {score:.4f} outside {ref}")
            ops.append(op)
        return ops


# -- case study -----------------------------------------------------------------


class CaseStudy:
    """Reduced case study (one seed, short pre-training) plus the bound suite
    at every finite epsilon of the ladder."""

    def __init__(self, work: Path, seed: int, size: dict):
        self.seed = seed
        self.size = size
        write_corpora(work, seed, size["corpus"])
        self.config = pipeline.ExperimentConfig(
            mode="case_study",
            out_dir=str(work / "case_study"),
            dataset_a=str(work / "data" / "flights"),
            dataset_b=str(work / "data" / "smart_home"),
            autoencoder=autoencoder.AutoencoderConfig(epochs=size["epochs"]),
            seeds=[seed],
            jobs=1,
        )
        self.finite = [e for e in pipeline.EPSILON_LADDER if math.isfinite(e)]
        n_train, n_val, _ = size["corpus"]
        # per pretrain corpus: its reconstruction pass, then both corpora at every epsilon
        self.docs_per_round = len(DOMAINS) * (n_train + len(DOMAINS) * len(pipeline.EPSILON_LADDER) * (n_train + n_val))
        self.digests: list[str] = []
        self.report = None

    def info(self) -> dict:
        return {
            "corpus": dict(zip(SPLITS, self.size["corpus"])),
            "epochs": self.size["epochs"],
            "seeds": 1,
            "bound_trials": self.size["bound_trials"],
            "bound_epsilons": [pipeline.epsilon_repr(e) for e in self.finite],
            "docs_per_round": self.docs_per_round,
        }

    def round(self, index: int) -> list[Op]:
        op, report = timed("case_study", pipeline.run_case_study, self.config)
        if report is not None:
            rows = report["settings"]
            op.check(len(rows) == 20, f"{len(rows)} setting rows, expected 20")
            for row in rows:
                for key in ("macro_f1", "leak_score", "bleu_vs_source"):
                    value = row[key]["mean"]
                    op.check(0.0 <= value <= 1.0, f"{row['pretrain']}/{row['rewrite']}/{row['epsilon']} {key}={value}")
            for row in report["originals"]:
                f1, majority = row["macro_f1"]["mean"], report["baselines"][row["dataset"]]["majority"]
                op.check(
                    f1 >= majority + MAJORITY_MARGIN,
                    f"{row['dataset']} original-data macro-F1 {f1:.4f} not above the majority baseline {majority:.4f} + {MAJORITY_MARGIN}",
                )
            digest = hashlib.sha256((Path(self.config.out_dir) / "report.json").read_bytes()).hexdigest()
            op.check(not self.digests or digest == self.digests[0], "report.json differs between rounds")
            self.digests.append(digest)
            self.report = report
        ops = [op]
        clip_c = self.config.autoencoder.clip_c
        dim = self.config.autoencoder.hidden_dim
        for eps in self.finite:
            params = dpmech.PrivacyParams(epsilon=eps, clip_c=clip_c)
            rng = Rng(self.seed).derive("bound-suite", pipeline.epsilon_repr(eps))
            suite_op, suite = timed("bound_suite", dpmech.run_bound_suite, params, dim, self.size["bound_trials"], rng)
            if suite is not None:
                tag = f"bound suite at epsilon {pipeline.epsilon_repr(eps)}"
                suite_op.check(suite.ok and suite.violations == 0, f"{tag}: {suite.violations} violations")
                suite_op.check(suite.tightness >= 0.99, f"{tag}: tightness {suite.tightness}")
            ops.append(suite_op)
        return ops

    def finish(self, reference: dict | None) -> list[Op]:
        if reference is None or self.report is None:
            return []
        pre = self.report["pretrain_metrics"].values()
        observed = {
            "final_loss": float(np.mean([p["final_loss"]["mean"] for p in pre])),
            "reconstruction_bleu": float(np.mean([p["reconstruction_bleu"]["mean"] for p in pre])),
            "macro_f1": float(np.mean([row["macro_f1"]["mean"] for row in self.report["settings"]])),
            "originals_macro_f1": float(np.mean([row["macro_f1"]["mean"] for row in self.report["originals"]])),
        }
        ops = []
        for key, value in observed.items():
            op = Op(f"reference_{key}")
            op.check(within(value, reference[key]), f"case-study mean {key} {value:.4f} outside {reference[key]}")
            ops.append(op)
        return ops


CLASSES = {"pretrain": Pretrain, "rewrite": Rewrite, "case_study": CaseStudy}


# -- environment ----------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# -- measuring ------------------------------------------------------------------


def measure(workload, args, setup_s: float, tracer: Tracer | None) -> dict:
    reference = None
    if args.size == "full":
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())[args.workload]
    if tracer is not None:
        tracer.uninstall()
        tracer.counts.clear()
    rounds = []
    started = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        gc.collect()  # start every round with no garbage left from the last one
        if traced:
            tracer.phase = index
            tracer.install()
        try:
            ops = workload.round(index)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"index": index, "traced": traced, "wall_s": sum(op.seconds for op in ops), "ops": ops})
        # stop before a round that would end past --seconds; a traced run needs one round of each kind
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds and (tracer is None or index >= 1):
            break
    checks = workload.finish(reference)
    result = {
        "setup_s": setup_s,
        "rounds": [
            {"index": r["index"], "traced": r["traced"], "wall_s": r["wall_s"], "ops": [op.to_dict() for op in r["ops"]]}
            for r in rounds
        ],
        "checks": [op.to_dict() for op in checks],
        "info": workload.info(),
        "env": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if isinstance(workload, Rewrite):
        result["request_ms"] = workload.latencies_ms
    if tracer is not None:
        traced = [r["index"] for r in rounds if r["traced"]]
        result["per_layer"] = tracer.per_layer_metrics(traced)
        result["trace"] = {
            "spans_per_round": sum(1 for s in tracer.spans if s[4] in traced) / len(traced),
            "unaccounted_s": float(np.median([r["wall_s"] - tracer.root_time(r["index"]) for r in rounds if r["traced"]])),
            "span_cost_s": span_cost_s(),
            "spans": tracer.spans,
        }
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description="dprw benchmark worker (started by run.py)")
    ap.add_argument("mode", choices=("prepare", "setup", "measure"))
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for this invocation")
    ap.add_argument("--out", help="JSON result path (setup and measure modes)")
    args = ap.parse_args()

    source = Path(dprw.__file__).resolve()
    if not source.is_relative_to((ROOT / "src").resolve()):
        print(f"dprw imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(args.work)
    size = SIZES[args.size][args.workload]
    if args.mode == "prepare":
        if args.workload == "rewrite":
            prepare_rewrite(work, args.seed, size)
        return 0

    tracer = None
    if args.mode == "measure" and args.trace:
        tracer = Tracer()
        tracer.install()
    workload = CLASSES[args.workload](work, args.seed, size)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s} if args.mode == "setup" else measure(workload, args, setup_s, tracer)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
