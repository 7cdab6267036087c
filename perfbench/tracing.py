"""Opt-in span tracing of dprw layer entry points, from outside the package.

`Tracer.install()` replaces each entry point in `TARGETS` with a wrapper
that records a span (name, start, end, parent) and, for some entry points,
a work count. Spans stay in memory; `per_layer_metrics()` turns them into
per-layer times, counts and self times after the run. `uninstall()` puts
the original functions back, so untraced code runs exactly as shipped.

A function is patched in every `dprw` module that holds a reference to it
(`from .x import f` copies the reference), and a method on its class.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("numcore", "autoencoder", "dpmech", "pipeline", "corpus", "metrics", "downstream")


def _count_tape_nodes(tracer, args, kwargs, result):
    tracer.counts["numcore.tape_nodes"] += len(args[0].nodes)


def _train_step(tracer, args, kwargs, result):
    batch = np.asarray(args[1])
    tracer.counts["autoencoder.batch_tokens"] += int((batch != 0).sum())  # PAD_ID is 0
    tracer.counts["autoencoder.batch_cells"] += batch.size


def _decode(tracer, args, kwargs, result):
    # Row i is unfinished for len(content_i) + 1 steps (the last emits EOS);
    # every step computes all rows, so the batch runs max of that many steps.
    active = [len(ids) - 1 for ids in result]  # ids are [SOS, content..., EOS]
    if active:
        tracer.counts["autoencoder.decode_row_steps"] += len(active) * max(active)
        tracer.counts["autoencoder.decode_useful_row_steps"] += sum(active)


def _rewrite(tracer, args, kwargs, result):
    tracer.counts["pipeline.rewrite_documents.docs"] += len(result)


def _bound_suite(tracer, args, kwargs, result):
    tracer.counts["dpmech.bound_trials"] += result.trials


def _leak_audit(tracer, args, kwargs, result):
    pretrain_corpus = args[2] if len(args) > 2 else kwargs["pretrain_corpus"]
    tracer.counts["metrics.leak_audit.pairs"] += len(result.flagged) * len(pretrain_corpus)


# (layer, module, attribute path, count hook)
TARGETS = (
    ("numcore", "dprw.numcore", "Tape.backward", _count_tape_nodes),
    ("numcore", "dprw.numcore", "adam_step", None),
    ("autoencoder", "dprw.autoencoder", "pretrain", None),
    ("autoencoder", "dprw.autoencoder", "Autoencoder.train_step", _train_step),
    ("autoencoder", "dprw.autoencoder", "Autoencoder.build_loss", None),
    ("autoencoder", "dprw.autoencoder", "Autoencoder.encode_batch", None),
    ("autoencoder", "dprw.autoencoder", "Autoencoder.decode_greedy_batch", _decode),
    ("autoencoder", "dprw.autoencoder", "load_checkpoint", None),
    ("autoencoder", "dprw.autoencoder", "save_checkpoint", None),
    ("dpmech", "dprw.dpmech", "clip_l1", None),
    ("dpmech", "dprw.dpmech", "sample_laplace", None),
    ("dpmech", "dprw.dpmech", "run_bound_suite", _bound_suite),
    ("pipeline", "dprw.pipeline", "rewrite_documents", _rewrite),
    ("pipeline", "dprw.pipeline", "run_case_study", None),
    ("corpus", "dprw.corpus", "load_dataset", None),
    ("corpus", "dprw.corpus", "encode", None),
    ("corpus", "dprw.corpus", "decode_ids", None),
    ("corpus", "dprw.corpus", "write_split", None),
    ("metrics", "dprw.metrics", "leak_audit", _leak_audit),
    ("metrics", "dprw.metrics", "bleu", None),
    ("downstream", "dprw.downstream", "train_classifier", None),
    ("downstream", "dprw.downstream", "predict_batch", None),
)


def span_name(layer: str, path: str) -> str:
    """`autoencoder.Autoencoder.train_step` -> `autoencoder.train_step`."""
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


class Tracer:
    """Span recorder for one process. Spans are lists
    [name, parent index or -1, start, end, phase]; `phase` is whatever
    the caller last assigned (the benchmark uses "setup" or a round index).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == "dprw" or name.startswith("dprw.")]
        for layer, module_name, path, hook in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(layer, path), original, hook)
            if cls_path:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.phase]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, _, start, end, _ in self.spans]
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def root_time(self, phase) -> float:
        """Summed duration of the top-level spans recorded in ``phase``."""
        return sum(end - start for _, parent, start, end, p in self.spans if parent < 0 and p == phase)

    def per_layer_metrics(self, traced_rounds: list[int]) -> dict[str, float]:
        """Layer metrics over the set-up plus one average traced round.

        Spans of the set-up phase count once; spans of the traced rounds
        count divided by the number of traced rounds. Counts cover the
        traced rounds only: the caller clears them after set-up.
        """
        if not traced_rounds:
            raise ValueError("per-layer metrics need at least one traced round")
        n_rounds = len(traced_rounds)
        keep = {"setup": 1.0, **{r: 1.0 / n_rounds for r in traced_rounds}}
        busy: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        train_step_ms = []
        for span, self_s in zip(self.spans, self.self_times()):
            name, _, start, end, phase = span
            weight = keep.get(phase)
            if weight is None:
                continue
            busy[name] += (end - start) * weight
            layer_self[name.split(".", 1)[0]] += self_s * weight
            if name == "autoencoder.train_step":
                train_step_ms.append(1000.0 * (end - start))

        c = self.counts

        def per_round(key: str) -> float:
            return c[key] / n_rounds
        m = {
            "numcore.tape_nodes_per_backward": _ratio(c["numcore.tape_nodes"], c["numcore.backward.calls"]),
            "numcore.backward_s": busy["numcore.backward"],
            "numcore.adam_step_s": busy["numcore.adam_step"],
            "autoencoder.build_loss_s": busy["autoencoder.build_loss"],
            "autoencoder.train_step_ms.p50": _percentile(train_step_ms, 50),
            "autoencoder.train_step_ms.p95": _percentile(train_step_ms, 95),
            "autoencoder.batch_fill": _ratio(c["autoencoder.batch_tokens"], c["autoencoder.batch_cells"]),
            "autoencoder.encode_batch_s": busy["autoencoder.encode_batch"],
            "autoencoder.decode_greedy_batch_s": busy["autoencoder.decode_greedy_batch"],
            "autoencoder.decode_row_steps": per_round("autoencoder.decode_row_steps"),
            "autoencoder.decode_useful_ratio": _ratio(
                c["autoencoder.decode_useful_row_steps"], c["autoencoder.decode_row_steps"]
            ),
            "autoencoder.load_checkpoint_s": busy["autoencoder.load_checkpoint"],
            "dpmech.clip_l1.calls": per_round("dpmech.clip_l1.calls"),
            "dpmech.sample_laplace.calls": per_round("dpmech.sample_laplace.calls"),
            "dpmech.sample_laplace_s": busy["dpmech.sample_laplace"],
            "dpmech.run_bound_suite_s": busy["dpmech.run_bound_suite"],
            "dpmech.bound_trials_per_s": _ratio(
                per_round("dpmech.bound_trials"), busy["dpmech.run_bound_suite"]
            ),
            "pipeline.rewrite_documents_s": busy["pipeline.rewrite_documents"],
            "pipeline.rewrite_documents.docs": per_round("pipeline.rewrite_documents.docs"),
            "corpus.load_dataset_s": busy["corpus.load_dataset"],
            "corpus.encode_s": busy["corpus.encode"],
            "corpus.decode_ids_s": busy["corpus.decode_ids"],
            "corpus.write_split_s": busy["corpus.write_split"],
            "metrics.leak_audit_s": busy["metrics.leak_audit"],
            "metrics.leak_audit.pairs": per_round("metrics.leak_audit.pairs"),
            "metrics.leak_pairs_per_s": _ratio(
                per_round("metrics.leak_audit.pairs"), busy["metrics.leak_audit"]
            ),
            "metrics.bleu_s": busy["metrics.bleu"],
            "downstream.train_classifier_s": busy["downstream.train_classifier"],
            "downstream.predict_batch_s": busy["downstream.predict_batch"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m


def span_cost_s() -> float:
    """Time one span adds to a call: a wrapped no-op minus a bare one, per
    call, as the median of 5 measurements of 20000 calls. The wrapper has
    no count hook, and a scratch tracer records the spans."""

    def noop():
        return None

    calls = 20000
    clock = time.perf_counter
    costs = []
    for _ in range(5):
        wrapped = Tracer()._wrap("trace.noop", noop, None)
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        costs.append((clock() - start - bare) / calls)
    return statistics.median(costs)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0
