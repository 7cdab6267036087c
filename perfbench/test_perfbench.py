"""Fast tests of the benchmark itself, at the tiny size.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Layer metrics that must read 0 where the workload bypasses the layer.
BYPASSED = {
    "pretrain": [
        "dpmech.clip_l1.calls", "dpmech.sample_laplace.calls", "dpmech.run_bound_suite_s",
        "pipeline.rewrite_documents.docs", "autoencoder.decode_row_steps",
        "metrics.leak_audit.pairs", "metrics.bleu_s", "downstream.train_classifier_s",
    ],
    "rewrite": [
        "numcore.tape_nodes_per_backward", "numcore.backward_s", "numcore.adam_step_s",
        "autoencoder.build_loss_s", "dpmech.run_bound_suite_s",
        "metrics.leak_audit.pairs", "metrics.leak_audit_s", "metrics.bleu_s",
        "downstream.train_classifier_s", "downstream.predict_batch_s",
    ],
    "case_study": ["autoencoder.load_checkpoint_s"],
}
# ... and that must be non-zero where it uses the layer.
USED = {
    "pretrain": ["numcore.tape_nodes_per_backward", "numcore.backward_s", "autoencoder.batch_fill"],
    "rewrite": ["autoencoder.decode_row_steps", "dpmech.sample_laplace.calls", "autoencoder.load_checkpoint_s"],
    "case_study": ["metrics.leak_audit.pairs", "downstream.train_classifier_s", "dpmech.bound_trials_per_s"],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 0.3):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record_path = next(line.split(" ", 2)[2] for line in lines if line.startswith("result file "))
    return result, json.loads(Path(record_path).read_text())


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def workload(request):
    return request.param


@pytest.fixture(scope="module")
def untraced(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc, *parse(proc)


@pytest.fixture(scope="module")
def traced(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc, *parse(proc)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    proc, result, _ = untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and entry["value"] > 0
        assert re.search(rf"^{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$", proc.stdout, re.M)
    assert re.search(r"^failure_ratio\s+0 \(0 failed / \d+ attempted\)$", proc.stdout, re.M)


def test_result_file_records_environment_and_sizes(untraced):
    _, _, record = untraced
    for key in ("nproc", "blas", "blas_threads", "python", "numpy"):
        assert key in record["env"]
    assert record["env"]["blas_threads_env"] == "1"
    assert record["seed"] == 3 and record["sizes"]["docs_per_round"] > 0
    assert len(record["setup_samples_s"]) == 5


def test_traced_run_prints_every_per_layer_metric(traced):
    proc, result, _ = traced
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert "trace.overhead_s" in proc.stdout


def test_spans_nest_and_self_times_are_not_negative(traced):
    _, result, record = traced
    spans = json.loads(Path(record["spans_file"]).read_text())
    assert spans
    for name, parent, start, end, _ in spans:
        assert start <= end
        if parent >= 0:
            _, _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    sys.path.insert(0, str(HERE))
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    tracer.spans = spans
    assert min(tracer.self_times()) >= 0.0
    for layer in LAYERS:
        assert result["metrics"][f"{layer}.self_s"]["value"] >= 0.0


def test_layer_self_times_add_up_to_the_root_spans(traced):
    """Over the set-up plus one average traced round, the layers' self times
    sum to the duration of the top-level spans."""
    _, result, record = traced
    spans = json.loads(Path(record["spans_file"]).read_text())
    traced_rounds = {phase for *_, phase in spans if phase != "setup"}
    weight = {"setup": 1.0, **{r: 1.0 / len(traced_rounds) for r in traced_rounds}}
    roots = sum((end - start) * weight[phase] for _, parent, start, end, phase in spans if parent < 0)
    sys.path.insert(0, str(HERE))
    from tracing import LAYERS

    layers = sum(result["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert layers == pytest.approx(roots, rel=1e-9)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.overhead_s"] == pytest.approx(1e-6 * m["trace.span_cost_us"] * m["trace.spans_per_round"])
    assert m["trace.span_cost_us"] > 0


def test_bypassed_layers_read_zero_and_used_layers_do_not(traced, workload):
    _, result, _ = traced
    for name in BYPASSED[workload]:
        assert result["metrics"][name]["value"] == 0, name
    for name in USED[workload]:
        assert result["metrics"][name]["value"] > 0, name


def run_mutant(tmp_path: Path, module: str, old: str, new: str, workload: str):
    """Run the benchmark on a copy of the program with one source edit."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    path = tmp_path / "src" / "dprw" / module
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    proc = run_bench(workload, 0, cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    return proc


def test_a_failed_check_fails_the_run(tmp_path):
    """A program that drops labels is caught: exit 1, correct false."""
    proc = run_mutant(tmp_path, "pipeline.py", "Document(text=text if text else UNK, label=doc.label)",
                      'Document(text=text if text else UNK, label="x")', "rewrite")
    assert "labels changed" in proc.stdout


def test_a_classifier_that_predicts_one_label_fails_the_run(tmp_path):
    proc = run_mutant(tmp_path, "downstream.py", "return [model.labels[i] for i in np.argmax(logits, axis=1)]",
                      "return [model.labels[0] for _ in docs]", "case_study")
    assert "not above the majority baseline" in proc.stdout


def test_request_mix_halves_the_requests_as_the_size_doubles():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bench

    assert bench.request_mix(64) == [(1, 64), (2, 32), (4, 16), (8, 8), (16, 4), (32, 2), (64, 1)]


def test_quality_below_reference_is_a_failed_check():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bench

    reference = json.loads((HERE / "reference.json").read_text())
    assert set(reference) == {w["name"] for w in SPEC["workloads"]}
    assert bench.within(reference["pretrain"]["final_loss"]["value"], reference["pretrain"]["final_loss"])
    degraded = reference["pretrain"]["final_loss"]["value"] + 2 * reference["pretrain"]["final_loss"]["tol"]
    assert not bench.within(degraded, reference["pretrain"]["final_loss"])


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("pretrain", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
