#!/usr/bin/env python3
"""Benchmark of dprw: one workload, one seed, one measured run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rewrite --seed 1 --seconds 30 --trace 0

Every piece of work runs in a fresh child process (perfbench/bench.py) with
the BLAS thread count fixed. The child set-up is sampled several times and
reported as a median. --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 prints the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
correctness check passed. A result file with the environment, the sizes and
every metric goes to .bench_runs/results/, and a traced run writes its
spans beside it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pretrain", "rewrite", "case_study")
BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared machine steady
SETUP_SAMPLES = 5  # set-ups per run: the measuring child's plus this many minus one alone
DEADLINE_S = 170.0  # every child is stopped before the run exceeds this
SMALL_REQUEST = 8  # documents: a rewrite request this size or smaller counts as small


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """The metrics BENCHMARK.json bounds, and the unbounded ones printed beside them."""
    untraced = [r for r in result["rounds"] if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in untraced)
    info = result["info"]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    # docs_per_round is fixed per workload, so this throughput mirrors wall_s
    extra = {"docs_per_s": (info["docs_per_round"] / wall, "1/s")}
    if "train_tokens_per_round" in info:
        extra["train_tokens_per_s"] = (info["train_tokens_per_round"] / wall, "tokens/s")
    if "request_ms" in result:
        sizes, latencies = zip(*result["request_ms"])
        extra["request_ms.p50"] = (statistics.median(latencies), "ms")
        extra["request_ms.p95"] = (statistics.quantiles(latencies, n=20, method="inclusive")[18], "ms")
        extra["requests"] = (len(latencies), "count")
        # how much of the request time the small requests take, so wall_s follows their latency
        small = sum(ms for n, ms in zip(sizes, latencies) if n <= SMALL_REQUEST)
        extra[f"request_time_share.le{SMALL_REQUEST}"] = (small / sum(latencies), "ratio")
    return metrics, extra


def failures(result: dict) -> tuple[int, int, list[str]]:
    ops = [op for r in result["rounds"] for op in r["ops"]] + result["checks"]
    errors = [e for op in ops for e in op["errors"]]
    return len(ops), sum(1 for op in ops if op["errors"]), errors


class Child:
    """Starts bench.py children for one invocation, within one deadline."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        threads = str(BLAS_THREADS)
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            PYTHONHASHSEED="0",
        )

    def run(self, mode: str, out: Path | None = None, trace: int = 0) -> dict | None:
        cmd = [
            sys.executable, str(HERE / "bench.py"), mode,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--size", self.args.size,
            "--seconds", str(self.args.seconds),
            "--trace", str(trace),
            "--work", str(self.work),
        ]
        if out is not None:
            cmd += ["--out", str(out)]
        remaining = self.deadline - time.monotonic()
        # child output goes to stderr: standard output ends with the result line
        proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"bench.py {mode} exited with {proc.returncode}")
        return json.loads(out.read_text()) if out is not None else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: only for the benchmark's tests")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dprw" / "__init__.py").is_file():
        print("perfbench: run from the root of a dprw checkout (src/dprw not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    runs = root / ".bench_runs"
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}"
    work = runs / "work" / tag
    work.mkdir(parents=True)
    try:
        child = Child(args, work)
        if args.workload == "rewrite":
            child.run("prepare")
        setup_samples = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setup_samples.append(child.run("setup", work / f"setup{i}.json")["setup_s"])
        result = child.run("measure", work / "measure.json", trace=args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, errors = failures(result)
    setup_samples.append(result["setup_s"])
    metrics, extra = end_to_end(result, setup_samples)
    rounds = result["rounds"]
    print(f"perfbench workload={args.workload} seed={args.seed} size={args.size} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("sizes " + json.dumps(result["info"], sort_keys=True))
    print(f"rounds {len(rounds)} ({sum(r['traced'] for r in rounds)} traced); set-ups {len(setup_samples)}")

    if args.trace:
        wanted = spec["per_layer"]
        traced_wall = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        layer = dict(result["per_layer"])
        layer["trace.wall_s"] = traced_wall
        spans_per_round = result["trace"]["spans_per_round"]
        layer["trace.span_cost_us"] = 1e6 * result["trace"]["span_cost_s"]
        layer["trace.overhead_s"] = result["trace"]["span_cost_s"] * spans_per_round
        layer["trace.unaccounted_s"] = result["trace"]["unaccounted_s"]
        layer["trace.spans_per_round"] = spans_per_round
        values = layer
    else:
        wanted = spec["end_to_end"]
        values = metrics
    out_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in out_metrics.items():
        print(f"{name:<36} {entry['value']:>16.6g} {entry['unit']}")
    if args.trace:
        # rounds spread by more than the overhead, so this difference is not resolved
        print(f"{'traced minus untraced median round':<36} {traced_wall - metrics['wall_s']:>16.6g} s  "
              f"({len(rounds)} rounds, not resolved; trace.overhead_s is the estimate)")
    else:
        for name, (value, unit) in extra.items():
            print(f"{name:<36} {value:>16.6g} {unit}  (not in BENCHMARK.json)")
    ratio = failed / attempted if attempted else float("nan")
    print(f"{'failure_ratio':<36} {ratio:>16.6g} ({failed} failed / {attempted} attempted)")
    for message in errors[:20]:
        print(f"check failed: {message}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": result["env"],
        "sizes": result["info"],
        "metrics": {name: e["value"] for name, e in out_metrics.items()},
        "workload_metrics": {name: value for name, (value, _) in extra.items()},
        "setup_samples_s": setup_samples,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    results = runs / "results"
    results.mkdir(parents=True, exist_ok=True)
    if args.trace:
        spans_file = results / f"SPANS_{tag}.json"
        spans_file.write_text(json.dumps(result["trace"]["spans"]))
        record["spans_file"] = str(spans_file)
    (results / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"result file {results / f'BENCH_{tag}.json'}")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
