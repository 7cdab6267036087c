#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and a BENCH_*.json trajectory point.

Runs perfbench/run.py untraced once per seed 1-10 on every workload of
BENCHMARK.json, in two sets, then once traced per workload, from the root of
a checkout:

    python3 perfbench/spread.py --out perfbench/results/BENCH_<label>.json

Within a set the workloads are interleaved seed by seed, so a slow drift of
the machine's speed spreads over every workload and seed instead of
following the run order. For every end-to-end metric it prints, per set, the
median, the quartiles of statistics.quantiles(values, n=4) and their distance
as a share of the median, next to the metric's bound in BENCHMARK.json; a
spread above a third of the bound is flagged. It then prints how far the
second set's median moved from the first's, against the same bound. The
output file keeps every value of both sets, the per-layer metrics of the
traced runs and the environment of the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result_file = next(line.split(" ", 2)[2] for line in lines if line.startswith("result file "))
    return json.loads(Path(result_file).read_text())


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def summarize_set(runs: list[dict], spec: dict) -> dict:
    entry = {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
             "end_to_end": {}, "workload_metrics": {}}
    for metric in spec["end_to_end"]:
        entry["end_to_end"][metric["name"]] = summarize([r["metrics"][metric["name"]] for r in runs])
    for name in runs[0]["workload_metrics"]:
        entry["workload_metrics"][name] = summarize([r["workload_metrics"][name] for r in runs])
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write a BENCH_*.json trajectory point here")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {(s, w): [] for s in range(SETS) for w in workloads}
    for s in range(SETS):
        for seed in SEEDS:
            for workload in workloads:
                runs[s, workload].append(run_once(workload, seed, seconds, 0))
    record = {"date": time.strftime("%Y-%m-%d", time.gmtime()), "run_seconds": seconds, "seeds": SEEDS,
              "env": runs[0, workloads[0]][0]["env"], "workloads": {}}
    worst_spread = worst_shift = 0.0
    for workload in workloads:
        sets = [summarize_set(runs[s, workload], spec) for s in range(SETS)]
        entry = {"sizes": runs[0, workload][0]["sizes"], "sets": sets, "median_shift": {}}
        print(f"{workload}: {SETS} sets of {len(SEEDS)} runs, "
              f"{sum(e['failed'] for e in sets)} failed / {sum(e['attempted'] for e in sets)} attempted ops")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            gated = name != "setup_s"
            for s, e in enumerate(sets):
                stats = e["end_to_end"][name]
                flag = "  > bound/3" if gated and stats["spread"] > bound / 3 else ""
                if gated:
                    worst_spread = max(worst_spread, stats["spread"] / bound)
                print(f"  {name:<14} set {s + 1} median {stats['median']:12.6g} {metric['unit']:<5} "
                      f"q1 {stats['q1']:10.6g} q3 {stats['q3']:10.6g} spread {stats['spread']:7.2%} "
                      f"(bound {bound:.0%}){flag}")
            first, second = (e["end_to_end"][name]["median"] for e in sets)
            shift = (second - first) / first
            worse = shift if metric["better"] == "lower" else -shift
            worst_shift = max(worst_shift, worse / bound)
            entry["median_shift"][name] = shift
            flag = "  > bound" if worse > bound else ""
            print(f"  {name:<14} set 2 median vs set 1: {shift:+7.2%} (bound {bound:.0%}){flag}")
        for name in sets[0]["workload_metrics"]:
            medians = " ".join(f"{e['workload_metrics'][name]['median']:12.6g}" for e in sets)
            print(f"  {name:<14} medians {medians}  (not gated)")
        entry["per_layer"] = run_once(workload, SEEDS[0], seconds, 1)["metrics"]
        record["workloads"][workload] = entry
    print(f"largest spread / bound over gated metrics: {worst_spread:.2f}")
    print(f"largest worsening of the median between sets / bound: {worst_shift:.2f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
