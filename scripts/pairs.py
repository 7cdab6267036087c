#!/usr/bin/env python3
"""Alternating benchmark pairs of two dprw checkouts.

    python3 scripts/pairs.py PARENT CHANGE --workload pretrain --seeds 1-10 --seconds 30

For each seed, runs `perfbench/run.py --workload W --seed S --seconds X
--trace 0` once in each checkout, the parent first on odd pairs and the
change first on even ones, so drift on a shared machine falls on both
sides alike. It then prints, for every end-to-end metric the runs report,
each pair's values, both medians and interquartile ranges, the median
change and in how many pairs the change read lower. Last, each checkout
runs one benchmark-size pre-train (perfbench's `Pretrain` round) in a
fresh process and the minor page faults of that pre-train are printed.

Standard library only; each checkout runs with its own `src/` and the
Python that runs this script. The exit code is 1 when any run was not
`correct`, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# One benchmark-size pre-train of perfbench's pretrain workload, in the
# checkout's working directory; prints the minor page faults it took.
MINFLT_CHILD = """
import resource, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
import bench
work = bench.Pretrain(Path("."), int(sys.argv[1]), bench.SIZES["full"]["pretrain"])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
work.round(0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' or a mix ('1-3,7') -> the listed seeds in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (inclusive method); a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]]) -> dict[str, dict]:
    """Per metric over (parent, change) pairs of {metric: value} dicts: the
    values, each side's median and IQR, the median's relative change and
    how many pairs read lower on the change. Metrics missing from any run
    are left out."""
    names = [n for n in pairs[0][0] if all(n in p and n in c for p, c in pairs)]
    out = {}
    for name in names:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        med_p, med_c = statistics.median(parent), statistics.median(change)
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        out[name] = {
            "parent": parent,
            "change": change,
            "median_parent": med_p,
            "median_change": med_c,
            "iqr_parent": p3 - p1,
            "iqr_change": c3 - c1,
            "median_delta": (med_c - med_p) / med_p if med_p else float("nan"),
            "change_lower": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in ``tree``: its last output line, a JSON
    object, with `correct` false also when the run exited non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env={**os.environ, **ENV}, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
        sys.stderr.write(proc.stderr[-2000:])
    return result


def pretrain_minflt(tree: Path, seed: int) -> int:
    proc = subprocess.run([sys.executable, "-c", MINFLT_CHILD, str(seed)], cwd=tree,
                          env={**os.environ, **ENV}, capture_output=True, text=True, check=True)
    return int(proc.stdout.strip().splitlines()[-1])


def report(summary: dict[str, dict], firsts: list[str], seeds: list[int]) -> str:
    lines = []
    for name, s in summary.items():
        lines.append(f"{name}")
        lines.append(f"  {'pair':>4} {'seed':>5} {'first':>7} {'parent':>12} {'change':>12}")
        for i, (seed, first, p, c) in enumerate(zip(seeds, firsts, s["parent"], s["change"]), start=1):
            lines.append(f"  {i:>4} {seed:>5} {first:>7} {p:>12.6g} {c:>12.6g}")
        lines.append(
            f"  median {s['median_parent']:.6g} -> {s['median_change']:.6g} ({100 * s['median_delta']:+.1f}%), "
            f"IQR {s['iqr_parent']:.6g} / {s['iqr_change']:.6g}, change lower in {s['change_lower']}/{s['pairs']}"
        )
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=("pretrain", "rewrite", "case_study"))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"pairs: {tree} has no perfbench/run.py", file=sys.stderr)
            return 2
    seeds = parse_seeds(args.seeds)

    pairs, firsts, all_correct = [], [], True
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_bench(trees[side], args.workload, seed, args.seconds)
            if not runs[side]["correct"]:
                all_correct = False
                print(f"pair {i + 1} seed {seed}: the {side} run was not correct", file=sys.stderr)
        values = {side: {k: m["value"] for k, m in r["metrics"].items()} for side, r in runs.items()}
        pairs.append((values["parent"], values["change"]))
        firsts.append(order[0])
        print(f"pair {i + 1} seed {seed} first {order[0]}: "
              + ", ".join(f"{k} {values['parent'].get(k)} -> {values['change'].get(k)}" for k in values["parent"]),
              flush=True)

    print(f"workload {args.workload}, {len(seeds)} pairs at --seconds {args.seconds}")
    print(report(summarize(pairs), firsts, seeds))
    for side, tree in trees.items():
        print(f"ru_minflt of one benchmark-size pre-train ({side}): {pretrain_minflt(tree, seeds[0])}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
