#!/usr/bin/env python3
"""Run the CLI set that byte-identity checks compare, into one directory.

    python3 scripts/cli_snapshot.py OUT_DIR [--checkpoint FILE]

OUT_DIR must not exist. Every command runs with OUT_DIR as its working
directory and relative paths, so two snapshots differ only where the
outputs do:

  data/                 make_synth_corpora.py, 60/12/48 documents per corpus
  pretrain/             dprw pretrain on data/flights, --jobs 2
  rewrite-inf/          dprw rewrite through pretrain/checkpoint.bin at inf
  rewrite-10/           the same at --epsilon 10 --clip 5
  downstream/           dprw downstream on the data/flights TSVs
  case-study-jobs1/     dprw case-study with --jobs 1
  case-study-jobs2/     the same with --jobs 2
  validate-dp/          dprw validate-dp
  validate-dp-b-half/   the same at 2001 trials with --noise-scale 0.5, half
                        the calibrated scale, so the audit fails and exits 2
  <step>.stdout         each command's standard output

dprw is imported from the src/ directory beside this script, with one BLAS
thread. To compare two checkouts, copy this script into the other one, run
it in each, and `diff -r` the two directories. With --checkpoint FILE the
pre-train is skipped and the rewrites read a copy of FILE at
pretrain/checkpoint.bin, so a rewrite through a checkpoint that another
checkout wrote can be compared with that checkout's snapshot.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# small enough that the whole set runs in well under a minute
AUTOENCODER = ["--epochs", "30", "--embed-dim", "16", "--hidden-dim", "32", "--max-len", "12"]
CLASSIFIER = ["--clf-epochs", "3"]
CHECKPOINT = "pretrain/checkpoint.bin"

STEPS = [
    ("data", ["scripts/make_synth_corpora.py", "--out", "data", "--seed", "7",
              "--train-size", "60", "--val-size", "12", "--test-size", "48"]),
    ("pretrain", ["-m", "dprw", "pretrain", "--train", "data/flights/train.tsv",
                  "--out-dir", "pretrain", "--jobs", "2", *AUTOENCODER]),
    ("rewrite-inf", ["-m", "dprw", "rewrite", "--checkpoint", CHECKPOINT, "--train", "data/flights/train.tsv",
                     "--val", "data/flights/validation.tsv", "--epsilon", "inf", "--out-dir", "rewrite-inf"]),
    ("rewrite-10", ["-m", "dprw", "rewrite", "--checkpoint", CHECKPOINT, "--train", "data/flights/train.tsv",
                    "--val", "data/flights/validation.tsv", "--epsilon", "10", "--clip", "5",
                    "--out-dir", "rewrite-10"]),
    ("downstream", ["-m", "dprw", "downstream", "--train", "data/flights/train.tsv",
                    "--val", "data/flights/validation.tsv", "--test", "data/flights/test.tsv",
                    "--out-dir", "downstream", *CLASSIFIER]),
    *[
        (f"case-study-jobs{jobs}", ["-m", "dprw", "case-study", "--dataset-a", "data/flights",
                                    "--dataset-b", "data/smart_home", "--out-dir", f"case-study-jobs{jobs}",
                                    "--jobs", str(jobs), *AUTOENCODER, *CLASSIFIER])
        for jobs in (1, 2)
    ],
    ("validate-dp", ["-m", "dprw", "validate-dp", "--epsilon", "10", "--trials", "2000",
                     "--out-dir", "validate-dp"]),
    ("validate-dp-b-half", ["-m", "dprw", "validate-dp", "--epsilon", "10", "--trials", "2001",
                            "--noise-scale", "0.5", "--out-dir", "validate-dp-b-half"]),
]
# steps whose expected exit status is not 0; a failed audit exits 2
EXIT_CODES = {"validate-dp-b-half": 2}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path, help="snapshot directory; must not exist")
    ap.add_argument("--checkpoint", type=Path, help="rewrite through a copy of this file instead of pre-training")
    args = ap.parse_args()
    if args.out_dir.exists():
        print(f"cli_snapshot: {args.out_dir} already exists", file=sys.stderr)
        return 1
    given = args.checkpoint.resolve() if args.checkpoint else None
    args.out_dir.mkdir(parents=True)
    threads = "1"
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    for name, argv in STEPS:
        if name == "pretrain" and given is not None:
            (args.out_dir / "pretrain").mkdir()
            shutil.copyfile(given, args.out_dir / CHECKPOINT)
            continue
        if argv[0].startswith("scripts/"):
            argv = [str(ROOT / argv[0]), *argv[1:]]
        with open(args.out_dir / f"{name}.stdout", "wb") as stdout:
            code = subprocess.run([sys.executable, *argv], cwd=args.out_dir, env=env, stdout=stdout).returncode
        if code != EXIT_CODES.get(name, 0):
            print(f"cli_snapshot: step {name} exited with {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
