"""Command-line entry point.

Five subcommands: pretrain, rewrite, downstream, case-study, and
validate-dp. Options can come from flags or from a JSON config file
(``--config``) whose keys are the flags' dests (long flag names with
underscores); each value is parsed exactly as its flag is, and explicit
flags win. ``DPRW_SEED`` is the fallback seed when neither source names
one. Exit codes: 0 success, 1 configuration or usage error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .autoencoder import AutoencoderConfig
from .downstream import ClassifierConfig
from .dpmech import PrivacyParams, run_bound_suite
from .numcore import Rng
from .pipeline import DEFAULT_SEEDS, ExperimentConfig, epsilon_repr, run_experiment

__all__ = ["main", "parse_epsilon", "CliError"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

_AUDIT_DIM = 128
_AUDIT_TRIALS = 100_000


class CliError(Exception):
    """Configuration mistake; reported on stderr with exit code 1."""


class _UsageError(CliError):
    """Bad flags or subcommand; ``usage`` is the parser's usage text."""

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here
    # reserves 2 for runtime failures, so remap through an exception.
    def error(self, message: str):
        raise _UsageError(message, self.format_usage())


def parse_epsilon(value) -> float:
    """Accept a positive number or the literal 'inf'."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        eps = float(value)
    else:
        text = str(value).strip().lower()
        if text == "inf":
            return math.inf
        try:
            eps = float(text)
        except ValueError:
            raise CliError("epsilon must be positive or 'inf'") from None
    if math.isnan(eps) or math.isinf(eps) and eps < 0 or eps <= 0:
        raise CliError("epsilon must be positive or 'inf'")
    return eps


# -- flag definitions ----------------------------------------------------------

# (dest, config field, help): the flag is --<dest with dashes> and takes
# the type and the default of the field it sets
_AUTOENCODER_FLAGS = (
    ("epochs", "epochs", "pre-training epochs"),
    ("lr", "learning_rate", "pre-training learning rate"),
    ("clip", "clip_c", "latent l1 clip radius C"),
    ("max_len", "max_len", "token truncation length"),
    ("embed_dim", "embed_dim", "embedding width"),
    ("hidden_dim", "hidden_dim", "GRU state width"),
    ("batch_size", "batch_size", "minibatch size"),
)
_CLASSIFIER_FLAGS = (
    ("clf_epochs", "epochs", "classifier epochs"),
    ("clf_lr", "learning_rate", "classifier learning rate"),
    ("clf_embed_dim", "embed_dim", "classifier embedding width"),
)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_config_flags(sub: argparse.ArgumentParser, cls: type, table: tuple) -> None:
    for dest, field, text in table:
        default = getattr(cls, field)
        sub.add_argument(_flag(dest), dest=dest, type=type(default), help=f"{text} (default {default})")


def _add_common(sub: argparse.ArgumentParser, default_out: str, jobs: bool = True) -> None:
    """Flags every subcommand shares."""
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out-dir", dest="out_dir", help=f"report directory (default {default_out})")
    sub.add_argument(
        "--seed",
        action="append",
        type=int,
        help="experiment seed; repeat for multi-seed runs, except on validate-dp "
        f"(default DPRW_SEED or {list(DEFAULT_SEEDS)})",
    )
    if jobs:
        default = ExperimentConfig.jobs
        sub.add_argument("--jobs", type=int, help=f"parallel worker processes (default {default})")
    sub.set_defaults(default_out=default_out, parser=sub)


def build_parser() -> _Parser:
    parser = _Parser(prog="dprw", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = commands.add_parser("pretrain", help="train the autoencoder and save a checkpoint")
    p.add_argument("--train", help="training split TSV")
    p.add_argument("--out", help="checkpoint output path (default <out-dir>/checkpoint.bin)")
    _add_config_flags(p, AutoencoderConfig, _AUTOENCODER_FLAGS)
    _add_common(p, "runs/pretrain")

    p = commands.add_parser("rewrite", help="privatize a corpus through a checkpoint")
    p.add_argument("--checkpoint", help="checkpoint to rewrite through")
    p.add_argument("--train", help="training split TSV")
    p.add_argument("--val", help="validation split TSV")
    p.add_argument("--epsilon", help="privacy budget, a positive number or 'inf'")
    p.add_argument(
        "--clip",
        type=float,
        help="latent l1 clip radius C; must be the checkpoint's (default the checkpoint's)",
    )
    _add_common(p, "runs/rewrite")

    p = commands.add_parser("downstream", help="train a classifier and score the original test split")
    p.add_argument("--train", help="training split TSV (typically rewritten)")
    p.add_argument("--val", help="validation split TSV")
    p.add_argument("--test", help="original test split TSV")
    _add_config_flags(p, ClassifierConfig, _CLASSIFIER_FLAGS)
    _add_common(p, "runs/downstream")

    p = commands.add_parser("case-study", help="full pretrain/rewrite/downstream matrix over two corpora")
    p.add_argument("--dataset-a", dest="dataset_a", help="directory with train/validation/test TSVs")
    p.add_argument("--dataset-b", dest="dataset_b", help="directory with train/validation/test TSVs")
    margin = ExperimentConfig.leak_margin
    p.add_argument("--leak-margin", dest="leak_margin", type=float, help=f"audit flag margin (default {margin})")
    _add_config_flags(p, AutoencoderConfig, _AUTOENCODER_FLAGS)
    _add_config_flags(p, ClassifierConfig, _CLASSIFIER_FLAGS)
    _add_common(p, "runs/case-study")

    p = commands.add_parser("validate-dp", help="randomized audit of the privacy bound")
    p.add_argument("--epsilon", help="privacy budget to audit; must be finite")
    p.add_argument("--clip", type=float, help=f"latent l1 clip radius C (default {AutoencoderConfig.clip_c})")
    p.add_argument("--dim", type=int, help=f"latent dimension (default {_AUDIT_DIM})")
    p.add_argument("--trials", type=int, help=f"number of random triples (default {_AUDIT_TRIALS})")
    p.add_argument("--noise-scale", dest="noise_scale", type=float, help=argparse.SUPPRESS)
    _add_common(p, ".", jobs=False)

    return parser


# -- config resolution ---------------------------------------------------------


def _parse_config_file(ns: argparse.Namespace) -> argparse.Namespace:
    """Parse the config file as more flags for the subcommand: each key is
    a dest and each value becomes ``--flag=value``. null means unset, and
    only an append option (``seed``) takes a list."""
    where = f"config file {ns.config}"
    try:
        data = json.loads(Path(ns.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"{where}: cannot read it: {exc.strerror}") from None
    except ValueError as exc:
        raise CliError(f"{where}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"{where}: must hold a JSON object")
    options = {a.dest: a for a in ns.parser._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(data) - set(options))
    if unknown:
        raise CliError(f"{where}: unknown config keys for {ns.command}: {', '.join(unknown)}")
    argv = []
    for key, value in data.items():
        if value is None:
            continue
        action = options[key]
        many = isinstance(action, argparse._AppendAction)
        items = value if many and isinstance(value, list) else [value]
        if not items or not all(isinstance(v, (int, float, str)) and not isinstance(v, bool) for v in items):
            what = "a number, a string or null"
            if many:
                what += ", or a non-empty list of numbers or strings"
            raise CliError(f"{where}: key {key!r} must be {what}")
        argv += [f"{action.option_strings[0]}={v}" for v in items]
    try:
        return ns.parser.parse_args(argv)
    except _UsageError as exc:
        raise CliError(f"{where}: {exc}") from None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Flags, then the config file's value for each option the flags left unset."""
    ns = build_parser().parse_args(argv)
    if ns.config is not None:
        for dest, value in vars(_parse_config_file(ns)).items():
            if getattr(ns, dest) is None:
                setattr(ns, dest, value)
    if ns.out_dir is None:
        ns.out_dir = ns.default_out
    return ns


def _require(ns: argparse.Namespace, dest: str):
    value = getattr(ns, dest)
    if value is None:
        raise CliError(f"missing required option {_flag(dest)}")
    return value


def _seeds(ns: argparse.Namespace) -> list[int] | None:
    if ns.seed:
        return ns.seed
    env = os.environ.get("DPRW_SEED")
    if env is not None:
        try:
            return [int(env)]
        except ValueError:
            raise CliError(f"DPRW_SEED must be an integer, got {env!r}") from None
    return None


def _set(**values) -> dict:
    """The values that are set; an unset one keeps its dataclass default."""
    return {key: value for key, value in values.items() if value is not None}


def _config(cls: type, table: tuple, ns: argparse.Namespace):
    """``cls`` from the options in ``table``; a refused value names its flag."""
    try:
        return cls(**_set(**{field: getattr(ns, dest) for dest, field, _ in table}))
    except ValueError as exc:
        flags = [_flag(dest) for dest, field, _ in table if field in str(exc)]
        raise CliError(f"{', '.join(flags)}: {exc}") from None


def _experiment_config(ns: argparse.Namespace) -> ExperimentConfig:
    common = _set(out_dir=ns.out_dir, jobs=ns.jobs, seeds=_seeds(ns))
    try:
        if ns.command == "pretrain":
            return ExperimentConfig(
                mode="pretrain",
                train_path=_require(ns, "train"),
                checkpoint_out=ns.out,
                autoencoder=_config(AutoencoderConfig, _AUTOENCODER_FLAGS, ns),
                **common,
            )
        if ns.command == "rewrite":
            # an unset --clip is the checkpoint's, read where run_rewrite loads it
            return ExperimentConfig(
                mode="rewrite",
                checkpoint_in=_require(ns, "checkpoint"),
                train_path=_require(ns, "train"),
                validation_path=ns.val,
                epsilon=parse_epsilon(_require(ns, "epsilon")),
                clip_c=ns.clip,
                **common,
            )
        if ns.command == "downstream":
            return ExperimentConfig(
                mode="downstream",
                train_path=_require(ns, "train"),
                validation_path=ns.val,
                test_path=_require(ns, "test"),
                classifier=_config(ClassifierConfig, _CLASSIFIER_FLAGS, ns),
                **common,
            )
        if ns.command == "case-study":
            return ExperimentConfig(
                mode="case_study",
                dataset_a=_require(ns, "dataset_a"),
                dataset_b=_require(ns, "dataset_b"),
                autoencoder=_config(AutoencoderConfig, _AUTOENCODER_FLAGS, ns),
                classifier=_config(ClassifierConfig, _CLASSIFIER_FLAGS, ns),
                **_set(leak_margin=ns.leak_margin),
                **common,
            )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    raise AssertionError(f"unhandled command {ns.command}")


# -- validate-dp ---------------------------------------------------------------


def _run_validate_dp(ns: argparse.Namespace) -> int:
    epsilon = parse_epsilon(_require(ns, "epsilon"))
    if math.isinf(epsilon):
        raise CliError("epsilon is infinite; nothing to verify")
    clip = AutoencoderConfig.clip_c if ns.clip is None else ns.clip
    dim = _AUDIT_DIM if ns.dim is None else ns.dim
    trials = _AUDIT_TRIALS if ns.trials is None else ns.trials
    noise_scale = ns.noise_scale
    if dim < 1:
        raise CliError("dim must be at least 1")
    if trials < 1:
        raise CliError("trials must be positive")
    if noise_scale is not None and not (math.isfinite(noise_scale) and noise_scale > 0):
        raise CliError("noise_scale must be positive and finite")
    seeds = _seeds(ns)
    if seeds and len(seeds) > 1:
        raise CliError(f"validate-dp takes one seed, got {len(seeds)}: {seeds}")
    seed = seeds[0] if seeds else DEFAULT_SEEDS[0]
    try:
        params = PrivacyParams(epsilon=epsilon, clip_c=clip)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    report = run_bound_suite(
        params, dim, trials, Rng(seed).derive("validate-dp"), noise_scale=noise_scale
    )

    out = Path(ns.out_dir)
    resolved = {
        "command": "validate-dp",
        "epsilon": epsilon_repr(epsilon),
        "clip_c": clip,
        "dim": dim,
        "trials": trials,
        "noise_scale": noise_scale,
        "seed": seed,
        "out_dir": str(out),
    }
    payload = {
        "epsilon": epsilon_repr(report.epsilon),
        "trials": report.trials,
        "max_abs_log_ratio": report.max_abs_log_ratio,
        "violations": report.violations,
        "tightness": report.tightness,
        "ok": report.ok,
    }
    # serialize both before writing either, so a non-finite value writes nothing
    texts = {
        name: json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
        for name, data in (("config_resolved.json", resolved), ("report.json", payload))
    }
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)

    print(f"epsilon bound:      {epsilon_repr(epsilon)}")
    print(f"clip radius:        {clip}")
    print(f"dim x trials:       {dim} x {trials}")
    print(f"max |log-ratio|:    {report.max_abs_log_ratio:.9g}")
    print(f"antipodal tightness: {report.tightness:.6f}")
    print(f"violations:         {report.violations}")
    print("PASS" if report.ok else "FAIL")
    return EXIT_OK if report.ok else EXIT_RUNTIME


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parse(argv)
        if ns.command == "validate-dp":
            return _run_validate_dp(ns)
        config = _experiment_config(ns)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else EXIT_OK
    except _UsageError as exc:
        print(f"{exc.usage}error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        run_experiment(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
