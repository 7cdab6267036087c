"""Command-line entry point.

Five subcommands: pretrain, rewrite, downstream, case-study, and
validate-dp. Options can come from flags or from a JSON config file
(``--config``) whose keys are the long flag names with underscores;
explicit flags win. ``DPRW_SEED`` is the fallback seed when neither
source names one. Exit codes: 0 success, 1 configuration or usage
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .autoencoder import AutoencoderConfig, load_checkpoint
from .downstream import ClassifierConfig
from .dpmech import PrivacyParams, run_bound_suite
from .numcore import Rng
from .pipeline import DEFAULT_SEEDS, ExperimentConfig, epsilon_repr, run_experiment

__all__ = ["main", "parse_epsilon", "CliError"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class CliError(Exception):
    """Configuration mistake; reported on stderr with exit code 1."""


class _UsageError(CliError):
    """Bad flags or subcommand; carries the usage text."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here
    # reserves 2 for runtime failures, so remap through an exception.
    def error(self, message: str):
        raise _UsageError(f"{self.format_usage()}error: {message}")


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


def _add_common(sub: argparse.ArgumentParser, default_out: str, jobs: bool = True) -> None:
    """Flags every subcommand shares; call it last, since it records the
    config-file keys the subcommand accepts: its flags' dests."""
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
        sub.add_argument("--jobs", type=int, help="parallel worker processes (default 1)")
    config_keys = {action.dest for action in sub._actions} - {"help", "config"}
    sub.set_defaults(default_out=default_out, config_keys=frozenset(config_keys))


def _add_autoencoder_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epochs", type=int, help="pre-training epochs (default 200)")
    sub.add_argument("--lr", type=float, help="pre-training learning rate (default 0.003)")
    sub.add_argument("--clip", type=float, help="latent l1 clip radius C (default 5)")
    sub.add_argument("--max-len", dest="max_len", type=int, help="token truncation length (default 20)")
    sub.add_argument("--embed-dim", dest="embed_dim", type=int, help="embedding width (default 64)")
    sub.add_argument("--hidden-dim", dest="hidden_dim", type=int, help="GRU state width (default 128)")
    sub.add_argument("--batch-size", dest="batch_size", type=int, help="minibatch size (default 32)")


def _add_classifier_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--clf-epochs", dest="clf_epochs", type=int, help="classifier epochs (default 30)")
    sub.add_argument("--clf-lr", dest="clf_lr", type=float, help="classifier learning rate (default 0.01)")
    sub.add_argument(
        "--clf-embed-dim", dest="clf_embed_dim", type=int, help="classifier embedding width (default 64)"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="dprw", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = commands.add_parser("pretrain", help="train the autoencoder and save a checkpoint")
    p.add_argument("--train", help="training split TSV")
    p.add_argument("--out", help="checkpoint output path (default <out-dir>/checkpoint.bin)")
    _add_autoencoder_flags(p)
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
    _add_classifier_flags(p)
    _add_common(p, "runs/downstream")

    p = commands.add_parser("case-study", help="full pretrain/rewrite/downstream matrix over two corpora")
    p.add_argument("--dataset-a", dest="dataset_a", help="directory with train/validation/test TSVs")
    p.add_argument("--dataset-b", dest="dataset_b", help="directory with train/validation/test TSVs")
    p.add_argument("--leak-margin", dest="leak_margin", type=float, help="audit flag margin (default 0.1)")
    _add_autoencoder_flags(p)
    _add_classifier_flags(p)
    _add_common(p, "runs/case-study")

    p = commands.add_parser("validate-dp", help="randomized audit of the privacy bound")
    p.add_argument("--epsilon", help="privacy budget to audit; must be finite")
    p.add_argument("--clip", type=float, help="latent l1 clip radius C (default 5)")
    p.add_argument("--dim", type=int, help="latent dimension (default 128)")
    p.add_argument("--trials", type=int, help="number of random triples (default 100000)")
    p.add_argument("--noise-scale", dest="noise_scale", type=float, help=argparse.SUPPRESS)
    _add_common(p, ".", jobs=False)

    return parser


# -- config resolution ---------------------------------------------------------

def _load_config_file(path: str | None, command: str, keys: frozenset[str]) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CliError("config file must hold a JSON object")
    unknown = sorted(set(data) - keys)
    if unknown:
        raise CliError(f"unknown config keys for {command}: {', '.join(unknown)}")
    return data


class _Options:
    """Flag values with config-file fallback; flags always win."""

    def __init__(self, ns: argparse.Namespace, file_values: dict):
        self._ns = ns
        self._file = file_values

    def get(self, key: str, default=None):
        flag = getattr(self._ns, key, None)
        if flag is not None:
            return flag
        if key in self._file and self._file[key] is not None:
            return self._file[key]
        return default

    def require(self, key: str, flag_name: str):
        value = self.get(key)
        if value is None:
            raise CliError(f"missing required option --{flag_name}")
        return value

    def seeds(self) -> list[int] | None:
        if self._ns.seed:
            return list(self._ns.seed)
        if "seed" in self._file and self._file["seed"] is not None:
            raw = self._file["seed"]
            values = raw if isinstance(raw, list) else [raw]
            try:
                return [int(v) for v in values]
            except (TypeError, ValueError):
                raise CliError("config key 'seed' must be an integer or list of integers") from None
        env = os.environ.get("DPRW_SEED")
        if env is not None:
            try:
                return [int(env)]
            except ValueError:
                raise CliError(f"DPRW_SEED must be an integer, got {env!r}") from None
        return None


def _int_option(opts: _Options, key: str, minimum: int | None = None):
    value = opts.get(key)
    if value is None:
        return None
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise CliError(f"option {key} must be an integer") from None
    if minimum is not None and value < minimum:
        raise CliError(f"option {key} must be at least {minimum}")
    return value


def _float_option(opts: _Options, key: str):
    value = opts.get(key)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CliError(f"option {key} must be a number") from None


def _autoencoder_config(opts: _Options) -> AutoencoderConfig:
    kwargs = {}
    for key, field_name, cast in (
        ("epochs", "epochs", _int_option),
        ("lr", "learning_rate", _float_option),
        ("clip", "clip_c", _float_option),
        ("max_len", "max_len", _int_option),
        ("embed_dim", "embed_dim", _int_option),
        ("hidden_dim", "hidden_dim", _int_option),
        ("batch_size", "batch_size", _int_option),
    ):
        value = cast(opts, key)
        if value is not None:
            kwargs[field_name] = value
    return AutoencoderConfig(**kwargs)


def _classifier_config(opts: _Options) -> ClassifierConfig:
    kwargs = {}
    for key, field_name, cast in (
        ("clf_epochs", "epochs", _int_option),
        ("clf_lr", "learning_rate", _float_option),
        ("clf_embed_dim", "embed_dim", _int_option),
    ):
        value = cast(opts, key)
        if value is not None:
            kwargs[field_name] = value
    return ClassifierConfig(**kwargs)


def _experiment_config(ns: argparse.Namespace, opts: _Options) -> ExperimentConfig:
    common = {
        "out_dir": opts.get("out_dir", ns.default_out),
        "jobs": _int_option(opts, "jobs") or 1,
    }
    seeds = opts.seeds()
    if seeds is not None:
        common["seeds"] = seeds
    try:
        if ns.command == "pretrain":
            return ExperimentConfig(
                mode="pretrain",
                train_path=opts.require("train", "train"),
                checkpoint_out=opts.get("out"),
                autoencoder=_autoencoder_config(opts),
                **common,
            )
        if ns.command == "rewrite":
            checkpoint = opts.require("checkpoint", "checkpoint")
            train = opts.require("train", "train")
            epsilon = parse_epsilon(opts.require("epsilon", "epsilon"))
            clip = _float_option(opts, "clip")
            if clip is None:
                # a CheckpointError is no ValueError, so an unreadable
                # checkpoint still exits 2, as when run_rewrite loads it
                clip = load_checkpoint(checkpoint).config.clip_c
            return ExperimentConfig(
                mode="rewrite",
                checkpoint_in=checkpoint,
                train_path=train,
                validation_path=opts.get("val"),
                privacy=PrivacyParams(epsilon=epsilon, clip_c=clip),
                **common,
            )
        if ns.command == "downstream":
            return ExperimentConfig(
                mode="downstream",
                train_path=opts.require("train", "train"),
                validation_path=opts.get("val"),
                test_path=opts.require("test", "test"),
                classifier=_classifier_config(opts),
                **common,
            )
        if ns.command == "case-study":
            margin = _float_option(opts, "leak_margin")
            return ExperimentConfig(
                mode="case_study",
                dataset_a=opts.require("dataset_a", "dataset-a"),
                dataset_b=opts.require("dataset_b", "dataset-b"),
                autoencoder=_autoencoder_config(opts),
                classifier=_classifier_config(opts),
                leak_margin=margin if margin is not None else 0.1,
                **common,
            )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    raise AssertionError(f"unhandled command {ns.command}")


# -- validate-dp ---------------------------------------------------------------


def _run_validate_dp(ns: argparse.Namespace, opts: _Options) -> int:
    epsilon = parse_epsilon(opts.require("epsilon", "epsilon"))
    if math.isinf(epsilon):
        raise CliError("epsilon is infinite; nothing to verify")
    clip = _float_option(opts, "clip")
    clip = clip if clip is not None else 5.0
    dim = _int_option(opts, "dim", minimum=1)
    dim = dim if dim is not None else 128
    trials = _int_option(opts, "trials")
    trials = trials if trials is not None else 100_000
    if trials < 1:
        raise CliError("trials must be positive")
    noise_scale = _float_option(opts, "noise_scale")
    seeds = opts.seeds()
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

    out = Path(opts.get("out_dir", ns.default_out))
    out.mkdir(parents=True, exist_ok=True)
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
    (out / "config_resolved.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

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
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else EXIT_OK

    try:
        opts = _Options(ns, _load_config_file(ns.config, ns.command, ns.config_keys))
        if ns.command == "validate-dp":
            return _run_validate_dp(ns, opts)
        config = _experiment_config(ns, opts)
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
