"""Command-line contract: exit codes, config files, env seed, outputs."""

import argparse
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dprw.autoencoder
import dprw.cli
import dprw.pipeline
from dprw.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    CliError,
    _experiment_config,
    _parse,
    build_parser,
    main,
    parse_epsilon,
)
from dprw.corpus import write_split
from dprw.pipeline import ExperimentConfig
from dprw.synth import FLIGHTS, SMART_HOME, make_corpus

FAST_AE = ["--epochs", "2", "--embed-dim", "6", "--hidden-dim", "8", "--max-len", "12"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ds = make_corpus(FLIGHTS, seed=11, train_size=16, val_size=8, test_size=8)
    write_split(ds.train, root / "train.tsv")
    write_split(ds.validation, root / "validation.tsv")
    write_split(ds.test, root / "test.tsv")
    ckpt = root / "ckpt.bin"
    code = main(
        ["pretrain", "--train", str(root / "train.tsv"), "--out", str(ckpt),
         "--out-dir", str(root / "pre"), "--seed", "1", *FAST_AE]
    )
    assert code == EXIT_OK and ckpt.exists()
    return root


# -- epsilon parsing -------------------------------------------------------------


def test_parse_epsilon_accepts_numbers_and_inf_literal():
    assert parse_epsilon("1000") == 1000.0
    assert parse_epsilon("0.5") == 0.5
    assert parse_epsilon("inf") == float("inf")
    assert parse_epsilon("INF") == float("inf")
    assert parse_epsilon(10) == 10.0


@pytest.mark.parametrize("bad", ["-3", "0", "abc", "nan", "-inf", ""])
def test_parse_epsilon_rejects_nonpositive_and_garbage(bad):
    with pytest.raises(CliError, match="epsilon must be positive or 'inf'"):
        parse_epsilon(bad)


# -- usage errors ------------------------------------------------------------------


def test_unknown_subcommand_prints_usage_and_exits_1(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "usage:" in err


def test_unknown_flag_exits_1(capsys):
    assert main(["pretrain", "--train", "x.tsv", "--bogus"]) == EXIT_CONFIG
    assert "usage:" in capsys.readouterr().err


def test_pretrain_has_no_validation_input(tmp_path, capsys):
    # pre-training reads only the training split; a validation flag or
    # config key would be accepted and then ignored
    assert main(["pretrain", "--train", "x.tsv", "--val", "v.tsv"]) == EXIT_CONFIG
    assert "unrecognized arguments: --val" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": "x.tsv", "val": "v.tsv"}))
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_CONFIG
    assert "val" in capsys.readouterr().err


def test_no_arguments_exits_1(capsys):
    assert main([]) == EXIT_CONFIG


def test_missing_required_option_exits_1(capsys):
    assert main(["pretrain"]) == EXIT_CONFIG
    assert "--train" in capsys.readouterr().err


def test_negative_epsilon_message_and_exit_code(workspace, capsys):
    code = main(
        ["rewrite", "--checkpoint", str(workspace / "ckpt.bin"),
         "--train", str(workspace / "train.tsv"), "--epsilon", "-3",
         "--out-dir", str(workspace / "neg")]
    )
    assert code == EXIT_CONFIG
    assert "epsilon must be positive or 'inf'" in capsys.readouterr().err


def test_runtime_error_exits_2(workspace, tmp_path, capsys):
    code = main(
        ["pretrain", "--train", str(tmp_path / "missing.tsv"),
         "--out-dir", str(tmp_path / "out"), "--seed", "1", *FAST_AE]
    )
    assert code == EXIT_RUNTIME


def test_a_dataset_that_is_not_utf8_exits_naming_the_file_and_line(workspace, tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_bytes(b"flight\tbook a flight\n\xffhome\tlights on\n")
    code = main(
        ["downstream", "--train", str(train), "--test", str(workspace / "test.tsv"),
         "--clf-epochs", "1", "--out-dir", str(tmp_path / "out"), "--seed", "1"]
    )
    assert code in (EXIT_CONFIG, EXIT_RUNTIME)
    assert f"error: {train}:2: not valid UTF-8" in capsys.readouterr().err


def test_a_carriage_return_inside_a_record_exits_naming_the_file_and_line(workspace, tmp_path, capsys):
    train = tmp_path / "train.tsv"
    train.write_bytes(b"a\tbook a flight\rb\tplay music\nc\tstop\n")
    code = main(
        ["downstream", "--train", str(train), "--test", str(workspace / "test.tsv"),
         "--clf-epochs", "1", "--out-dir", str(tmp_path / "out"), "--seed", "1"]
    )
    assert code in (EXIT_CONFIG, EXIT_RUNTIME)
    assert f"error: {train}:1: carriage return inside a record" in capsys.readouterr().err


def test_corrupt_checkpoint_is_a_runtime_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a checkpoint at all")
    code = main(
        ["rewrite", "--checkpoint", str(bad), "--train", str(workspace / "train.tsv"),
         "--epsilon", "10", "--out-dir", str(tmp_path / "out"), "--seed", "1"]
    )
    assert code == EXIT_RUNTIME


# -- validate-dp ---------------------------------------------------------------------


def test_validate_dp_passes_and_writes_reports(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(
        ["validate-dp", "--epsilon", "10", "--clip", "5", "--dim", "16",
         "--trials", "2000", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert report["violations"] == 0
    assert report["max_abs_log_ratio"] <= 10.0 + 1e-9
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["epsilon"] == "10"
    assert resolved["trials"] == 2000


def test_validate_dp_rejects_zero_trials(capsys):
    assert main(["validate-dp", "--epsilon", "1", "--trials", "0"]) == EXIT_CONFIG
    assert "trials must be positive" in capsys.readouterr().err


def test_validate_dp_rejects_infinite_epsilon(capsys):
    assert main(["validate-dp", "--epsilon", "inf"]) == EXIT_CONFIG
    assert "nothing to verify" in capsys.readouterr().err


def test_validate_dp_detects_miscalibrated_scale(tmp_path, capsys):
    # b = C/eps instead of 2C/eps: the audit must fail with ratio near 2*eps
    out = tmp_path / "v"
    code = main(
        ["validate-dp", "--epsilon", "10", "--clip", "5", "--dim", "16",
         "--trials", "2000", "--noise-scale", "0.5", "--out-dir", str(out)]
    )
    assert code == EXIT_RUNTIME
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is False
    assert abs(report["max_abs_log_ratio"] - 20.0) <= 1.0


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_validate_dp_refuses_a_noise_scale_that_is_not_positive_and_finite(tmp_path, capsys, scale):
    out = tmp_path / "v"
    argv = ["validate-dp", "--epsilon", "1", "--dim", "4", "--trials", "10", "--out-dir", str(out)]
    assert main([*argv, f"--noise-scale={scale}"]) == EXIT_CONFIG
    assert "noise_scale must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_validate_dp_writes_nothing_when_a_ratio_overflows(tmp_path, capsys):
    # a positive but subnormal scale overflows the log-ratios to inf,
    # which JSON cannot hold
    out = tmp_path / "v"
    argv = ["validate-dp", "--epsilon", "1", "--dim", "4", "--trials", "10", "--out-dir", str(out)]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main([*argv, "--noise-scale", "1e-320"]) == EXIT_RUNTIME
    assert "not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


def test_validate_dp_refuses_a_noise_scale_of_zero_before_any_draw(tmp_path, capsys, monkeypatch):
    # 2C / epsilon underflows to 0: the audit would run without noise
    monkeypatch.setattr(dprw.cli, "run_bound_suite", lambda *args, **kwargs: pytest.fail("the audit ran"))
    out = tmp_path / "v"
    argv = ["validate-dp", "--epsilon", "1e308", "--clip", "1e-300", "--dim", "4", "--trials", "50"]
    assert main([*argv, "--out-dir", str(out)]) == EXIT_CONFIG
    assert "epsilon 1e+308 with clip_c 1e-300 gives noise scale b = 2 * clip_c / epsilon = 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_validate_dp_offers_no_jobs_option(tmp_path, capsys):
    # the audit runs in one process; a --jobs value would be ignored
    assert main(["validate-dp", "--epsilon", "1", "--jobs", "2"]) == EXIT_CONFIG
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 1, "jobs": 2}))
    assert main(["validate-dp", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown config keys for validate-dp: jobs" in capsys.readouterr().err


def test_validate_dp_refuses_more_than_one_seed(tmp_path, capsys):
    out = tmp_path / "v"
    argv = ["validate-dp", "--epsilon", "1", "--dim", "4", "--trials", "10", "--out-dir", str(out)]
    assert main([*argv, "--seed", "1", "--seed", "2"]) == EXIT_CONFIG
    assert "one seed, got 2" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": [3, 4, 5]}))
    assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
    assert "one seed, got 3" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--seed", "7"]) == EXIT_OK
    assert json.loads((out / "config_resolved.json").read_text())["seed"] == 7


# -- config file and environment --------------------------------------------------------


def test_config_file_supplies_options_and_flags_win(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "train": str(workspace / "train.tsv"),
                "epochs": 3,
                "embed_dim": 6,
                "hidden_dim": 8,
                "max_len": 12,
                "seed": [2],
            }
        )
    )
    out = tmp_path / "out"
    code = main(
        ["pretrain", "--config", str(cfg), "--out-dir", str(out), "--epochs", "1"]
    )
    assert code == EXIT_OK
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["autoencoder"]["epochs"] == 1  # flag beat the file
    assert resolved["autoencoder"]["embed_dim"] == 6  # file filled the rest
    assert resolved["seeds"] == [2]


def test_config_file_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": "t.tsv", "no_such_option": 1}))
    assert main(["pretrain", "--config", str(cfg)]) == EXIT_CONFIG
    assert "no_such_option" in capsys.readouterr().err


def _subparsers():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def _config_keys(sub) -> dict:
    return {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}


def test_every_flag_dest_loads_from_config_and_config_help_are_refused(tmp_path, capsys):
    commands = _subparsers()
    assert set(commands) == {"pretrain", "rewrite", "downstream", "case-study", "validate-dp"}
    sample = {int: 7, float: 0.25, None: "file-value"}
    for command, sub in commands.items():
        options = _config_keys(sub)
        assert {"out_dir", "seed"} <= set(options)
        values = {dest: sample[action.type] for dest, action in options.items()}
        values["seed"] = [3, 4]
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(values))
        ns = _parse([command, "--config", str(cfg)])
        for dest, value in values.items():
            resolved = getattr(ns, dest)
            assert resolved == value and type(resolved) is type(value), (command, dest, resolved)
        for key in ("config", "help"):
            cfg.write_text(json.dumps({key: "x"}))
            assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
            assert f"unknown config keys for {command}: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, named",
    [
        ({"epochs": 1.9}, "argument --epochs: invalid int value: '1.9'"),
        ({"hidden_dim": 8.5}, "argument --hidden-dim: invalid int value: '8.5'"),
        ({"embed_dim": True}, "key 'embed_dim' must be"),
        ({"seed": [1.7]}, "argument --seed: invalid int value: '1.7'"),
        ({"seed": [1, [2]]}, "key 'seed' must be"),
        ({"seed": []}, "key 'seed' must be"),
        ({"lr": [0.1]}, "key 'lr' must be"),
        ({"max_len": {"value": 3}}, "key 'max_len' must be"),
    ],
)
def test_config_file_values_are_parsed_like_their_flags(workspace, tmp_path, capsys, values, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": str(workspace / "train.tsv"), **values}))
    out = tmp_path / "out"
    assert main(["pretrain", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config file {cfg}: " in err and named in err
    assert not out.exists()


def test_config_file_null_is_unset_and_gives_the_flags_config(workspace, tmp_path):
    flags = ["--train", str(workspace / "train.tsv"), "--seed", "2", "--lr", "0.01", *FAST_AE]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"train": str(workspace / "train.tsv"), "seed": 2, "lr": 0.01, "epochs": 2, "embed_dim": 6,
             "hidden_dim": 8, "max_len": 12, "batch_size": None, "out": None}
        )
    )
    by_flags = _experiment_config(_parse(["pretrain", *flags]))
    by_file = _experiment_config(_parse(["pretrain", "--config", str(cfg)]))
    assert by_file.to_dict() == by_flags.to_dict()
    assert by_file.autoencoder.batch_size == 32 and by_file.checkpoint_out is None


@pytest.mark.parametrize("source", ["flag", "file"])
def test_zero_jobs_exits_1(workspace, tmp_path, capsys, source):
    out = tmp_path / "out"
    argv = ["pretrain", "--train", str(workspace / "train.tsv"), "--out-dir", str(out), *FAST_AE]
    if source == "flag":
        argv += ["--jobs", "0"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--leak-margin", "nan"], "leak_margin must be finite and non-negative"),
        (["--leak-margin", "-5"], "leak_margin must be finite and non-negative"),
        (["--lr", "inf"], "--lr: learning_rate must be positive and finite"),
        (["--lr", "nan"], "--lr: learning_rate must be positive and finite"),
        (["--clf-lr", "inf"], "--clf-lr: learning_rate must be positive and finite"),
    ],
)
def test_case_study_refuses_bad_margins_and_learning_rates(tmp_path, capsys, flags, named):
    out = tmp_path / "case"
    argv = ["case-study", "--dataset-a", "a", "--dataset-b", "b", "--out-dir", str(out), *flags]
    assert main(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
OF_FLAG_TYPE = {int: st.integers(-3, 300), float: st.floats(), None: st.text(max_size=8)}


def _config_objects(command):
    # values of each flag's type (a list of them for seed), and up to two
    # keys holding any JSON value
    options = _config_keys(_subparsers()[command])
    typed = {}
    for dest, action in options.items():
        typed[dest] = OF_FLAG_TYPE[action.type]
        if dest == "seed":
            typed[dest] = typed[dest] | st.lists(typed[dest], max_size=3)
    return st.builds(
        lambda good, any_json: {**good, **any_json},
        st.fixed_dictionaries({}, optional=typed),
        st.dictionaries(st.sampled_from(sorted(options)), JSON_VALUES, max_size=2),
    )


@pytest.mark.parametrize("command", ["pretrain", "downstream", "case-study"])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_file_resolution_fuzz(tmp_path, monkeypatch, command, data):
    # any JSON object over the subcommand's keys resolves to a run or is
    # refused with a CliError; nothing is trained
    monkeypatch.delenv("DPRW_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data.draw(_config_objects(command))))
    try:
        config = _experiment_config(_parse([command, "--config", str(cfg)]))
    except CliError:
        return
    assert isinstance(config, ExperimentConfig)


def test_config_file_invalid_json_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cases = (("{broken", "not valid JSON"), ("[1, 2]", "must hold a JSON object"), (None, "cannot read it"))
    for text, named in cases:
        if text is None:
            cfg.unlink()
        else:
            cfg.write_text(text)
        assert main(["pretrain", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"config file {cfg}: {named}" in capsys.readouterr().err


def test_dprw_seed_env_is_the_fallback(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("DPRW_SEED", "9")
    out = tmp_path / "out"
    code = main(
        ["pretrain", "--train", str(workspace / "train.tsv"),
         "--out-dir", str(out), *FAST_AE]
    )
    assert code == EXIT_OK
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["seeds"] == [9]


def test_explicit_seed_beats_env(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("DPRW_SEED", "9")
    out = tmp_path / "out"
    code = main(
        ["pretrain", "--train", str(workspace / "train.tsv"),
         "--out-dir", str(out), "--seed", "4", "--seed", "5", *FAST_AE]
    )
    assert code == EXIT_OK
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["seeds"] == [4, 5]


def test_bad_env_seed_exits_1(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DPRW_SEED", "not-a-number")
    code = main(
        ["pretrain", "--train", str(workspace / "train.tsv"),
         "--out-dir", str(tmp_path / "out"), *FAST_AE]
    )
    assert code == EXIT_CONFIG
    assert "DPRW_SEED" in capsys.readouterr().err


# -- end-to-end through the CLI -----------------------------------------------------------


def test_full_chain_pretrain_rewrite_downstream(workspace, tmp_path):
    rw = tmp_path / "rw"
    code = main(
        ["rewrite", "--checkpoint", str(workspace / "ckpt.bin"),
         "--train", str(workspace / "train.tsv"),
         "--val", str(workspace / "validation.tsv"),
         "--epsilon", "inf", "--out-dir", str(rw), "--seed", "1"]
    )
    assert code == EXIT_OK
    assert (rw / "rewritten" / "train.tsv").exists()
    assert not (rw / "rewritten" / "test.tsv").exists()

    down = tmp_path / "down"
    code = main(
        ["downstream", "--train", str(rw / "rewritten" / "train.tsv"),
         "--val", str(rw / "rewritten" / "validation.tsv"),
         "--test", str(workspace / "test.tsv"),
         "--clf-epochs", "3", "--out-dir", str(down), "--seed", "1"]
    )
    assert code == EXIT_OK
    report = json.loads((down / "report.json").read_text())
    assert "test_macro_f1" in report["metrics"]
    assert (down / "summary.txt").exists()
    assert (down / "config_resolved.json").exists()


@pytest.fixture(scope="module")
def clip2_checkpoint(workspace):
    ckpt = workspace / "clip2.bin"
    assert main(
        ["pretrain", "--train", str(workspace / "train.tsv"), "--out", str(ckpt),
         "--out-dir", str(workspace / "pre_clip2"), "--seed", "1", "--clip", "2", *FAST_AE]
    ) == EXIT_OK
    return ckpt


def test_rewrite_refuses_a_clip_other_than_the_checkpoints(workspace, clip2_checkpoint, tmp_path, capsys):
    argv = ["rewrite", "--checkpoint", str(clip2_checkpoint), "--train", str(workspace / "train.tsv"),
            "--epsilon", "10", "--seed", "1"]
    out = tmp_path / "other_clip"
    assert main([*argv, "--clip", "5", "--out-dir", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "clip radius 5.0" in err and "clip_c 2.0" in err
    assert not out.exists()
    out = tmp_path / "matching_clip"
    assert main([*argv, "--clip", "2", "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "config_resolved.json").read_text())["clip_c"] == 2.0


def test_rewrite_refuses_an_infinite_noise_scale_before_writing(workspace, tmp_path, capsys):
    # 2C / epsilon overflows to inf: every rewrite would be noise. With
    # --clip the pair is refused as configuration (1), without it once the
    # checkpoint's radius (5) is read (2)
    argv = ["rewrite", "--checkpoint", str(workspace / "ckpt.bin"), "--train", str(workspace / "train.tsv"),
            "--epsilon", "1e-308", "--seed", "1"]
    for clip, code in ((["--clip", "5"], EXIT_CONFIG), ([], EXIT_RUNTIME)):
        out = tmp_path / f"out{len(clip)}"
        assert main([*argv, *clip, "--out-dir", str(out)]) == code
        assert "epsilon 1e-308 with clip_c 5.0 gives noise scale b = 2 * clip_c / epsilon = inf" in capsys.readouterr().err
        assert not out.exists()


def test_case_study_refuses_a_ladder_epsilon_without_a_noise_scale_before_pretraining(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dprw.pipeline, "pretrain", lambda *args: pytest.fail("pre-training ran"))
    out = tmp_path / "case"
    argv = ["case-study", "--dataset-a", "a", "--dataset-b", "b", "--out-dir", str(out)]
    for clip, named in (("1e308", "epsilon 1000.0 with clip_c 1e+308"), ("1e-322", "epsilon 1000.0 with clip_c 1e-322")):
        assert main([*argv, "--clip", clip]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_rewrite_defaults_to_the_checkpoints_clip(workspace, clip2_checkpoint, tmp_path):
    out = tmp_path / "default_clip"
    assert main(
        ["rewrite", "--checkpoint", str(clip2_checkpoint), "--train", str(workspace / "train.tsv"),
         "--epsilon", "10", "--seed", "1", "--out-dir", str(out)]
    ) == EXIT_OK
    assert json.loads((out / "config_resolved.json").read_text())["clip_c"] == 2.0
    assert json.loads((out / "report.json").read_text())["config"]["clip_c"] == 2.0


def test_pretrain_with_zero_epochs_exits_2_and_writes_no_report(workspace, tmp_path, capsys):
    out = tmp_path / "pre"
    code = main(
        ["pretrain", "--train", str(workspace / "train.tsv"), "--out-dir", str(out),
         "--seed", "1", "--epochs", "0", "--embed-dim", "6", "--hidden-dim", "8"]
    )
    assert code == EXIT_RUNTIME
    assert "epochs" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_divergence_exits_2_naming_seed_epoch_and_batch(workspace, tmp_path, capsys, monkeypatch):
    real = dprw.autoencoder.adam_step

    def poisoning(params, *args):
        real(params, *args)
        params["out_w"][0, 0] = np.inf

    monkeypatch.setattr(dprw.autoencoder, "adam_step", poisoning)
    out = tmp_path / "pre"
    code = main(
        ["pretrain", "--train", str(workspace / "train.tsv"), "--out-dir", str(out),
         "--seed", "4", "--batch-size", "8", *FAST_AE]
    )
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "pre-training seed 4, epoch 0, batch 1: non-finite result in op 'out_w'" in err
    assert not out.exists()


def test_case_study_with_zero_epochs_exits_2_and_writes_no_report(tmp_path, capsys):
    for spec in (FLIGHTS, SMART_HOME):
        ds = make_corpus(spec, seed=5, train_size=8, val_size=4, test_size=4)
        (tmp_path / spec.name).mkdir()
        for split in ("train", "validation", "test"):
            write_split(getattr(ds, split), tmp_path / spec.name / f"{split}.tsv")
    out = tmp_path / "case"
    code = main(
        ["case-study", "--dataset-a", str(tmp_path / "flights"), "--dataset-b", str(tmp_path / "smart_home"),
         "--out-dir", str(out), "--seed", "1", "--epochs", "0", "--clf-epochs", "1"]
    )
    assert code == EXIT_RUNTIME
    assert "epochs" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rerun_is_byte_identical(workspace, tmp_path):
    out = tmp_path / "verify"
    argv = [
        "validate-dp", "--epsilon", "1", "--clip", "5", "--dim", "8",
        "--trials", "1000", "--out-dir", str(out),
    ]
    assert main(argv) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_rewrite_loads_the_checkpoint_once(workspace, clip2_checkpoint, tmp_path, monkeypatch):
    loads = []
    real = dprw.autoencoder.load_checkpoint

    def counting(path):
        loads.append(path)
        return real(path)

    for module in (dprw.cli, dprw.pipeline, dprw.autoencoder):
        if hasattr(module, "load_checkpoint"):
            monkeypatch.setattr(module, "load_checkpoint", counting)
    argv = ["rewrite", "--checkpoint", str(clip2_checkpoint), "--train", str(workspace / "train.tsv"),
            "--epsilon", "10", "--seed", "1"]
    for clip in ([], ["--clip", "2"]):
        loads.clear()
        assert main([*argv, *clip, "--out-dir", str(tmp_path / f"out{len(clip)}")]) == EXIT_OK
        assert loads == [str(clip2_checkpoint)]


@pytest.mark.parametrize("damage", ["truncate", "magic", "header", "blob"])
def test_rewrite_through_a_damaged_checkpoint_exits_2_naming_the_file(workspace, tmp_path, capsys, damage):
    raw = (workspace / "ckpt.bin").read_bytes()
    header_len = int.from_bytes(raw[5:13], "little")
    bad = {
        "truncate": raw[: len(raw) // 2],
        "magic": b"DPRW9" + raw[5:],
        "header": raw[:13] + raw[13 : 13 + header_len].replace(b'"clip_c": 5.0', b'"clip_c": "5"') + raw[13 + header_len :],
        "blob": raw + b"\0" * 8,
    }[damage]
    assert bad != raw
    path = tmp_path / f"{damage}.bin"
    path.write_bytes(bad)
    out = tmp_path / "out"
    code = main(["rewrite", "--checkpoint", str(path), "--train", str(workspace / "train.tsv"),
                 "--epsilon", "10", "--seed", "1", "--out-dir", str(out)])
    assert code == EXIT_RUNTIME
    assert f"checkpoint {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers must inherit the patch")
def test_a_failing_worker_names_its_unit(workspace, tmp_path, capsys, monkeypatch):
    real = dprw.pipeline.pretrain

    def failing(dataset, config, seed):
        if seed == 3:
            raise ValueError("injected failure")
        return real(dataset, config, seed)

    monkeypatch.setattr(dprw.pipeline, "pretrain", failing)
    out = tmp_path / "pre"
    train = workspace / "train.tsv"
    code = main(["pretrain", "--train", str(train), "--out-dir", str(out), "--jobs", "2",
                 "--seed", "2", "--seed", "3", "--seed", "4", *FAST_AE])
    assert code == EXIT_RUNTIME
    assert f"error: pretrain unit ({train}, seed 3): injected failure" in capsys.readouterr().err
    assert not out.exists()
