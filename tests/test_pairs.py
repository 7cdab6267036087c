"""The aggregation and run order of scripts/pairs.py, with the benchmark
runs replaced by canned results."""

import importlib.util
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "scripts" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_parse_seeds_takes_ranges_and_lists():
    assert pairs.parse_seeds("1-10") == list(range(1, 11))
    assert pairs.parse_seeds("3") == [3]
    assert pairs.parse_seeds("1-3,7,9-10") == [1, 2, 3, 7, 9, 10]
    with pytest.raises(ValueError):
        pairs.parse_seeds("a-b")


def test_summarize_gives_medians_iqrs_and_the_lower_count():
    parent = [0.50, 0.54, 0.52, 0.60, 0.51]
    change = [0.42, 0.45, 0.53, 0.48, 0.40]
    runs = [({"wall_s": p, "peak_rss_mb": 50.0}, {"wall_s": c, "peak_rss_mb": 50.5}) for p, c in zip(parent, change)]
    summary = pairs.summarize(runs)
    wall = summary["wall_s"]
    assert wall["parent"] == parent and wall["change"] == change
    assert wall["median_parent"] == 0.52 and wall["median_change"] == 0.45
    assert wall["median_delta"] == pytest.approx(-0.07 / 0.52)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert wall["iqr_parent"] == pytest.approx(q3 - q1) == pytest.approx(0.54 - 0.51)
    assert wall["change_lower"] == 4 and wall["pairs"] == 5  # pair 3 reads higher
    assert summary["peak_rss_mb"]["change_lower"] == 0
    assert summary["peak_rss_mb"]["iqr_change"] == 0.0


def test_summarize_handles_one_pair_and_drops_metrics_a_run_lacks():
    summary = pairs.summarize([({"wall_s": 2.0, "setup_s": 0.2}, {"wall_s": 1.0})])
    assert list(summary) == ["wall_s"]
    assert summary["wall_s"]["iqr_parent"] == 0.0 and summary["wall_s"]["change_lower"] == 1


def _fake_runs(monkeypatch, correct=lambda side, seed: True):
    calls = []

    def run_bench(tree, workload, seed, seconds):
        side = tree.name
        calls.append((side, seed))
        value = 1.0 if side == "parent" else 0.8
        return {"correct": correct(side, seed), "metrics": {"wall_s": {"value": value + seed / 100, "unit": "s"}}}

    monkeypatch.setattr(pairs, "run_bench", run_bench)
    monkeypatch.setattr(pairs, "pretrain_minflt", lambda tree, seed: 1234)
    return calls


def _trees(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def test_pairs_alternate_which_tree_runs_first(tmp_path, monkeypatch, capsys):
    calls = _fake_runs(monkeypatch)
    monkeypatch.setattr("sys.argv", ["pairs.py", *_trees(tmp_path), "--workload", "pretrain", "--seeds", "1-4"])
    assert pairs.main() == 0
    assert calls == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3), ("change", 4), ("parent", 4),
    ]
    out = capsys.readouterr().out
    assert "change lower in 4/4" in out and "ru_minflt" in out


def test_pairs_exit_1_when_a_run_is_not_correct(tmp_path, monkeypatch):
    _fake_runs(monkeypatch, correct=lambda side, seed: not (side == "change" and seed == 2))
    monkeypatch.setattr("sys.argv", ["pairs.py", *_trees(tmp_path), "--workload", "rewrite", "--seeds", "1-3"])
    assert pairs.main() == 1
