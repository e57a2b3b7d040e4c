"""The summary that ``scripts/bench_pairs.py`` writes into each ``BENCH_<n>.json``."""

from __future__ import annotations

import importlib.util

import pytest

from conftest import REPO_ROOT

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def runs(metric, base, head):
    """Alternating pair records of one metric, pair i holding base[i] and head[i]."""
    records = []
    for pair, values in enumerate(zip(base, head)):
        for side, value in zip(("base", "head"), values):
            records.append({"pair": pair, "side": side, "metrics": {metric: value}})
    return records


def test_summary_counts_pairs_won_in_the_metric_direction():
    base, head = [10.0, 12.0, 11.0, 13.0], [8.0, 12.0, 7.0, 14.0]
    lower = bench_pairs.summarize(runs("op_ms.tail", base, head), {"op_ms.tail": "lower"})
    higher = bench_pairs.summarize(runs("ops_per_s", base, head), {"ops_per_s": "higher"})
    # a tie is won by neither side
    assert lower["op_ms.tail"]["head_won"] == 2
    assert higher["ops_per_s"]["head_won"] == 1
    assert lower["op_ms.tail"]["pairs"] == 4


def test_summary_quartiles_and_change_of_median():
    summary = bench_pairs.summarize(
        runs("op_ms.p50", [4.0, 1.0, 3.0, 2.0, 5.0], [2.0, 1.0, 1.5, 1.0, 3.0]),
        {"op_ms.p50": "lower"},
    )["op_ms.p50"]
    assert summary["base"] == {"q1": 2.0, "median": 3.0, "q3": 4.0, "iqr": 2.0}
    assert summary["head"]["median"] == 1.5
    assert summary["change"] == pytest.approx(-0.5)
    assert summary["better"] == "lower"


def test_summary_skips_incomplete_pairs_and_missing_metrics():
    records = runs("setup_s", [1.0, 2.0], [0.5, 3.0])
    records.append({"pair": 2, "side": "base", "metrics": {"setup_s": 9.0}})
    summary = bench_pairs.summarize(records, {"setup_s": "lower", "peak_rss_mb": "lower"})
    assert list(summary) == ["setup_s"]
    assert summary["setup_s"]["pairs"] == 2
    assert summary["setup_s"]["base"]["median"] == 1.5
    assert summary["setup_s"]["head_won"] == 1


def test_single_pair_has_zero_spread():
    summary = bench_pairs.summarize(runs("ops_per_s", [100.0], [150.0]), {"ops_per_s": "higher"})
    assert summary["ops_per_s"]["base"]["iqr"] == 0.0
    assert summary["ops_per_s"]["head_won"] == 1


def test_seed_ranges():
    assert bench_pairs._seeds("7") == [7]
    assert bench_pairs._seeds("9100-9103") == [9100, 9101, 9102, 9103]
