"""Tests of the benchmark's own helpers.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

from e2ebench import ledger
from e2ebench.seams import TimedOperator, SolveClock, TunerProxy
from e2ebench.stats import (
    Recorder,
    Span,
    StealSampler,
    Tally,
    cut_windows,
    min_samples_for,
    percentile,
    read_steal,
    samples_beyond,
    self_time,
    self_times,
    steady,
    windowed_samples_for,
)

ROOT = Path(__file__).resolve().parent.parent


# -- tail percentile --------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert percentile(list(range(1, 1001)), 99) == pytest.approx(990.01)
    with pytest.raises(ValueError, match="fewer than 10"):
        percentile(list(range(999)), 99)


def test_min_samples_for_each_percentile():
    assert min_samples_for(99) == 1000
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20


def test_percentile_interpolates_and_ignores_order():
    values = [5.0, 1.0, 3.0, 2.0, 4.0] * 20
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0


def test_percentile_with_explicit_weaker_support():
    values = list(range(100))
    with pytest.raises(ValueError):
        percentile(values, 99)
    assert percentile(values, 99, min_beyond=1) == pytest.approx(98.01)


def test_percentile_rejects_bad_rank_and_empty_input():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)
    with pytest.raises(ValueError):
        percentile([], 50, min_beyond=0)


# -- steady windows ---------------------------------------------------------

def test_windowed_sample_count_keeps_the_tail_supported():
    # Six windows: the steady half is three windows of 334 samples.
    assert windowed_samples_for(99, 6) == 2004
    assert windowed_samples_for(99, 4) == 2000
    assert windowed_samples_for(90, 1) == 100


def test_windows_hold_equal_sample_counts_and_count_every_op():
    samples = [(float(t), 0.001 * t) for t in range(1, 13)]
    ops = [float(t) for t in range(1, 13)] + [12.5]  # one op after the last sample
    windows = cut_windows(0.0, samples, ops, 3)
    assert [len(w.latencies) for w in windows] == [4, 4, 4]
    assert [(w.start, w.end) for w in windows] == [(0.0, 4.0), (4.0, 8.0), (8.0, 12.0)]
    assert [w.ops for w in windows] == [4, 4, 5]
    with pytest.raises(ValueError):
        cut_windows(0.0, samples[:2], ops, 3)


def test_steady_sets_aside_windows_stolen_above_the_median():
    class Steal:
        def share(self, start, end):
            return {0.0: 0.30, 4.0: 0.01, 8.0: 0.02}[start]

    samples = [(float(t), 1.0) for t in range(1, 13)]
    windows = cut_windows(0.0, samples, [], 3, Steal())
    assert [w.steal for w in windows] == [0.30, 0.01, 0.02]
    assert [w.start for w in steady(windows)] == [4.0, 8.0]
    quiet = cut_windows(0.0, samples, [], 3)
    assert steady(quiet) == quiet  # no steal: every window counts


def test_steal_share_between_samples(tmp_path):
    readings = iter([(0, 100), (10, 200), (40, 300), (40, 400)])
    sampler = StealSampler(read=lambda: next(readings))
    for t in (0.0, 1.0, 2.0, 3.0):
        sampler._sample()
        sampler.samples[-1] = (t,) + sampler.samples[-1][1:]
    assert sampler.share(1.0, 2.0) == pytest.approx(0.3)
    assert sampler.share(0.0, 3.0) == pytest.approx(40 / 300)
    assert StealSampler(read=lambda: None).share(0.0, 1.0) == 0.0


def test_read_steal_parses_proc_stat(tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  10 0 5 80 1 0 1 3 0 0\ncpu0 5 0 2 40 0 0 0 1 0 0\n")
    assert read_steal(str(stat)) == (3, 100)
    assert read_steal(str(tmp_path / "missing")) is None


# -- span self time ---------------------------------------------------------

def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, op=None)


def test_self_time_merges_overlapping_children_and_clips_them():
    parent = _span(1, 0.0, 10.0)
    children = [
        _span(2, 1.0, 3.0, 1),
        _span(3, 2.0, 5.0, 1),  # overlaps the first: [1, 5] counts once
        _span(4, 8.0, 12.0, 1),  # runs past the parent: clipped to [8, 10]
        _span(5, 11.0, 13.0, 1),  # wholly outside: covers nothing
    ]
    assert self_time(parent, children) == pytest.approx(4.0)


def test_self_time_without_children_is_the_duration():
    assert self_time(_span(1, 2.0, 7.5), []) == pytest.approx(5.5)


def test_self_times_uses_only_direct_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 0.0, 4.0, 1),
        _span(3, 1.0, 2.0, 2),  # grandchild: inside 2, not charged to 1 again
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 6.0, 2: 3.0, 3: 1.0})


def test_recorder_reserved_ids_link_children_to_a_later_parent():
    recorder = Recorder()
    parent_id = recorder.new_id()
    recorder.add("child", 1.0, 2.0, parent=parent_id, op=7)
    recorder.add("parent", 0.0, 3.0, op=7, sid=parent_id)
    selfs = self_times(recorder.spans)
    assert selfs[parent_id] == pytest.approx(2.0)
    assert [s.name for s in recorder.named("child")] == ["child"]


# -- error accounting -------------------------------------------------------

def test_error_rate_counts_failed_refused_and_wrong():
    tally = Tally(attempted=200, failed=1, refused=2, wrong=3)
    assert tally.errors == 6
    assert tally.error_rate == pytest.approx(0.03)


def test_merged_tallies_add_up():
    merged = Tally.merged([Tally(10, 1, 0, 0), Tally(30, 0, 2, 1)])
    assert (merged.attempted, merged.failed, merged.refused, merged.wrong) == (
        40, 1, 2, 1,
    )
    assert merged.error_rate == pytest.approx(0.1)


def test_failure_reasons_are_kept_for_the_report_and_capped():
    first, second = Tally(attempted=4), Tally(attempted=4)
    first.note("submit raised ValueError()")
    for i in range(6):
        second.note(f"wrong product {i}")
    merged = Tally.merged([first, second])
    assert merged.reasons[0] == "submit raised ValueError()"
    assert len(merged.reasons) == 5


def test_error_rate_of_nothing_attempted_is_an_error():
    with pytest.raises(ValueError):
        Tally().error_rate


# -- seams ------------------------------------------------------------------

class _FakeTuner:
    model = "model"
    config = "config"
    kernels = "kernels"
    model_epoch = 3
    secret = "not forwarded"

    def decide(self, matrix, deadline=None):
        raise AssertionError("not called")


def test_tuner_proxy_forwards_what_the_engine_reads():
    proxy = TunerProxy(_FakeTuner(), Recorder())
    assert (proxy.model, proxy.config, proxy.kernels, proxy.model_epoch) == (
        "model", "config", "kernels", 3,
    )
    assert getattr(proxy, "smat", None) is None  # absent on the tuner
    with pytest.raises(AttributeError):
        proxy.secret
    assert list(inspect.signature(proxy.decide).parameters) == [
        "matrix", "deadline",
    ]


def test_timed_operator_records_each_apply_under_the_current_solve():
    class Op:
        format_name = "CSR"
        simulated_seconds = 0.5

        def __call__(self, x):
            return x + 1

    recorder = Recorder()
    clock = SolveClock()
    clock.parent, clock.op = 42, 9
    op = TimedOperator(Op(), recorder, clock)
    assert op(1) == 2
    assert (op.format_name, op.simulated_seconds) == ("CSR", 0.5)
    (span,) = recorder.spans
    assert (span.name, span.parent, span.op) == ("amg.spmv", 42, 9)


# -- determinism ledger -----------------------------------------------------

def test_ledger_stores_then_reports_drift(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    assert ledger.check(tmp_path, "w", 1, {"count": {"DIA": 2}}) == []
    assert ledger.check(tmp_path, "w", 1, {"count": {"DIA": 2}}) == []
    drift = ledger.check(tmp_path, "w", 1, {"count": {"DIA": 3}})
    assert len(drift) == 1 and "count" in drift[0]
    # Another seed, or changed sources, starts a fresh ledger.
    assert ledger.check(tmp_path, "w", 2, {"count": {"DIA": 3}}) == []
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert ledger.check(tmp_path, "w", 1, {"count": {"DIA": 3}}) == []


# -- BENCHMARK.json agrees with the metrics the run prints ------------------

def test_benchmark_json_declares_the_printed_metrics():
    from e2ebench import metrics
    from e2ebench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for section, table in (
        ("end_to_end", metrics.END_TO_END),
        ("per_layer", metrics.PER_LAYER),
    ):
        declared = {
            m["name"]: (m["unit"], m["better"]) for m in spec[section]
        }
        assert declared == table
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_record_matches_the_workloads():
    from e2ebench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = json.loads((ROOT / "e2ebench" / "record.json").read_text())
    assert list(env["workloads"]) == list(WORKLOADS)
    for entry in spec["workloads"]:
        recorded = env["workloads"][entry["name"]]
        assert recorded["why"] == entry["why"]
        assert recorded["config"] == WORKLOADS[entry["name"]]().config()
