"""Tests of the benchmark itself: span arithmetic, tail rule, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from array import array

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[0:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import measure  # noqa: E402
from perfbench.workloads import Window  # noqa: E402
from perfbench.tracing import Tracer, rebase, span_self_ns, window_totals  # noqa: E402

EMPTY = {"clock_ns": 0, "spans": 0, "folded": {}, "span_items": {}}


# -- span self time ---------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("api", 0, 100, None, 0),
        ("store", 10, 80, 0, 0),
        ("core", 20, 50, 1, 0),
        ("kernels", 60, 70, 1, 0),
    ]
    assert span_self_ns(spans) == [30, 30, 30, 10]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        ("parent", 100, 200, None, 0),
        ("a", 90, 130, 0, 0),  # starts before the parent: clipped to 100..130
        ("b", 120, 150, 0, 0),  # overlaps a: 130..150 counted once
        ("c", 190, 240, 0, 0),  # ends after the parent: clipped to 190..200
    ]
    assert span_self_ns(spans)[0] == 100 - (50 + 10)


def test_self_time_subtracts_folded_children():
    spans = [("batch", 0, 100, None, 25), ("kernel", 50, 80, 0, 0)]
    assert span_self_ns(spans) == [45, 30]


class _Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


class _Layer:
    """Stand-ins for library entry points, each spending clock time."""

    clock: _Clock

    def outer(self) -> int:
        self.clock.advance(5)
        total = self.inner() + self.per_pair() + self.per_pair()
        self.clock.advance(5)
        return total

    def inner(self) -> int:
        self.clock.advance(20)
        return 1

    def per_pair(self) -> int:
        self.clock.advance(3)
        return self.leaf()

    @staticmethod
    def leaf() -> int:
        _Layer.clock.advance(2)
        return 1


class _Child(_Layer):
    pass


def test_tracer_wrappers_record_spans_and_folded_self_time():
    clock = _Clock()
    _Layer.clock = clock
    tracer = Tracer(clock=clock)
    tracer.patch(_Child, "outer", "outer")
    tracer.patch(_Child, "inner", "inner", count=lambda result: 7)
    tracer.patch(_Child, "per_pair", "per_pair", fold=True)
    tracer.patch(_Child, "leaf", "leaf", fold=True)
    assert _Child().outer() == 3
    first, second = tracer.spans
    assert first[0] == "outer" and first[2] - first[1] == 5 + 20 + 2 * 5 + 5
    assert second == ("inner", 5, 25, 0, 0)
    # two per-pair calls of 5 ns, 3 of them their own, nested leaf 2 each
    assert first[4] == 10
    assert tracer.folded["per_pair"] == [2, 10, 6, 0]
    assert tracer.folded["leaf"] == [2, 4, 4, 0]
    totals = window_totals(rebase(tracer.spans, 0, 2), EMPTY, tracer.mark())
    assert totals["outer"]["self_ns"] == 40 - 20 - 10
    assert totals["inner"]["items"] == 7
    tracer.uninstall()
    assert "outer" not in vars(_Child) and "leaf" not in vars(_Child)
    assert isinstance(vars(_Layer)["leaf"], staticmethod)


def test_rebase_drops_open_spans_and_outside_parents():
    spans = [
        ("setup", 0, 10, None, 0),
        ("window", 20, 60, None, 0),
        ("child", 30, 40, 1, 0),
        None,
        ("late", 45, 50, 1, 0),
    ]
    assert rebase(spans, 2, 5) == [("child", 30, 40, None, 0), ("late", 45, 50, None, 0)]
    assert rebase(spans, 1, 5)[2] == ("late", 45, 50, 0, 0)


def test_window_totals_difference_marks():
    before = {"clock_ns": 0, "spans": 0, "folded": {"f": [2, 20, 10, 1]}, "span_items": {}}
    after = {"clock_ns": 9, "spans": 1, "folded": {"f": [5, 50, 30, 4]}, "span_items": {"s": 3}}
    totals = window_totals([("s", 0, 9, None, 0)], before, after)
    assert totals["f"] == {"calls": 3, "total_ns": 30, "self_ns": 20, "items": 3}
    assert totals["s"] == {"calls": 1, "total_ns": 9, "self_ns": 9, "items": 3}


# -- percentiles ----------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),  # the median would have only 9 samples beyond it
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10_000, 99.9),
        (100_000, 99.99),
        (10**7, 99.999),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert measure.tail_percentile(count) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 99) == 99
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7], 99) == 7


def test_host_factor_scales_by_nominal_over_mean_probe():
    nominal = measure.PROBE_NOMINAL_S
    assert measure.host_factor([nominal]) == 1.0
    # a host running the reference at half speed halves normalised times
    assert measure.host_factor([nominal, 3 * nominal]) == 0.5
    assert measure.probe() > 0


def test_window_host_factor_is_geometric_mean_over_both_cpus():
    nominal = measure.PROBE_NOMINAL_S
    window = Window(seconds=2.0, answered=100, probes=array("d", [2 * nominal]))
    assert window.host_factor == 0.5
    assert window.pairs_per_s == 100.0
    window.server_probes = array("d", [nominal / 2])
    assert window.host_factor == pytest.approx(1.0)


def test_in_process_latencies_scale_by_the_probes_around_them():
    nominal = measure.PROBE_NOMINAL_S
    window = Window(
        latencies=array("d", [1.0, 1.0, 1.0, 1.0]),
        probes=array("d", [nominal, nominal, 3 * nominal]),
        probe_calls=array("q", [0, 2, 3]),  # probes before calls 0, 2 and 3
    )
    # calls 0-1 sit between probes 0 and 1, call 2 between 1 and 2, and
    # call 3 after the last probe only
    assert list(window.host_latencies()) == [1.0, 1.0, 0.5, pytest.approx(1 / 3)]


# -- smoke runs -------------------------------------------------------------------


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [row["name"] for row in _declared()["workloads"]]
)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(
        ["--workload", workload, "--seed", "7", "--seconds", "1", "--n", "300",
         "--trace", str(trace)]
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {name: row["unit"] for name, row in result["metrics"].items()} == {
        row["name"]: row["unit"] for row in declared
    }
    report = "\n".join(proc.stdout.strip().splitlines()[:-1])
    for row in declared:
        assert row["name"] in report
    if not trace:
        # memory growth of a 300-node index can round to nothing; the
        # other end-to-end metrics are positive at any size
        metrics = dict(result["metrics"])
        metrics.pop("rss_mb")
        assert all(row["value"] > 0 for row in metrics.values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(
        ["--workload", "serve-freedman-4k-pipelined", "--seed", "1", "--seconds", "1"],
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_chunked_percentile_takes_the_median_of_chunk_tails():
    steady = [1.0] * 990 + [2.0] * 10  # every chunk's p99 is 1.0 or 2.0
    stall = [50.0] * 1000  # one chunk stalled throughout
    values = steady * 4 + stall
    value, chunks = measure.chunked_percentile(values, 99)
    assert chunks == 5
    assert value == 1.0
    assert measure.percentile(sorted(values), 99) == 50.0
    assert measure.chunked_percentile([3.0, 1.0, 2.0], 50) == (2.0, 1)
