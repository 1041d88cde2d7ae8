"""Tests of the benchmark itself: span arithmetic, the tail rule, the
wrap/unwrap contract, the output checks, and tiny runs of each workload."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import layers, report, run, wire
from perfbench.inproc import InprocRounds
from perfbench.trace import Tracer, covered, self_times, summarize
from perfbench.wire import WireOpen, WireSaturate


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self time ---------------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (8, 12)], 0, 10) == pytest.approx(5)
    assert covered([], 0, 10) == 0
    assert covered([(5, 6), (5, 6)], 0, 10) == pytest.approx(1)


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["child", 1.0, 4.0, 0, 2],
        ["grandchild", 2.0, 3.0, 1, 3],
        ["child", 6.0, 7.5, 0, 4],
        ["other-root", 11.0, 12.0, None, 5],
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    summary = summarize(spans)
    assert summary["child"]["calls"] == 2
    assert summary["child"]["self"] == pytest.approx(3.5)
    assert summary["roots"]["total"] == pytest.approx(11.0)


def test_tracer_nests_calls_and_times_generators_per_step():
    clock = FakeClock()
    tracer = Tracer(clock)
    site = types.SimpleNamespace()

    def leaf():
        clock.now += 1.0

    def stages():
        for __ in range(2):
            clock.now += 2.0
            site.leaf()
            yield clock.now

    def outer():
        clock.now += 0.5
        for __ in site.stages():
            clock.now += 0.25      # the consumer's time, not the stage's
        site.leaf()

    site.leaf, site.stages, site.outer = leaf, stages, outer
    tracer.install([(site, "leaf", "leaf", None),
                    (site, "stages", "stages", None),
                    (site, "outer", "outer", None)])
    site.outer()
    tracer.uninstall()
    assert site.leaf is leaf and site.stages is stages
    summary = summarize(tracer.spans)
    assert summary["outer"]["self"] == pytest.approx(1.0)
    assert summary["stages"]["self"] == pytest.approx(4.0)
    assert summary["leaf"]["calls"] == 3
    assert summary["leaf"]["self"] == pytest.approx(3.0)
    assert summary["roots"]["total"] == pytest.approx(8.0)


def test_tracer_times_coroutines_per_step():
    import asyncio
    clock = FakeClock()
    tracer = Tracer(clock)

    async def reader():
        clock.now += 1.0
        await asyncio.sleep(0)
        clock.now += 2.0
        return "frame"

    async def main():
        result = await tracer.wrap("read", reader)()
        clock.now += 5.0           # after the coroutine: not its time
        return result

    assert asyncio.run(main()) == "frame"
    summary = summarize(tracer.spans)
    assert summary["read"]["keys"] == 1
    assert summary["read"]["self"] == pytest.approx(3.0)


# -- tail percentile rule ------------------------------------------------------

def test_tail_rule_needs_ten_samples_beyond_p99():
    assert report.samples_beyond(1000, 0.99) == 10
    assert report.tail_supported(1000)
    assert not report.tail_supported(999)
    assert not report.tail_supported(0)
    assert report.tail_supported(2000, 0.995)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert report.percentile(values, 0.5) == 50
    assert report.percentile(values, 0.99) == 99
    assert report.percentile([7.0], 0.99) == 7.0


# -- wrapping leaves the program alone ---------------------------------------

def _all_sites():
    return layers.server_sites() + layers.client_sites() + \
        layers.inproc_sites()


def _originals():
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, __, __ in _all_sites()]


def test_install_then_uninstall_restores_identical_functions():
    before = _originals()
    tracer = Tracer()
    tracer.install(_all_sites())
    assert any(vars(owner)[attr] is not original
               for owner, attr, original in before)
    tracer.uninstall()
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)


def test_wrapping_refuses_an_inherited_attribute():
    class Base:
        def method(self):
            return 1

    class Derived(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().install([(Derived, "method", "m", None)])


# -- tiny runs of every workload ----------------------------------------------

@pytest.fixture
def slow_open_loop(monkeypatch):
    # A small fleet must not run out of idle devices in a burst.
    monkeypatch.setattr(wire, "OPEN_RATE_PER_S", 100.0)


def _assert_clean(outcome, names):
    assert outcome["failed"] == 0, outcome["problems"]
    assert outcome["attempted"] > 0
    assert set(names) <= set(outcome["metrics"])


@pytest.mark.parametrize("workload", [WireOpen, WireSaturate])
def test_wire_smoke_untraced(workload, slow_open_loop):
    before = _originals()
    outcome = workload(seed=5, seconds=0.4, trace=False, n_devices=48,
                       setups=1).run()
    _assert_clean(outcome, run.END_TO_END)
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)


def test_wire_open_smoke_traced(slow_open_loop):
    outcome = WireOpen(seed=6, seconds=0.6, trace=True, n_devices=48,
                       setups=1).run()
    _assert_clean(outcome, layers.PER_LAYER)
    metrics = outcome["metrics"]
    assert metrics["verifier.verify_us_per_auth"][0] > 0
    assert metrics["sim.respond_us_per_auth"][0] > 0
    assert metrics["sim.plane_evaluate_us_per_auth"][0] == 0


def test_inproc_smoke_both_ways():
    before = _originals()
    untraced = InprocRounds(seed=5, seconds=0.2, trace=False, n_devices=32,
                            setups=1).run()
    _assert_clean(untraced, run.END_TO_END)
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)
    traced = InprocRounds(seed=5, seconds=0.2, trace=True, n_devices=32,
                          setups=1).run()
    _assert_clean(traced, layers.PER_LAYER)
    assert traced["metrics"]["sim.plane_evaluate_us_per_auth"][0] > 0
    assert traced["metrics"]["codec.calls_per_auth"][0] == 0


# -- the command line ----------------------------------------------------------

class _Broken:
    name = "wire_open"

    def __init__(self, *args, **kwargs):
        pass

    def run(self):
        return {"attempted": 10, "failed": 1,
                "problems": ["registry digest differs from the devices'"],
                "metrics": {name: (1.0, 1000) for name in run.END_TO_END}}


def test_failed_output_check_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    monkeypatch.setattr(run, "_workloads", lambda: {"wire_open": _Broken})
    assert run.main(["--workload", "wire_open", "--seconds", "1"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert "error_share" in "\n".join(lines[:-1])
    record = json.loads((tmp_path / "records.jsonl").read_text())
    assert record["seed"] == 1 and record["machine"]["nproc"]


def test_without_sources_the_command_fails_and_prints_nothing(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wire_open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_what_the_runner_reports():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(run._workloads())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.PER_LAYER


# -- the CPU-speed probe -------------------------------------------------------

def test_reference_clock_readings_never_change():
    import time
    from perfbench.speed import SpeedLog
    log = SpeedLog()
    log.sample()
    first = time.perf_counter()
    early = log.reference(first)
    for __ in range(3):
        time.sleep(0.01)
        log.sample()
    assert log.reference(first) == early
    later = log.reference(time.perf_counter())
    assert later > early
    assert log.current_slowdown() > 0


def test_windows_keep_equal_counts_and_the_tail_supported():
    times = [0.0] * 500 + [float(at) for at in range(1, 1501)]
    index, edges = report.count_windows(times, 4)
    assert [index.count(window) for window in range(4)] == [500] * 4
    assert edges == [0.0, 1.0, 501.0, 1001.0, 1500.0]
    assert report.supported_windows(32000) == 32
    assert report.supported_windows(63999) == 63
    assert report.supported_windows(20999) == 20
    assert report.supported_windows(500) == 1


def test_windowed_percentile_is_the_median_of_window_percentiles():
    samples = [(float(at), 1.0) for at in range(80)]
    samples[5] = (5.0, 50.0)           # one burst, in the first window
    figure, smallest = report.windowed_percentile(samples, 0.99, windows=8)
    assert figure == 1.0
    assert smallest == 10


def test_closed_loop_latencies_shift_each_window_to_reference_speed():
    class HalfSlow:
        """A CPU twice as slow as reference over the first five seconds."""

        def factor(self, start, end):
            return 2.0 if end <= 5.0 else 1.0

    latencies = [(at / 100, 0.3 if at % 10 == 0 else 0.2)
                 for at in range(1001)]
    scales, adjusted = wire._closed_loop_at_reference(latencies, HalfSlow(),
                                                      32)
    early = [(scale, round(latency, 9)) for scale, (at, latency)
             in zip(scales, adjusted) if at < 4.6]
    late = [(scale, round(latency, 9)) for scale, (at, latency)
            in zip(scales, adjusted) if at > 5.1]
    # The slowed windows' median halves; the tail's excess over it stays.
    assert set(early) == {(2.0, 0.1), (2.0, 0.2)}
    assert set(late) == {(1.0, 0.2), (1.0, 0.3)}
