"""In-process rounds: ``AuthService.authenticate_batch`` over the fleet.

No sockets and no codec: the stacked photonic simulator and the
batched verifier stages do all the work, so a change to the net stack
must leave these numbers where they were.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left
from statistics import median
from typing import Dict, List, Tuple

import numpy as np

from perfbench import layers, report
from perfbench.speed import bracket, slowdown
from perfbench.trace import END, NAME, START, Tracer, summarize
from perfbench.workloads import (
    INPROC_DEVICES,
    SETUPS,
    fleet_config,
    response_digest,
)

class InprocRounds:
    name = "inproc_rounds"

    def __init__(self, seed: int, seconds: float, trace: bool,
                 spans_dir: str = "", n_devices: int = INPROC_DEVICES,
                 setups: int = SETUPS):
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.trace = trace
        self.spans_dir = spans_dir
        self.n_devices = n_devices
        self.setups = setups
        self.attempted = 0
        self.accepted = 0
        self.problems: List[str] = []
        #: figures before scaling to reference CPU speed
        self.raw: Dict[str, float] = {}

    # -- set-up ------------------------------------------------------------

    def _set_up(self, time_first_respond: bool):
        """Provision the fleet and warm it with one full round."""
        from repro.service import AuthService
        started = time.perf_counter()
        service = AuthService.provision(fleet_config(self.n_devices))
        provisioned = time.perf_counter()
        tracer = Tracer()
        if time_first_respond:
            tracer.install([site for site in layers.inproc_sites()
                            if site[2] == "sim.respond_round"])
        try:
            warm = service.authenticate_batch(service.device_list)
        finally:
            tracer.uninstall()
        warmed = time.perf_counter()
        if warm.n_accepted != self.n_devices:
            raise RuntimeError(f"warm round accepted {warm.n_accepted} of "
                               f"{self.n_devices} devices")
        first_respond_ms = 1e3 * sum(span[END] - span[START]
                                     for span in tracer.spans) \
            / self.n_devices
        return service, {"provision_s": provisioned - started,
                         "connect_s": 0.0, "warm_s": warmed - provisioned,
                         "setup_s": warmed - started,
                         "first_respond_ms": first_respond_ms}

    # -- rounds ------------------------------------------------------------

    def _rounds(self, service, seconds: float
                ) -> List[Tuple[float, float, float, float]]:
        """Back-to-back rounds in seeded orders.

        Returns ``(end, wall, cpu, slowdown)`` per round, the slowdown
        from the speed probes taken just before and just after it.
        """
        devices = service.device_list
        rounds: List[Tuple[float, float, float]] = []
        probes: List[List[float]] = []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < seconds:
            order = [devices[index]
                     for index in self.rng.permutation(len(devices))]
            probes.append(bracket())
            begun = time.perf_counter()
            cpu = time.process_time()
            outcome = service.authenticate_batch(order)
            ended = time.perf_counter()
            cpu = time.process_time() - cpu
            rounds.append((ended, ended - begun, cpu))
            self.attempted += len(order)
            self.accepted += outcome.n_accepted
            if outcome.n_accepted != len(order):
                self.problems.append(
                    f"round {len(rounds)} accepted {outcome.n_accepted} "
                    f"of {len(order)}: {next(iter(outcome.failures.items()))}")
        probes.append(bracket())
        return [(ended, wall, cpu, slowdown(probes[index] + probes[index + 1]))
                for index, (ended, wall, cpu) in enumerate(rounds)]

    def _check(self, service) -> None:
        devices = service.device_list
        local = response_digest((device.device_id, device.current_response)
                                for device in devices)
        served = response_digest(
            (device.device_id,
             service.registry.record(device.device_id).current_response)
            for device in devices)
        if local != served:
            self.problems.append("registry digest differs from the devices'")
        verifier = service.verifier
        if verifier._pending or len(verifier.commit_log or ()):
            self.problems.append("pending sessions left at quiesce")

    # -- the run -----------------------------------------------------------

    def run(self) -> dict:
        timings = []
        service = None
        for attempt in range(self.setups):
            if service is not None:
                service.close()
                service = None
                gc.collect()
            before = bracket()
            service, timing = self._set_up(
                self.trace and attempt == self.setups - 1)
            timing["slowdown"] = slowdown(before + bracket())
            timings.append(timing)
        # Most of the heap is the simulated fleet (device models, compiled
        # planes); freeze it out of the cyclic collector so full passes
        # over simulated hardware do not pose as round latency.
        gc.collect()
        gc.freeze()
        try:
            metrics = (self._traced(service) if self.trace
                       else self._untraced(service))
            self._check(service)
        finally:
            service.close()
            gc.unfreeze()

        def median_of(field):
            return (median([t[field] / t["slowdown"] for t in timings]),
                    len(timings))
        if self.trace:
            metrics.update({
                "setup.provision_s": median_of("provision_s"),
                "setup.connect_s": median_of("connect_s"),
                "setup.warm_s": median_of("warm_s"),
                "sim.first_respond_ms": (timings[-1]["first_respond_ms"],
                                         self.n_devices)})
        else:
            metrics["setup_s"] = median_of("setup_s")
            self.raw["setup_s"] = median([t["setup_s"] for t in timings])
            metrics["peak_rss_mb"] = (report.peak_rss_mb(), 1)
        return {"attempted": self.attempted, "failed": len(self.problems),
                "problems": self.problems[:5], "metrics": metrics,
                "raw": self.raw}

    def _untraced(self, service) -> Dict[str, tuple]:
        rounds = self._rounds(service, self.seconds)
        auths = len(rounds) * self.n_devices
        figures = {}
        for label, scale in (("raw", lambda factor: 1.0),
                             ("scaled", lambda factor: factor)):
            # Every auth of a round settles when authenticate_batch
            # returns, so each round's time is the latency of all its
            # auths; rounds are equal, so percentiles over rounds are
            # percentiles over auths.
            walls = [(ended, wall / scale(factor))
                     for ended, wall, __, factor in rounds]
            cpu = sum(cpu / scale(factor) for __, __, cpu, factor in rounds)
            p99, tail_rounds = report.windowed_percentile(walls, 0.99)
            figures[label] = {
                "auths_per_s": auths / sum(wall for __, wall in walls),
                "auth_p50_ms": 1e3 * report.percentile(
                    [wall for __, wall in walls], 0.5),
                "auth_p99_ms": 1e3 * p99,
                "verifier_cpu_us_per_auth": 1e6 * cpu / auths,
            }
        self.raw.update(figures["raw"])
        self.raw["slowdown"] = median([f for *__, f in rounds])
        samples = dict.fromkeys(figures["scaled"], auths)
        samples["auth_p99_ms"] = tail_rounds * self.n_devices
        return {name: (value, samples[name])
                for name, value in figures["scaled"].items()}

    def _traced(self, service) -> Dict[str, tuple]:
        half = self.seconds / 2.0
        untraced = self._rounds(service, half)
        tracer = Tracer()
        tracer.install(layers.inproc_sites())
        cpu = time.process_time()
        begun = time.perf_counter()
        try:
            traced = self._rounds(service, half)
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - begun
        cpu = time.process_time() - cpu
        if self.spans_dir:
            stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            tracer.write(f"{self.spans_dir}/{stamp}-{self.name}-inproc"
                         ".jsonl.gz")
        auths = len(traced) * self.n_devices

        def cost(rounds):
            return sum(wall / factor for __, wall, __, factor in rounds) \
                / len(rounds)
        summary = summarize(tracer.spans)
        values = layers.verifier_plane(summary, auths)
        values.update(layers.simulator(summary, auths))
        values.update({
            # No sockets, no codec, no load generator on this path.
            "net.server.self_us_per_auth": 0.0,
            "net.server.busy_share": 0.0,
            "net.coalescer.auths_per_round": 0.0,
            "net.coalescer.flushed_by_size": 0.0,
            "net.coalescer.flushed_by_deadline": 0.0,
            "net.coalescer.flushed_by_duplicate": 0.0,
            "net.server.reads_paused": 0,
            "net.server.responses_timed_out": 0,
            "net.server.acks_aborted": 0,
            "net.client.self_us_per_auth": 0.0,
            "net.coalescer.wait_p50_ms": 0.0,
            "loadgen.late_p99_ms": 0.0,
            "loadgen.busy_share": cpu / wall,
            "verifier.accepted_share": self.accepted / self.attempted,
            "phase.challenge_to_confirm_p50_ms":
                1e3 * _challenge_to_confirm(tracer.spans),
            "trace.overhead_share": cost(traced) / cost(untraced) - 1.0,
        })
        return {name: (value, auths) for name, value in values.items()}


def _challenge_to_confirm(spans) -> float:
    """Median, over devices, of round's first device turn -> its confirm."""
    rounds = sorted((span[START], span[END]) for span in spans
                    if span[NAME] == "facade.authenticate_batch")
    turns = sorted(span[START] for span in spans
                   if span[NAME] == "sim.respond_round")
    gaps = []
    for span in spans:
        if span[NAME] != "sim.confirm":
            continue
        index = bisect_left(rounds, (span[START], float("inf"))) - 1
        first = turns[bisect_left(turns, rounds[index][0])]
        gaps.append(span[START] - first)
    return median(gaps) if gaps else 0.0
