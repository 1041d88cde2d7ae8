"""Wire workloads: a load generator driving an AuthServer in another process.

This process holds the simulated devices (``FleetDevice``s provisioned
from the same fleet seed as the server's registry) and talks to the
server only over loopback sockets, through at most two stock
:class:`repro.service.net.AuthClient` connections on one event loop and
no extra threads.  The server runs :mod:`perfbench.wire_server`.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import subprocess
import sys
import time
from bisect import bisect_left
from collections import defaultdict, deque
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from perfbench import layers, report
from perfbench.speed import SpeedLog, bracket, slowdown
from perfbench.trace import END, KEY, NAME, START, Tracer, summarize
from perfbench.workloads import (
    RAMP_S,
    SATURATE_CONNECTIONS,
    SETTLE_TIMEOUT_S,
    SETUPS,
    TAMPER_FACTOR,
    WIRE_DEVICES,
    OPEN_RATE_PER_S,
    fleet_config,
    poisson_schedule,
    response_digest,
    tampered_set,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")
#: a control-pipe answer slower than this means the server is wedged
CONTROL_TIMEOUT_S = 120.0
CLOCK_ANOMALY = "clock-anomaly"


class WireError(RuntimeError):
    """The served verifier or the set-up misbehaved; the run is void."""


class ServerProcess:
    """The served verifier's process and its JSON-lines control pipe.

    Control calls block: they are a handful per run, each answered in
    well under a millisecond, and blocking keeps the load generator free
    of the child-watcher thread an asyncio subprocess would start.
    """

    def __init__(self, spans_path: str):
        paths = [ROOT, os.path.join(ROOT, "src")]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.wire_server",
             "--spans", spans_path],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._buffer = b""

    def read(self) -> dict:
        """The next JSON line the server printed."""
        deadline = time.monotonic() + CONTROL_TIMEOUT_S
        stdout = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            ready, __, __ = select.select(
                [stdout], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise WireError("the wire server stopped answering")
            chunk = os.read(stdout, 1 << 16)
            if not chunk:
                raise WireError("the wire server exited unexpectedly")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        reply = json.loads(line)
        if "error" in reply:
            raise WireError(reply["error"])
        return reply

    def call(self, command: str, **fields) -> dict:
        self.process.stdin.write(
            (json.dumps(dict(cmd=command, **fields)) + "\n").encode())
        self.process.stdin.flush()
        return self.read()

    def cpu(self) -> float:
        return self.call("cpu")["cpu"]

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                self.call("stop")
            self.process.wait(30.0)
        except (WireError, OSError, ValueError,
                subprocess.TimeoutExpired):
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
        finally:
            self.process.stdin.close()
            self.process.stdout.close()


class Request:
    """One auth request as the load generator saw it."""

    __slots__ = ("device_id", "tampered", "due", "sent", "settled",
                 "error")

    def __init__(self, device_id: Optional[str], tampered: bool,
                 due: float, sent: float):
        self.device_id = device_id
        self.tampered = tampered
        self.due = due
        self.sent = sent
        self.settled: Optional[float] = None
        self.error: Optional[str] = None


def _tampered_respond(device, nonce: bytes):
    # Looked up at call time, so a traced FleetDevice.respond sees it.
    from repro.fleet.verifier import FleetDevice
    return FleetDevice.respond(device, nonce, tamper_factor=TAMPER_FACTOR)


class Rig:
    """One set-up: server process, device hardware, open connections."""

    def __init__(self, server: ServerProcess):
        self.server = server
        self.service = None
        self.clients: list = []
        self.conn_of: Dict[str, object] = {}
        self.devices: Dict[str, object] = {}
        self.timings: Dict[str, float] = {}
        self.first_respond_ms = 0.0

    @classmethod
    async def set_up(cls, n_devices: int, n_conns: int, order: List[int],
                     spans_path: str = "",
                     time_first_respond: bool = False) -> "Rig":
        """Provision both sides, start the server, connect and prewarm.

        This process provisions the fleet and keeps the device hardware;
        the server, started meanwhile, restores the registry and
        verifier from a snapshot of it.
        """
        from repro.service import AuthService
        from repro.service.net import AuthClient
        started = time.perf_counter()
        rig = cls(ServerProcess(spans_path))
        snapshot = os.path.join(RESULTS, f"fleet-{os.getpid()}.npz")
        try:
            rig.service = AuthService.provision(fleet_config(n_devices))
            os.makedirs(RESULTS, exist_ok=True)
            rig.service.save(snapshot)
            port = rig.server.call("load", path=snapshot)["port"]
            provisioned = time.perf_counter()
            for __ in range(n_conns):
                rig.clients.append(await AuthClient.connect(
                    "127.0.0.1", port, response_timeout_s=SETTLE_TIMEOUT_S))
            connected = time.perf_counter()
            devices = rig.service.device_list
            for slot, index in enumerate(order):
                device = devices[index]
                rig.devices[device.device_id] = device
                rig.conn_of[device.device_id] = rig.clients[slot % n_conns]
            await rig._prewarm(time_first_respond)
            warmed = time.perf_counter()
        except BaseException:
            await rig.close()
            raise
        finally:
            if os.path.exists(snapshot):
                os.remove(snapshot)
        rig.timings = {"provision_s": provisioned - started,
                       "connect_s": connected - provisioned,
                       "warm_s": warmed - connected,
                       "setup_s": warmed - started}
        return rig

    async def _prewarm(self, time_first_respond: bool) -> None:
        """One full auth per device: the first respond compiles its die."""
        tracer = Tracer()
        if time_first_respond:
            tracer.install(layers.client_sites()[:1])
        try:
            tickets = [await self.conn_of[device_id].submit(device)
                       for device_id, device in self.devices.items()]
            for ticket in tickets:
                await ticket.wait(SETTLE_TIMEOUT_S)
        finally:
            tracer.uninstall()
        refused = [ticket.device_id for ticket in tickets
                   if not ticket.accepted]
        if refused:
            raise WireError(f"prewarm: {len(refused)} devices refused, "
                            f"first {refused[0]}")
        if time_first_respond:
            self.first_respond_ms = 1e3 * median(
                [span[END] - span[START] for span in tracer.spans])

    async def barrier(self) -> dict:
        """Round-trip every connection; returns the server's counters.

        Frames on one connection are handled in order, so once the
        metrics verb answers, every finalize ack sent before it landed.
        """
        body = "{}"
        for client in self.clients:
            body = await client.metrics("json")
        prefix = "repro_net_server_"
        return {entry["name"][len(prefix):]:
                sum(sample["value"] for sample in entry["samples"])
                for entry in json.loads(body).get("metrics", ())
                if entry["name"].startswith(prefix)}

    def check(self, honest: List[str]) -> dict:
        """The output check: both sides hold the same CRPs, nothing open."""
        state = self.server.call("check", ids=honest)
        local = response_digest((device_id,
                                 self.devices[device_id].current_response)
                                for device_id in honest)
        problems = []
        if state["digest"] != local:
            problems.append("registry digest differs from the devices'")
        for field in ("pending", "commit_log", "acks_pending"):
            if state[field]:
                problems.append(f"{state[field]} {field} left at quiesce")
        state["problems"] = problems
        return state

    async def close(self) -> None:
        for client in self.clients:
            await client.aclose()
        self.server.stop()
        if self.service is not None:
            self.service.close()


async def set_up_many(n_devices: int, n_conns: int, order: List[int],
                      spans_path: str, time_first_respond: bool,
                      setups: int):
    """Set up ``setups`` times, keep the last rig; returns it and timings.

    Each set-up's timings carry the slowdown of the probes taken just
    before and just after it.
    """
    timings: List[Dict[str, float]] = []
    for attempt in range(setups):
        last = attempt == setups - 1
        before = bracket()
        rig = await Rig.set_up(n_devices, n_conns, order, spans_path,
                               time_first_respond and last)
        rig.timings["slowdown"] = slowdown(before + bracket())
        timings.append(rig.timings)
        if not last:
            await rig.close()
    return rig, timings


# -- load phases ----------------------------------------------------------

async def open_phase(rig: Rig, schedule, pools: Dict[bool, deque],
                     speed: SpeedLog) -> List[Request]:
    """Send each arrival when due, from an idle device of its kind.

    The schedule runs on the reference clock of ``speed``: on a CPU
    slowed down by a co-tenant the arrivals stretch in wall time by the
    same factor, so the load per unit of CPU, and with it the queueing
    the load generator and the server see, does not depend on what the
    host's other tenants are doing.  ``Request.due`` is a reference-clock
    time.
    """
    client = rig.clients[0]
    loop = asyncio.get_running_loop()
    requests: List[Request] = []
    settling = set()
    start = speed.reference(time.perf_counter())
    for arrival in schedule:
        due = start + arrival.due_s
        while True:
            ahead = due - speed.reference(time.perf_counter())
            if ahead <= 0:
                break
            await asyncio.sleep(ahead * speed.current_slowdown())
        pool = pools[arrival.tampered]
        if not pool:
            request = Request(None, arrival.tampered, due,
                              time.perf_counter())
            request.settled = time.perf_counter()
            request.error = "no idle device at the due time"
            requests.append(request)
            continue
        device = pool.popleft()
        request = Request(device.device_id, arrival.tampered, due,
                          time.perf_counter())
        requests.append(request)
        ticket = await client.submit(device)
        task = loop.create_task(_settle(ticket, request, pool, device))
        settling.add(task)
        task.add_done_callback(settling.discard)
    while settling:
        await asyncio.gather(*list(settling))
    return requests


async def _settle(ticket, request: Request, pool: Optional[deque],
                  device) -> None:
    try:
        await ticket.wait(SETTLE_TIMEOUT_S)
    except asyncio.TimeoutError:
        request.settled = time.perf_counter()
        request.error = "no settlement before the timeout"
        return
    request.settled = time.perf_counter()
    if request.tampered:
        if ticket.accepted or ticket.failure_kind != CLOCK_ANOMALY:
            request.error = (f"tampered {request.device_id}: accepted="
                             f"{ticket.accepted} kind={ticket.failure_kind}")
    elif not ticket.accepted:
        request.error = (f"honest {request.device_id} refused: "
                         f"{ticket.failure_kind} {ticket.failure}")
    if pool is not None:
        pool.append(device)


async def closed_phase(rig: Rig, seconds: float, ramp: float):
    """Every device always in flight; returns requests and the window.

    The window opens ``ramp`` seconds in and lasts ``seconds``; server
    CPU is read at both of its edges.
    """
    start = time.perf_counter()
    stop_at = start + ramp + seconds
    requests: List[Request] = []
    window: Dict[str, float] = {}

    async def drive(device) -> None:
        client = rig.conn_of[device.device_id]
        while time.perf_counter() < stop_at:
            now = time.perf_counter()
            request = Request(device.device_id, False, now, now)
            requests.append(request)
            ticket = await client.submit(device)
            await _settle(ticket, request, None, device)
            if request.error is not None:
                return

    async def mark() -> None:
        await asyncio.sleep(ramp)
        window["server_cpu0"] = rig.server.cpu()
        window["t0"] = time.perf_counter()
        await asyncio.sleep(max(0.0, stop_at - time.perf_counter()))
        window["server_cpu1"] = rig.server.cpu()
        window["t1"] = time.perf_counter()

    await asyncio.gather(mark(), *(drive(device)
                                   for device in rig.devices.values()))
    return requests, window


# -- metrics ---------------------------------------------------------------

def _phase_latencies(requests: List[Request], spans) -> Dict[str, float]:
    """Submit -> respond start, and respond start -> confirm start."""
    responds: Dict[str, list] = defaultdict(list)
    confirms: Dict[str, list] = defaultdict(list)
    for span in spans:
        target = responds if span[NAME] == "sim.respond" else confirms
        target[span[KEY]].append(span[START])
    for table in (responds, confirms):
        for starts in table.values():
            starts.sort()
    waits, phases = [], []
    for request in requests:
        starts = responds.get(request.device_id, [])
        index = bisect_left(starts, request.sent)
        if index == len(starts) or starts[index] > request.settled:
            continue
        waits.append(starts[index] - request.sent)
        confirm = confirms.get(request.device_id, [])
        later = bisect_left(confirm, starts[index])
        if later < len(confirm) and confirm[later] <= request.settled:
            phases.append(confirm[later] - starts[index])
    return {"net.coalescer.wait_p50_ms":
            1e3 * median(waits) if waits else 0.0,
            "phase.challenge_to_confirm_p50_ms":
            1e3 * median(phases) if phases else 0.0}


def _counter_delta(before: dict, after: dict) -> Dict[str, float]:
    return {name: after.get(name, 0) - before.get(name, 0) for name in after}


def _coalescer(delta: Dict[str, float]) -> Dict[str, float]:
    rounds = delta.get("micro_rounds", 0) or 1
    settled = delta.get("auths_accepted", 0) + delta.get("auths_failed", 0)
    return {
        "net.coalescer.auths_per_round": delta.get("submitted", 0) / rounds,
        "net.coalescer.flushed_by_size": delta.get("flushed_by_size", 0)
        / rounds,
        "net.coalescer.flushed_by_deadline":
            delta.get("flushed_by_deadline", 0) / rounds,
        "net.coalescer.flushed_by_duplicate":
            delta.get("flushed_by_duplicate", 0) / rounds,
        "net.server.reads_paused": delta.get("reads_paused", 0),
        "net.server.responses_timed_out":
            delta.get("responses_timed_out", 0),
        "net.server.acks_aborted": delta.get("acks_aborted", 0),
        "verifier.accepted_share":
            delta.get("auths_accepted", 0) / settled if settled else 0.0,
    }


def _closed_loop_at_reference(latencies, speed: SpeedLog, windows: int):
    """Per-request slowdowns, and ``latencies`` at reference CPU speed.

    The closed loop settles in waves: a request's latency is the cycle of
    its wave, mostly load-generator CPU work that stretches on a slowed
    CPU, plus gaps (preemption, coalescing, backpressure) that do not.
    In each of the ``windows`` tail windows the typical cycle, the
    window's median latency, is brought to reference speed by shifting
    every latency in the window by the same amount.  Dividing each
    latency by the slowdown instead stretches the gaps too; over
    identical runs the p99 then spread more than twice as wide.
    """
    index, edges = report.count_windows([at for at, __ in latencies],
                                        windows)
    factors = [speed.factor(lo, hi) for lo, hi in zip(edges, edges[1:])]
    groups: Dict[int, List[float]] = defaultdict(list)
    for window, (__, latency) in zip(index, latencies):
        groups[window].append(latency)
    shifts = {window: report.percentile(values, 0.5)
              * (1.0 - 1.0 / factors[window])
              for window, values in groups.items()}
    return ([factors[window] for window in index],
            [(at, latency - shifts[window])
             for window, (at, latency) in zip(index, latencies)])


def _settled_ok(requests: List[Request]) -> int:
    return sum(1 for request in requests if request.error is None)


# -- the workloads ----------------------------------------------------------

class WireRun:
    """Shared flow of both wire workloads: set up, load, quiesce, check."""

    open_loop = False
    n_conns = 1

    def __init__(self, seed: int, seconds: float, trace: bool,
                 spans_dir: str = "", n_devices: int = WIRE_DEVICES,
                 setups: int = SETUPS):
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.trace = trace
        self.spans_dir = spans_dir
        self.n_devices = n_devices
        self.setups = setups
        self.requests: List[Request] = []
        self.problems: List[str] = []
        self.speed = SpeedLog()
        #: figures before scaling to reference CPU speed
        self.raw: Dict[str, float] = {}

    def _spans_path(self, side: str) -> str:
        if not (self.trace and self.spans_dir):
            return ""
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        return os.path.join(self.spans_dir,
                            f"{stamp}-{self.name}-{os.getpid()}-{side}"
                            ".jsonl.gz")

    def run(self) -> dict:
        return asyncio.run(self._run())

    async def _run(self) -> dict:
        probing = asyncio.get_running_loop().create_task(self.speed.run())
        try:
            return await self._measure()
        finally:
            probing.cancel()
            await asyncio.gather(probing, return_exceptions=True)

    async def _measure(self) -> dict:
        order = [int(index) for index in self.rng.permutation(self.n_devices)]
        rig, setups = await set_up_many(
            self.n_devices, self.n_conns, order, self._spans_path("server"),
            self.trace, self.setups)
        # The load generator's own collector pauses must not show up as
        # served latency: park the set-up heap out of the collector's way.
        gc.collect()
        gc.freeze()
        try:
            ids = list(rig.devices)
            self.tampered = (tampered_set(self.rng, sorted(ids))
                             if self.open_loop else set())
            for device_id in self.tampered:
                device = rig.devices[device_id]
                device.respond = (lambda nonce, device=device:
                                  _tampered_respond(device, nonce))
            if self.trace:
                metrics = await self._traced(rig)
            else:
                metrics = await self._untraced(rig)
            honest = sorted(set(ids) - self.tampered)
            state = rig.check(honest)
            self.problems.extend(state["problems"])
        finally:
            await rig.close()
            gc.unfreeze()
        metrics.update(self._setup_metrics(setups, rig))
        if not self.trace:
            metrics["peak_rss_mb"] = (state["rss_mb"], 1)
        errors = [request.error for request in self.requests
                  if request.error is not None]
        return {"attempted": len(self.requests),
                "failed": len(errors) + len(self.problems),
                "problems": self.problems + errors[:5],
                "metrics": metrics, "raw": self.raw}

    def _pools(self, rig: Rig) -> Dict[bool, deque]:
        return {flag: deque(device for device_id, device
                            in rig.devices.items()
                            if (device_id in self.tampered) == flag)
                for flag in (False, True)}

    def _setup_metrics(self, setups: List[Dict[str, float]], rig: Rig):
        def median_of(field):
            return (median([timing[field] / timing["slowdown"]
                            for timing in setups]), len(setups))
        if not self.trace:
            self.raw["setup_s"] = median([timing["setup_s"]
                                          for timing in setups])
            return {"setup_s": median_of("setup_s")}
        return {"setup.provision_s": median_of("provision_s"),
                "setup.connect_s": median_of("connect_s"),
                "setup.warm_s": median_of("warm_s"),
                "sim.first_respond_ms": (rig.first_respond_ms,
                                         len(rig.devices))}

    # -- untraced ------------------------------------------------------------

    async def _untraced(self, rig: Rig) -> Dict[str, tuple]:
        before = await rig.barrier()
        if self.open_loop:
            schedule = poisson_schedule(self.rng, OPEN_RATE_PER_S,
                                        self.seconds)
            server_cpu0 = rig.server.cpu()
            t0 = time.perf_counter()
            requests = await open_phase(rig, schedule, self._pools(rig),
                                        self.speed)
            after = await rig.barrier()
            server_cpu = rig.server.cpu() - server_cpu0
            t1 = time.perf_counter()
            self.requests.extend(requests)
            counted = requests
            self.raw["auth_p50_ms_from_send_wall"] = 1e3 * report.percentile(
                [request.settled - request.sent for request in requests],
                0.5)
            self.raw["open_loop_wall_s"] = t1 - t0
            # Latency and rate are read on the reference clock already.
            latencies = [(request.due,
                          self.speed.reference(request.settled) - request.due)
                         for request in requests]
            scales = [1.0] * len(latencies)
            adjusted = latencies
            windows = report.supported_windows(len(latencies))
        else:
            requests, window = await closed_phase(rig, self.seconds, RAMP_S)
            after = await rig.barrier()
            self.requests.extend(requests)
            t0, t1 = window["t0"], window["t1"]
            counted = [request for request in requests
                       if request.settled is not None
                       and t0 <= request.settled < t1]
            server_cpu = window["server_cpu1"] - window["server_cpu0"]
            latencies = [(request.settled, request.settled - request.sent)
                         for request in counted]
            windows = report.supported_windows(len(latencies))
            scales, adjusted = _closed_loop_at_reference(
                latencies, self.speed, windows)
        ok = [request.error is None for request in counted]
        settled = sum(ok)
        if not settled:
            raise WireError("no auth settled in the timed window")
        server_factor = rig.server.call("speed", start=t0, end=t1)["factor"]
        figures = {}
        for label, weights, timed in (("raw", [1.0] * len(scales), latencies),
                                      ("scaled", scales, adjusted)):
            p99, tail_samples = report.windowed_percentile(timed, 0.99,
                                                           windows)
            figures[label] = {
                "auths_per_s": sum(weight for weight, good
                                   in zip(weights, ok) if good)
                / self.seconds,
                "auth_p50_ms": 1e3 * report.percentile(
                    [latency for __, latency in timed], 0.5),
                "auth_p99_ms": 1e3 * p99,
            }
        self.raw.update(figures["raw"])
        self.raw.update({
            "auths_per_round": _coalescer(_counter_delta(before, after))[
                "net.coalescer.auths_per_round"],
            "verifier_cpu_us_per_auth": 1e6 * server_cpu / settled,
            "loadgen_slowdown": median(scales),
            "server_slowdown": server_factor})
        samples = {"auths_per_s": settled, "auth_p50_ms": len(latencies),
                   "auth_p99_ms": tail_samples,
                   "verifier_cpu_us_per_auth": settled}
        figures["scaled"]["verifier_cpu_us_per_auth"] = \
            self.raw["verifier_cpu_us_per_auth"] / server_factor
        return {name: (value, samples[name])
                for name, value in figures["scaled"].items()}

    # -- traced --------------------------------------------------------------

    def _cost(self, rig: Rig, start: float, end: float, server_cpu: float,
              client_cpu: float) -> float:
        """A phase's cost at reference CPU speed, for the tracing overhead.

        The open loop's schedule fixes its wall time, so its cost is the
        busy time of both processes; a closed loop's cost is wall time.
        """
        client_factor = self.speed.factor(start, end)
        if not self.open_loop:
            return (end - start) / client_factor
        server_factor = rig.server.call("speed", start=start,
                                        end=end)["factor"]
        return server_cpu / server_factor + client_cpu / client_factor

    async def _phase(self, rig: Rig, seconds: float):
        """One self-contained load phase: start idle, end drained."""
        started = time.perf_counter()
        if self.open_loop:
            schedule = poisson_schedule(self.rng, OPEN_RATE_PER_S, seconds)
            requests = await open_phase(rig, schedule, self._pools(rig),
                                        self.speed)
        else:
            requests, __ = await closed_phase(rig, seconds, 0.0)
        self.requests.extend(requests)
        return requests, started

    async def _traced(self, rig: Rig) -> Dict[str, tuple]:
        half = self.seconds / 2.0
        # Phase A, untraced: the baseline for the tracing overhead.
        server_a = rig.server.cpu()
        cpu_a = time.process_time()
        requests_a, started_a = await self._phase(rig, half)
        await rig.barrier()
        ended_a = time.perf_counter()
        cost_a = self._cost(rig, started_a, ended_a,
                            rig.server.cpu() - server_a,
                            time.process_time() - cpu_a)
        # Phase B, traced on both sides.
        before = await rig.barrier()
        server_b = rig.server.call("trace")["cpu"]
        tracer = Tracer()
        tracer.install(layers.client_sites())
        cpu_b = time.process_time()
        try:
            requests_b, started_b = await self._phase(rig, half)
            after = await rig.barrier()
        finally:
            tracer.uninstall()
        client_cpu = time.process_time() - cpu_b
        ended_b = time.perf_counter()
        wall = ended_b - started_b
        collected = rig.server.call("collect")
        server_cpu = collected["cpu"] - server_b
        cost_b = self._cost(rig, started_b, ended_b, server_cpu, client_cpu)
        if self.spans_dir:
            tracer.write(self._spans_path("loadgen"))
        auths = _settled_ok(requests_b)
        auths_a = _settled_ok(requests_a)
        if not (auths and auths_a):
            raise WireError("a traced-run phase settled no auth")
        server = collected["summary"]
        client = summarize(tracer.spans)
        if server["roots"]["total"] > server_cpu:
            self.problems.append(
                f"server spans cover {server['roots']['total']:.6f} s, more "
                f"than its {server_cpu:.6f} CPU seconds")
        values = layers.verifier_plane(server, auths)
        values.update(layers.simulator(client, auths))
        values.update(_coalescer(_counter_delta(before, after)))
        values.update(_phase_latencies(requests_b, tracer.spans))
        values["net.server.self_us_per_auth"] = \
            1e6 * (server_cpu - server["roots"]["total"]) / auths
        values["net.server.busy_share"] = server_cpu / wall
        values["net.client.self_us_per_auth"] = \
            1e6 * (client_cpu - client["roots"]["total"]) / auths
        values["loadgen.busy_share"] = client_cpu / wall
        values["loadgen.late_p99_ms"] = (
            1e3 * report.percentile([self.speed.reference(request.sent)
                                     - request.due
                                     for request in requests_b], 0.99)
            if self.open_loop else 0.0)
        values["trace.overhead_share"] = \
            (cost_b / auths) / (cost_a / auths_a) - 1.0
        # Layers this path never runs.
        values["sim.respond_round_us_per_auth"] = 0.0
        values["sim.plane_evaluate_us_per_auth"] = 0.0
        return {name: (value, auths) for name, value in values.items()}


class WireOpen(WireRun):
    name = "wire_open"
    open_loop = True
    n_conns = 1


class WireSaturate(WireRun):
    name = "wire_saturate"
    open_loop = False
    n_conns = SATURATE_CONNECTIONS
