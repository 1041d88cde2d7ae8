"""Workload definitions: fleet shape, seeded inputs, the output digest.

The fleet itself is fixed (``FLEET_SEED``); the workload seed given on
the command line generates only the inputs the program sees: the
arrival schedule, the device order and the tampered set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)
FLEET_SEED = 2024
WIRE_DEVICES = 256
INPROC_DEVICES = 1024
#: open-loop arrival rate, about a quarter of wire_saturate's capacity
OPEN_RATE_PER_S = 400.0
#: share of open-loop requests sent by tampered devices
TAMPER_SHARE = 0.1
TAMPER_FACTOR = 1.5
SATURATE_CONNECTIONS = 2
#: set-ups per run; setup_s is their median
SETUPS = 5
#: closed-loop warm-up before the timed window opens
RAMP_S = 1.0
#: a request not settled this long after it was sent counts as failed
SETTLE_TIMEOUT_S = 30.0


def fleet_config(n_devices: int):
    from repro.service import FleetConfig
    return FleetConfig(n_devices=n_devices, seed=FLEET_SEED, puf=PUF)


@dataclass(frozen=True)
class Arrival:
    due_s: float          # offset from the start of the open loop
    tampered: bool


def poisson_schedule(rng: np.random.Generator, rate: float,
                     seconds: float) -> List[Arrival]:
    """Poisson arrivals over ``seconds``; each tampered w.p. TAMPER_SHARE."""
    arrivals: List[Arrival] = []
    now = 0.0
    while True:
        now += float(rng.exponential(1.0 / rate))
        if now >= seconds:
            return arrivals
        arrivals.append(Arrival(now, bool(rng.random() < TAMPER_SHARE)))


def tampered_set(rng: np.random.Generator, device_ids: List[str]) -> set:
    """A seeded TAMPER_SHARE of the fleet, rounded up."""
    count = int(np.ceil(TAMPER_SHARE * len(device_ids)))
    picks = rng.choice(len(device_ids), size=count, replace=False)
    return {device_ids[index] for index in picks}


def response_digest(pairs: Iterable[Tuple[str, np.ndarray]]) -> str:
    """SHA-256 over ``(device id, current response)`` in id order."""
    digest = hashlib.sha256()
    for device_id, response in sorted(pairs, key=lambda pair: pair[0]):
        digest.update(device_id.encode("utf-8"))
        digest.update(np.packbits(np.asarray(response, dtype=np.uint8))
                      .tobytes())
    return digest.hexdigest()
