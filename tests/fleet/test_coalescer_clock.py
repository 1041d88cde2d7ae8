"""Deadline semantics of the coalescer on its injectable clock.

The flush boundary is defined as ``clock() >= deadline`` — a ticket
submitted at ``t`` with budget ``B`` flushes at exactly ``t + B``, not
one tick later.  These are regression tests for that boundary, for the
:attr:`RoundCoalescer.deadline` / :meth:`RoundCoalescer.time_to_deadline`
timer API the network server schedules against, and for the server's
flush timer reading the *same* injected clock as the coalescer
(``AuthService.clock``) rather than its own ``time.monotonic``.  The
size, duplicate-device and revocation triggers of the micro-round flush
run on the same kind of clock, over a stacked fleet.
"""

import asyncio

import pytest

from repro.fleet import RoundCoalescer
from repro.service import AuthService, FleetConfig
from repro.service.net import AuthClient, AuthServer

from facade_bridge import provision_fleet

CONFIG = dict(challenge_bits=32, n_stages=4, response_bits=16,
              n_spot_crps=0)
BUDGET = 5.0


class FakeClock:
    """A monotonic clock that moves only when told to."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def clocked_coalescer(n_devices=4, seed=11):
    __, devices, verifier = provision_fleet(n_devices, seed=seed, **CONFIG)
    clock = FakeClock()
    coalescer = RoundCoalescer(verifier, latency_budget_s=BUDGET,
                               max_batch=64, clock=clock)
    return devices, coalescer, clock


class TestDeadlineBoundary:
    def test_idle_coalescer_has_no_deadline(self):
        __, coalescer, __ = clocked_coalescer()
        assert coalescer.deadline is None
        assert coalescer.time_to_deadline() is None

    def test_deadline_anchors_to_first_submit(self):
        devices, coalescer, clock = clocked_coalescer()
        start = clock()
        coalescer.submit(devices[0])
        assert coalescer.deadline == start + BUDGET
        clock.advance(1.0)
        # Later submits do NOT extend the deadline: the budget caps the
        # latency of the *oldest* pending request.
        coalescer.submit(devices[1])
        assert coalescer.deadline == start + BUDGET

    def test_poll_holds_strictly_before_the_boundary(self):
        devices, coalescer, clock = clocked_coalescer()
        ticket = coalescer.submit(devices[0])
        clock.advance(BUDGET - 1e-9)
        assert coalescer.poll() is None
        assert not ticket.done
        assert coalescer.flushed_by_deadline == 0

    def test_poll_flushes_at_exactly_the_boundary(self):
        # The regression this file exists for: the flush condition is
        # clock() >= deadline, so a timer that sleeps time_to_deadline()
        # and polls fires on the dot — never a tick late.
        devices, coalescer, clock = clocked_coalescer()
        ticket = coalescer.submit(devices[0])
        clock.advance(BUDGET)
        assert clock() == coalescer.deadline
        assert coalescer.time_to_deadline() == 0.0
        report = coalescer.poll()
        assert report is not None and report.n_accepted == 1
        assert ticket.done and ticket.accepted
        assert coalescer.flushed_by_deadline == 1
        assert coalescer.deadline is None          # reset after flush

    def test_time_to_deadline_counts_down_on_the_injected_clock(self):
        devices, coalescer, clock = clocked_coalescer()
        coalescer.submit(devices[0])
        assert coalescer.time_to_deadline() == BUDGET
        clock.advance(2.0)
        assert coalescer.time_to_deadline() == BUDGET - 2.0
        clock.advance(10.0)                        # long past due
        assert coalescer.time_to_deadline() == 0.0  # clamped, never < 0
        assert coalescer.time_to_deadline(now=clock() - 11.0) == 4.0

    def test_zero_budget_flushes_on_first_poll(self):
        __, devices, verifier = provision_fleet(2, seed=12, **CONFIG)
        clock = FakeClock()
        coalescer = RoundCoalescer(verifier, latency_budget_s=0.0,
                                   max_batch=64, clock=clock)
        ticket = coalescer.submit(devices[0])
        # deadline == now: due immediately, without the clock moving.
        assert coalescer.time_to_deadline() == 0.0
        assert coalescer.poll() is not None
        assert ticket.accepted


@pytest.fixture()
def stacked_fleet():
    return provision_fleet(10, seed=77, **CONFIG)


class TestRoundCoalescer:
    @pytest.fixture()
    def clocked(self, stacked_fleet):
        __, devices, verifier = stacked_fleet
        now = [0.0]
        coalescer = RoundCoalescer(verifier, latency_budget_s=1.0,
                                   max_batch=4, clock=lambda: now[0])
        return devices, coalescer, now

    def test_holds_until_deadline(self, clocked):
        devices, coalescer, now = clocked
        ticket = coalescer.submit(devices[0])
        assert coalescer.pending_count == 1
        assert coalescer.poll() is None
        assert not ticket.done
        now[0] = 1.5
        report = coalescer.poll()
        assert report is not None and report.n_accepted == 1
        assert ticket.done and ticket.accepted
        assert coalescer.flushed_by_deadline == 1

    def test_full_micro_round_flushes_immediately(self, clocked):
        devices, coalescer, __ = clocked
        tickets = [coalescer.submit(device) for device in devices[:4]]
        assert coalescer.pending_count == 0
        assert all(t.done and t.accepted for t in tickets)
        assert coalescer.flushed_by_size == 1
        assert coalescer.micro_rounds == 1

    def test_duplicate_submission_flushes_first(self, clocked):
        devices, coalescer, __ = clocked
        first = coalescer.submit(devices[0])
        second = coalescer.submit(devices[0])
        assert first.done and first.accepted
        assert not second.done
        coalescer.flush()
        assert second.done and second.accepted

    def test_unknown_device_rejected_at_submit(self, clocked):
        from repro.fleet import FleetDevice
        from repro.protocols.mutual_auth import AuthenticationFailure
        devices, coalescer, __ = clocked
        stranger = FleetDevice("dev-stranger", devices[0].puf)
        ticket = coalescer.submit(devices[0])
        # A stray unenrolled request fails at the door, not mid-round.
        with pytest.raises(AuthenticationFailure):
            coalescer.submit(stranger)
        assert coalescer.pending_count == 1
        report = coalescer.flush()
        assert report.n_accepted == 1 and ticket.accepted

    def test_revoked_mid_coalesce_fails_only_that_ticket(self, clocked,
                                                         stacked_fleet):
        """Revocation between submit and flush rejects the victim only.

        Regression: the revoked device used to reach ``open_round``,
        which raised ``not-enrolled`` for the *whole* micro-round and
        settled every ticket as failed.  The flush must screen revoked
        devices out first so the survivors still authenticate.
        """
        registry, devices, verifier = stacked_fleet
        __, coalescer, __ = clocked
        survivor = coalescer.submit(devices[1])
        victim = coalescer.submit(devices[2])
        registry.revoke(devices[2].device_id)
        verifier.evict(devices[2].device_id)
        report = coalescer.flush()
        assert report is not None and report.n_accepted == 1
        assert survivor.done and survivor.accepted
        assert victim.done and not victim.accepted
        assert "revoked" in victim.failure
        assert victim.failure_kind == "not-enrolled"
        assert coalescer.pending_count == 0
        assert coalescer.micro_rounds == 1

    def test_whole_micro_round_revoked_is_noop_round(self, clocked,
                                                     stacked_fleet):
        registry, devices, verifier = stacked_fleet
        __, coalescer, __ = clocked
        ticket = coalescer.submit(devices[3])
        registry.revoke(devices[3].device_id)
        verifier.evict(devices[3].device_id)
        # Every pending device gone: no round runs at all.
        assert coalescer.flush() is None
        assert ticket.done and not ticket.accepted
        assert ticket.failure_kind == "not-enrolled"
        assert coalescer.micro_rounds == 0

    def test_flush_empty_is_noop(self, clocked):
        __, coalescer, __ = clocked
        assert coalescer.flush() is None
        assert coalescer.micro_rounds == 0

    def test_validation(self, stacked_fleet):
        __, __, verifier = stacked_fleet
        with pytest.raises(ValueError):
            RoundCoalescer(verifier, latency_budget_s=-1.0)
        with pytest.raises(ValueError):
            RoundCoalescer(verifier, max_batch=0)


class TestServerSharesTheInjectedClock:
    def test_wire_poll_reads_the_service_clock(self):
        # The server's flush decision must consult AuthService.clock —
        # with a frozen fake clock, no amount of real time makes the
        # deadline pass; one fake-clock tick does.
        clock = FakeClock()
        service = AuthService.provision(
            FleetConfig(n_devices=2, seed=13,
                        puf=dict(challenge_bits=32, n_stages=4,
                                 response_bits=16),
                        latency_budget_s=BUDGET),
            clock=clock)
        assert service.clock is clock

        async def main():
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    ticket = await client.submit(service.device_list[0])
                    await asyncio.sleep(0.2)       # real time passes...
                    fired_early = await client.poll()
                    clock.advance(BUDGET)          # ...fake time decides
                    fired_on_time = await client.poll()
                    await ticket.wait(10)
                return fired_early, fired_on_time, ticket, server.metrics
        fired_early, fired_on_time, ticket, metrics = asyncio.run(main())
        assert not fired_early
        assert fired_on_time
        assert ticket.accepted
        assert metrics.flushed_by_deadline == 1
