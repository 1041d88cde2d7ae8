"""Per-frame and per-round work of the served micro-round, pinned.

* frame reads: an already-buffered frame is read with no Task, even
  with both timeouts armed, and a trickled frame still times out;
* scatter: one transport write per connection per scatter phase, no
  REPORT frame encoded or decoded on the server, no RESPONSE re-encoded;
* acks: a confirmation is registered as unacked before its frame is
  written, so a finalize that lands while the write drains settles it,
  and the ambiguous abort of an unacked confirmation is fenced to its
  round's nonce.

Each test drives asyncio with ``asyncio.run`` inside a synchronous test
function, like the rest of the suite.
"""

import asyncio
import io
import struct

import pytest

from repro.fleet.verifier import AuthResponse, BatchAuthReport
from repro.service import AuthService, FleetConfig, WireType
from repro.service import facade
from repro.service.codec import (
    SessionRequest,
    encode_message,
    peek_header,
)
from repro.service.net import (
    AuthClient,
    AuthServer,
    NetConfig,
    read_frame,
    server as server_module,
    write_frame,
)

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def provision(n_devices=4, seed=7, **kwargs):
    return AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, puf=FAST_PUF, **kwargs))


def run(coro):
    return asyncio.run(coro)


def framed(*frames: bytes) -> bytes:
    batch = io.BytesIO()
    for frame in frames:
        write_frame(batch, frame)
    return batch.getvalue()


def wire_types(chunk: bytes):
    """Wire type of every length-prefixed frame in one written chunk."""
    types, offset = [], 0
    while offset < len(chunk):
        (length,) = struct.unpack_from(">I", chunk, offset)
        frame = chunk[offset + 4:offset + 4 + length]
        types.append(WireType(peek_header(frame)[2]))
        offset += 4 + length
    return types


def counting_factory(created):
    """A task factory that records every coroutine it wraps."""
    def factory(loop, coro, **kwargs):
        created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)
    return factory


async def until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class TestFrameReads:
    def test_buffered_frame_reads_without_a_task(self):
        frame = encode_message(SessionRequest("auth", "dev-0"))

        async def main():
            loop = asyncio.get_running_loop()
            created = []
            reader = asyncio.StreamReader()
            reader.feed_data(framed(frame, frame))
            loop.set_task_factory(counting_factory(created))
            try:
                got = [await read_frame(reader, idle_timeout=1.0,
                                        frame_timeout=1.0)
                       for __ in range(2)]
            finally:
                loop.set_task_factory(None)
            return got, created

        got, created = run(main())
        assert got == [frame, frame]
        assert created == []

    def test_frame_finishing_in_time_is_read_without_a_task(self):
        frame = encode_message(SessionRequest("auth", "dev-0"))
        data = framed(frame)

        async def main():
            loop = asyncio.get_running_loop()
            created = []
            reader = asyncio.StreamReader()
            reader.feed_data(data[:2])
            loop.call_later(0.01, reader.feed_data, data[2:])
            loop.set_task_factory(counting_factory(created))
            try:
                got = await read_frame(reader, frame_timeout=1.0)
            finally:
                loop.set_task_factory(None)
            return got, created

        got, created = run(main())
        assert got == frame
        assert created == []

    def test_trickled_frame_times_out(self):
        frame = encode_message(SessionRequest("auth", "dev-0"))
        data = framed(frame)

        async def main():
            loop = asyncio.get_running_loop()
            reader = asyncio.StreamReader()
            reader.feed_data(data[:6])           # prefix + 2 payload bytes
            # One more byte well inside the timeout, then silence.
            loop.call_later(0.01, reader.feed_data, data[6:7])
            with pytest.raises(asyncio.TimeoutError):
                await read_frame(reader, frame_timeout=0.05)
            # A timed-out reader stays failed: the peer is evicted.
            with pytest.raises(asyncio.TimeoutError):
                await read_frame(reader, frame_timeout=0.05)

        run(main())

    def test_idle_timeout_bounds_the_first_byte(self):
        async def main():
            with pytest.raises(asyncio.TimeoutError):
                await read_frame(asyncio.StreamReader(), idle_timeout=0.02)

        run(main())


class TestScatterWork:
    def test_one_write_per_connection_per_scatter(self, monkeypatch):
        n_devices = 8
        encoded, decoded = [], []

        def counting_encode(original):
            def encode(message):
                encoded.append(type(message))
                return original(message)
            return encode

        def counting_decode(original):
            def decode(frame):
                decoded.append(WireType(peek_header(frame)[2]))
                return original(frame)
            return decode

        for module in (server_module, facade):
            monkeypatch.setattr(module, "encode_message",
                                counting_encode(module.encode_message))
            monkeypatch.setattr(module, "decode_message",
                                counting_decode(module.decode_message))

        async def main():
            # A huge budget and batch: only the explicit flush runs the
            # round, so all devices share one micro-round.
            service = provision(n_devices=n_devices, latency_budget_s=60.0)
            writes = {}
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as first, \
                        AuthClient.connect("127.0.0.1",
                                           server.port) as second:
                    await until(lambda: len(server._conns) == 2)
                    for conn in server._conns:
                        chunks = writes.setdefault(conn, [])
                        original = conn.writer.write

                        def recording(data, chunks=chunks,
                                      original=original):
                            chunks.append(bytes(data))
                            original(data)
                        conn.writer.write = recording
                    tickets = [
                        await (first, second)[position % 2].submit(device)
                        for position, device in enumerate(
                            service.device_list)]
                    await until(lambda: len(server._pending) == n_devices)
                    await first.flush()
                    for ticket in tickets:
                        await ticket.wait(10)
                    await until(lambda: not server._ack_pending)
                    metrics = server.metrics
            return tickets, list(writes.values()), metrics

        tickets, writes, metrics = run(main())
        assert all(ticket.accepted for ticket in tickets)
        assert metrics.micro_rounds == 1
        for chunks in writes:
            typed = [wire_types(chunk) for chunk in chunks]
            challenges = [types for types in typed
                          if WireType.CHALLENGE in types]
            confirmations = [types for types in typed
                             if WireType.CONFIRMATION in types]
            assert challenges == [[WireType.CHALLENGE] * (n_devices // 2)]
            assert confirmations == [
                [WireType.CONFIRMATION] * (n_devices // 2)]
        # The round report never touches the codec on the server, and a
        # RESPONSE is decoded once on arrival, never re-encoded.
        assert BatchAuthReport not in encoded
        assert AuthResponse not in encoded
        assert WireType.REPORT not in decoded
        assert decoded.count(WireType.RESPONSE) == n_devices


class TestAckRegistration:
    def test_finalize_landing_during_the_drain_settles_the_ack(self):
        async def main():
            service = provision(n_devices=2)
            device = service.device_list[0]
            verifier = service.verifier
            verified = asyncio.Event()
            finalized = asyncio.Event()
            verify_round, finalize = verifier.verify_round, \
                verifier.finalize

            def marking_verify(*args, **kwargs):
                report = verify_round(*args, **kwargs)
                verified.set()
                return report

            def marking_finalize(*args, **kwargs):
                finalize(*args, **kwargs)
                finalized.set()

            verifier.verify_round = marking_verify
            verifier.finalize = marking_finalize
            config = NetConfig(drain_timeout_s=0.2)
            server = await AuthServer(service, config).start()
            client = await AuthClient.connect("127.0.0.1", server.port)
            await until(lambda: len(server._conns) == 1)
            (conn,) = server._conns
            drain = conn.writer.drain
            held = []

            async def held_drain():
                # Hold the confirmation scatter's drain until the
                # device's finalize has been dispatched.
                if verified.is_set() and not held:
                    held.append(True)
                    await finalized.wait()
                await drain()

            conn.writer.drain = held_drain
            ticket = await client.authenticate(device)
            await asyncio.wait_for(finalized.wait(), 10)
            await until(lambda: not server._rounds)
            ack_pending = set(server._ack_pending)
            # A later round, opened but not yet acked, must survive the
            # teardown and the drain of the first round's connection.
            nonces, challenges = service.open_round_wire([device.device_id])
            response = device.respond(nonces[device.device_id])
            service.verify_round_wire([encode_message(response)], nonces)
            await client.aclose()
            await server.aclose()
            survived = device.device_id in verifier._pending
            return ticket, held, ack_pending, survived, server.metrics

        ticket, held, ack_pending, survived, metrics = run(main())
        assert ticket.accepted
        assert held == [True]
        assert ack_pending == set()
        assert metrics.acks_aborted == 0
        assert survived

    def test_unacked_abort_is_fenced_to_its_round(self):
        async def main():
            service = provision(n_devices=2)
            device = service.device_list[0]
            device_id = device.device_id
            server = AuthServer(service)
            conn = _StubConnection()
            # An entry left over from an earlier round ...
            stale = service.open_round_wire([device_id])[0][device_id]
            service.verifier.abort(device_id, token=stale)
            server._expect_ack(conn, device_id, stale)
            # ... must not abort the session a later round holds.
            nonces, __ = service.open_round_wire([device_id])
            response = device.respond(nonces[device_id])
            service.verify_round_wire([encode_message(response)], nonces)
            server._abort_unacked(conn, device_id)
            return service, device_id, server

        service, device_id, server = run(main())
        assert device_id in service.verifier._pending
        assert server._ack_pending == set()
        assert server.metrics.acks_aborted == 1

    def test_stale_ack_leaves_a_later_rounds_entry(self):
        async def main():
            server = AuthServer(provision(n_devices=2))
            conn = _StubConnection()
            server._expect_ack(conn, "dev-0", b"later")
            server._settle_ack(conn, "dev-0", b"earlier")
            left = dict(conn.ack_pending)
            tracked = (conn, "dev-0") in server._ack_pending
            server._settle_ack(conn, "dev-0", b"later")
            return left, tracked, server._ack_pending, conn.ack_pending

        left, tracked, server_table, conn_table = run(main())
        assert left == {"dev-0": b"later"} and tracked
        assert server_table == set() and conn_table == {}


class _StubConnection:
    """The part of a server connection the ack table touches."""

    def __init__(self):
        self.ack_pending = {}
