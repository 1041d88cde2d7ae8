"""Frame transport: length-prefixed codec frames over asyncio streams.

The outer transport envelope is deliberately minimal — a 4-byte
big-endian length prefix followed by exactly that many bytes of codec
frame (:mod:`repro.service.codec` owns everything inside).  The reader
enforces the two transport-level failure modes the codec cannot see:

* **oversize** — a length prefix beyond ``max_bytes`` is rejected
  before a single payload byte is buffered, so a hostile peer cannot
  make the server allocate unbounded memory;
* **slow loris** — once the first byte of a frame has arrived, the
  rest must follow within ``frame_timeout``; a peer that trickles one
  byte per epoch times out (:class:`asyncio.TimeoutError`) instead of
  pinning a connection handler forever.

Both timeouts run without a Task per frame: a deadline is one loop
timer that, should it fire, fails the reader itself
(:meth:`asyncio.StreamReader.set_exception`), so the pending
``readexactly`` raises where it waits.  A frame that is already
buffered is read without a single suspension.  The reader stays failed
afterwards — a timed-out peer is evicted, never read again.

A clean EOF *between* frames returns ``None`` (orderly disconnect); an
EOF *inside* a frame raises :class:`~repro.service.codec.CodecError`
with the shared ``malformed`` taxonomy kind, exactly like a truncated
codec payload.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Optional

from repro.service.codec import CodecError

#: Default per-frame ceiling. Generous for this protocol: the largest
#: legitimate frame is a REPORT for a max_batch round, well under 1 MiB.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")


class _Deadline:
    """Fail ``reader`` with :class:`asyncio.TimeoutError` at ``timeout``.

    A context manager around the reads one timeout bounds; ``None``
    arms nothing.  Leaving it disarms the timer, and raises the timeout
    if it fired, even when the last byte landed in the same loop turn.
    """

    __slots__ = ("reader", "handle", "expired")

    def __init__(self, reader: asyncio.StreamReader,
                 timeout: Optional[float]):
        self.reader = reader
        self.expired = False
        self.handle = None if timeout is None else \
            asyncio.get_running_loop().call_later(timeout, self._expire)

    def _expire(self) -> None:
        self.expired = True
        self.reader.set_exception(asyncio.TimeoutError())

    def __enter__(self) -> "_Deadline":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.handle is not None:
            self.handle.cancel()
        if self.expired:
            raise asyncio.TimeoutError()


async def read_frame(reader: asyncio.StreamReader, *,
                     max_bytes: int = MAX_FRAME_BYTES,
                     idle_timeout: Optional[float] = None,
                     frame_timeout: Optional[float] = None,
                     ) -> Optional[bytes]:
    """Read one length-prefixed codec frame; ``None`` on clean EOF.

    ``idle_timeout`` bounds the wait for a frame to *start* (no bytes
    in flight yet); ``frame_timeout`` bounds the arrival of the rest of
    the frame once its first byte landed — the slow-loris guard.  Both
    raise :class:`asyncio.TimeoutError`.  Truncation mid-frame and
    oversized prefixes raise :class:`CodecError` (``malformed``).
    """
    try:
        with _Deadline(reader, idle_timeout):
            first = await reader.readexactly(1)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise CodecError("connection closed inside a frame "
                             "length prefix") from exc
        return None
    try:
        with _Deadline(reader, frame_timeout):
            (length,) = _LENGTH.unpack(
                first + await reader.readexactly(_LENGTH.size - 1))
            if length > max_bytes:
                raise CodecError(
                    f"frame of {length} bytes exceeds the "
                    f"{max_bytes}-byte transport ceiling"
                )
            return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise CodecError(
            "connection closed mid-frame "
            f"({len(exc.partial)} of {exc.expected} bytes)"
        ) from exc


def write_frame(writer, frame: bytes) -> None:
    """Queue one frame on ``writer``: an :class:`asyncio.StreamWriter`
    (callers ``await writer.drain()``) or any buffer with ``write``,
    such as the :class:`io.BytesIO` a batched send gathers frames in."""
    writer.write(_LENGTH.pack(len(frame)) + frame)
