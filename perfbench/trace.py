"""In-memory span recording for the traced benchmark run.

A :class:`Tracer` replaces functions at the site where the program
looks them up (a module global such as ``repro.fleet.verifier.
verify_mac_batch``, or a class attribute such as
``FleetRegistry.record``) with a wrapper that records one span per
call: ``[name, start, end, parent, key]``.  ``parent`` is the index of
the span open when the call began; ``key`` is the device id for
per-device calls, else the call's serial number, so the spans of one
request or one round can be grouped.

Generators and iterators returned by a wrapped call are timed per
``next()``, and coroutines per step (each ``send`` between two
suspensions), so a span never covers time the caller spent elsewhere.
That keeps every span synchronous, which is why one stack per process
is enough to assign parents even on an event loop.

Nothing is installed until :meth:`Tracer.install` runs, and
:meth:`Tracer.uninstall` puts back the very objects it replaced: an
untraced run executes the program's own functions.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (owner, attribute, span name, key function or None)
Site = Tuple[object, str, str, Optional[Callable]]

NAME, START, END, PARENT, KEY = range(5)


class Tracer:
    """Records spans around installed wrappers, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._serial = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, key) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, key])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    def _key(self, key_fn, args):
        if key_fn is not None:
            return key_fn(args)
        self._serial += 1
        return self._serial

    def wrap(self, name: str, fn: Callable,
             key_fn: Optional[Callable] = None) -> Callable:
        """A traced stand-in for ``fn`` recording spans named ``name``."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                key = self._key(key_fn, args)
                return await _Steps(self, name, key, fn(*args, **kwargs))
            return traced_coroutine

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = self._key(key_fn, args)
            index = self._open(name, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if inspect.isgenerator(result):
                return self._iterate(name, key, result)
            return result
        return traced

    def _iterate(self, name: str, key, iterator):
        while True:
            index = self._open(name, key)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    # -- installation ------------------------------------------------------

    def install(self, sites: Iterable[Site]) -> None:
        """Wrap each site's function where the program looks it up."""
        for owner, attr, name, key_fn in sites:
            try:
                original = vars(owner)[attr]
            except KeyError:
                raise AttributeError(
                    f"{owner!r} does not itself define {attr!r}; wrap it "
                    "where it is looked up") from None
            setattr(owner, attr, self.wrap(name, original, key_fn))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function (identical objects)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzip'd JSON lines (one span per line)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


class _Steps:
    """Await a coroutine, recording one span per step it runs."""

    def __init__(self, tracer: Tracer, name: str, key, coroutine):
        self.tracer = tracer
        self.name = name
        self.key = key
        self.coroutine = coroutine

    def __await__(self):
        coroutine = self.coroutine
        value, error = None, None
        while True:
            index = self.tracer._open(self.name, self.key)
            try:
                if error is None:
                    signal = coroutine.send(value)
                else:
                    signal = coroutine.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.tracer._close(index)
            try:
                value, error = (yield signal), None
            except GeneratorExit:
                coroutine.close()
                raise
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START]
            - covered(children.get(index, ()), span[START], span[END])
            for index, span in enumerate(spans)]


def summarize(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, distinct keys, self seconds, total seconds.

    Codec spans keyed ``"report"`` are summed under ``<name>.report``
    so the report round trip can be attributed apart from the codec.
    """
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    keys: Dict[str, set] = defaultdict(set)
    for span, own in zip(spans, selfs):
        name = span[NAME]
        if span[KEY] == "report":
            name += ".report"
        entry = out.setdefault(name, {"calls": 0, "self": 0.0,
                                      "total": 0.0})
        entry["calls"] += 1
        entry["self"] += own
        entry["total"] += span[END] - span[START]
        keys[name].add(span[KEY])
    for name, entry in out.items():
        entry["keys"] = len(keys[name])
    out["roots"] = {"calls": 0, "self": 0.0, "keys": 0, "total": sum(
        span[END] - span[START] for span in spans if span[PARENT] is None)}
    return out
