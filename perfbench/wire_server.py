"""The served verifier of the wire workloads, in a process of its own.

Started by the load generator as ``python -m perfbench.wire_server``.
It takes one JSON command per line on stdin and answers each with one
JSON line on stdout.  The first must be

``load``     restore the service from the snapshot at ``path``, written
             by the load generator after it provisioned the fleet, and
             serve it with a default
             :class:`repro.service.net.AuthServer` on an ephemeral
             loopback port; answers ``{"port": ...}``.

Like a deployed verifier, this process holds the registry and the
verifier state but none of the device hardware.  Then:

``cpu``      process CPU seconds so far;
``trace``    install the server-side span wrappers;
``collect``  remove them, write the spans, return their summary;
``speed``    this process's CPU slowdown factor over a window
             (:mod:`perfbench.speed`);
``check``    registry digest over the given device ids, pending
             sessions, commit-log entries, unacked confirmations, peak
             RSS;
``stop``     drain the server and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _check(service, server, ids) -> dict:
    from perfbench.report import peak_rss_mb
    from perfbench.workloads import response_digest
    verifier = service.verifier
    return {
        "digest": response_digest(
            (device_id, service.registry.record(device_id).current_response)
            for device_id in ids),
        "pending": len(verifier._pending),
        "commit_log": len(verifier.commit_log or ()),
        "acks_pending": len(server._ack_pending),
        "rss_mb": peak_rss_mb(),
        "cpu": time.process_time(),
    }


async def serve(spans_path: str) -> None:
    from perfbench.layers import server_sites
    from perfbench.speed import SpeedLog
    from perfbench.trace import Tracer, summarize
    from repro.service import AuthService
    from repro.service.net import AuthServer

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin)
    command = json.loads(await commands.readline() or b"{}")
    if command.get("cmd") != "load":
        _reply({"error": "the first command must be 'load'"})
        return
    service = AuthService.load(command["path"], devices=[])
    server = await AuthServer(service).start()
    _reply({"port": server.port})
    tracer = None
    speed = SpeedLog()
    probing = loop.create_task(speed.run())
    try:
        while True:
            line = await commands.readline()
            if not line:
                break                      # the load generator is gone
            command = json.loads(line)
            verb = command["cmd"]
            if verb == "cpu":
                _reply({"cpu": time.process_time()})
            elif verb == "trace":
                tracer = Tracer(clock=time.process_time)
                tracer.install(server_sites())
                _reply({"cpu": time.process_time()})
            elif verb == "collect":
                cpu = time.process_time()
                spans = tracer.spans[:len(tracer.spans)]
                tracer.uninstall()
                if spans_path:
                    tracer.write(spans_path)
                _reply({"cpu": cpu, "summary": summarize(spans)})
                tracer = None
            elif verb == "speed":
                _reply({"factor": speed.factor(command["start"],
                                               command["end"])})
            elif verb == "check":
                _reply(_check(service, server, command["ids"]))
            elif verb == "stop":
                break
            else:
                _reply({"error": f"unknown command {verb!r}"})
    finally:
        probing.cancel()
        if tracer is not None:
            tracer.uninstall()
        await server.aclose()
        service.close()
    _reply({"stopped": True})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default="",
                        help="where 'collect' writes the spans")
    args = parser.parse_args()
    asyncio.run(serve(args.spans))


if __name__ == "__main__":
    main()
