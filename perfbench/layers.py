"""Where the traced run wraps the program, and how spans become metrics.

Every per-layer number is filed under the verifier plane (the served
product: ``net``, ``codec``, ``facade``, ``verifier``, ``crypto``,
``protocols``, ``registry``) or the device simulator (``sim``: the
stand-in for field hardware).  A layer that does no work on a workload
reports 0 there: the in-process rounds have no sockets and no codec,
and the wire load generator never runs the stacked simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from perfbench.trace import Site

#: codec wire-type byte (header ``>2sBBB``) of a REPORT frame
_REPORT_TYPE = 4


def _device_arg(args) -> str:
    return args[1]


def _device_self(args) -> str:
    return args[0].device_id


def _encode_key(args) -> Optional[str]:
    return "report" if type(args[0]).__name__ == "BatchAuthReport" else None


def _decode_key(args) -> Optional[str]:
    frame = args[0]
    return "report" if len(frame) > 4 and frame[4] == _REPORT_TYPE else None


def _shared_verifier_sites() -> List[Site]:
    from repro.fleet import verifier
    from repro.fleet.registry import FleetRegistry
    from repro.fleet.verifier import BatchVerifier
    return [
        (BatchVerifier, "open_round", "verifier.open_round", None),
        (BatchVerifier, "finalize", "verifier.finalize", _device_arg),
        (verifier, "verify_mac_batch", "crypto.mac_verify", None),
        (verifier, "confirmation_mac_batch", "protocols.confirm_mac", None),
        (verifier, "derive_challenge_batch", "protocols.derive_challenge",
         None),
        (FleetRegistry, "record", "registry.record", _device_arg),
        (FleetRegistry, "roll", "registry.roll", _device_arg),
    ]


def server_sites() -> List[Site]:
    """Wrap sites in the served verifier's process."""
    from repro.fleet.verifier import BatchVerifier
    from repro.service import facade
    from repro.service.facade import AuthService
    from repro.service.net import server
    return _shared_verifier_sites() + [
        (server, "read_frame", "stream.read_frame", None),
        (server, "write_frame", "stream.write_frame", None),
        (server, "decode_message", "codec.decode", _decode_key),
        (server, "encode_message", "codec.encode", _encode_key),
        (facade, "decode_message", "codec.decode", _decode_key),
        (facade, "encode_message", "codec.encode", _encode_key),
        (AuthService, "open_round_wire", "facade.open_round_wire", None),
        (AuthService, "verify_round_wire", "facade.verify_round_wire", None),
        (BatchVerifier, "verify_round", "verifier.verify", None),
    ]


def client_sites() -> List[Site]:
    """Wrap sites in the wire load generator (simulated devices)."""
    from repro.fleet.verifier import FleetDevice
    return [
        (FleetDevice, "respond", "sim.respond", _device_self),
        (FleetDevice, "confirm", "sim.confirm", _device_self),
    ]


def inproc_sites() -> List[Site]:
    """Wrap sites for in-process rounds (verifier and simulator)."""
    from repro.fleet import verifier
    from repro.fleet.verifier import BatchVerifier, FleetDevice
    from repro.puf.photonic_strong import PhotonicFleet
    from repro.service.facade import AuthService
    return _shared_verifier_sites() + [
        (AuthService, "authenticate_batch", "facade.authenticate_batch",
         None),
        # Its self time is the verify stage (_verify_round_into) plus the
        # commit sweep's glue: every other step is a wrapped child.
        (BatchVerifier, "authenticate_fleet", "verifier.verify", None),
        (verifier, "respond_round_staged", "sim.respond_round", None),
        (PhotonicFleet, "evaluate_staged", "sim.plane_evaluate", None),
        (FleetDevice, "confirm", "sim.confirm", _device_self),
    ]


#: per-layer metric name -> unit, in report order
PER_LAYER = {
    "net.server.self_us_per_auth": "us",
    "net.server.busy_share": "share",
    "net.stream.frames_per_auth": "frames/auth",
    "net.stream.us_per_auth": "us",
    "net.coalescer.auths_per_round": "auths/round",
    "net.coalescer.flushed_by_size": "share",
    "net.coalescer.flushed_by_deadline": "share",
    "net.coalescer.flushed_by_duplicate": "share",
    "net.server.reads_paused": "count",
    "net.server.responses_timed_out": "count",
    "net.server.acks_aborted": "count",
    "codec.encode_us_per_auth": "us",
    "codec.decode_us_per_auth": "us",
    "codec.calls_per_auth": "calls/auth",
    "facade.open_round_wire_us_per_auth": "us",
    "facade.verify_round_wire_us_per_auth": "us",
    "facade.authenticate_batch_us_per_auth": "us",
    "verifier.open_round_us_per_auth": "us",
    "verifier.verify_us_per_auth": "us",
    "verifier.finalize_us_per_auth": "us",
    "verifier.accepted_share": "share",
    "crypto.mac_verify_us_per_auth": "us",
    "protocols.confirm_mac_us_per_auth": "us",
    "protocols.derive_challenge_us_per_auth": "us",
    "registry.record_us_per_auth": "us",
    "registry.calls_per_auth": "calls/auth",
    "registry.roll_us_per_auth": "us",
    "sim.respond_us_per_auth": "us",
    "sim.respond_round_us_per_auth": "us",
    "sim.plane_evaluate_us_per_auth": "us",
    "sim.confirm_us_per_auth": "us",
    "sim.first_respond_ms": "ms",
    "net.client.self_us_per_auth": "us",
    "loadgen.busy_share": "share",
    "loadgen.late_p99_ms": "ms",
    "net.coalescer.wait_p50_ms": "ms",
    "phase.challenge_to_confirm_p50_ms": "ms",
    "setup.provision_s": "s",
    "setup.connect_s": "s",
    "setup.warm_s": "s",
    "trace.overhead_share": "share",
}


def _self_us(summary: Dict[str, dict], name: str, auths: int) -> float:
    return 1e6 * summary.get(name, {}).get("self", 0.0) / auths


def _calls(summary: Dict[str, dict], name: str) -> int:
    return summary.get(name, {}).get("calls", 0)


def verifier_plane(summary: Dict[str, dict], auths: int) -> Dict[str, float]:
    """Span-derived verifier-plane metrics from one process's summary."""
    codec_calls = sum(_calls(summary, name) for name in (
        "codec.encode", "codec.decode", "codec.encode.report",
        "codec.decode.report"))
    read = summary.get("stream.read_frame", {})
    return {
        "net.stream.frames_per_auth": (
            read.get("keys", 0) + _calls(summary, "stream.write_frame"))
        / auths,
        "net.stream.us_per_auth": _self_us(summary, "stream.read_frame", auths)
        + _self_us(summary, "stream.write_frame", auths),
        "codec.encode_us_per_auth": _self_us(summary, "codec.encode", auths),
        "codec.decode_us_per_auth": _self_us(summary, "codec.decode", auths),
        "codec.calls_per_auth": codec_calls / auths,
        "facade.open_round_wire_us_per_auth":
            _self_us(summary, "facade.open_round_wire", auths),
        # The REPORT frame is encoded by the facade and decoded straight
        # back by the server: that round trip is facade cost, not codec.
        "facade.verify_round_wire_us_per_auth":
            _self_us(summary, "facade.verify_round_wire", auths)
            + _self_us(summary, "codec.encode.report", auths)
            + _self_us(summary, "codec.decode.report", auths),
        "facade.authenticate_batch_us_per_auth":
            _self_us(summary, "facade.authenticate_batch", auths),
        "verifier.open_round_us_per_auth":
            _self_us(summary, "verifier.open_round", auths),
        "verifier.verify_us_per_auth":
            _self_us(summary, "verifier.verify", auths),
        "verifier.finalize_us_per_auth":
            _self_us(summary, "verifier.finalize", auths),
        "crypto.mac_verify_us_per_auth":
            _self_us(summary, "crypto.mac_verify", auths),
        "protocols.confirm_mac_us_per_auth":
            _self_us(summary, "protocols.confirm_mac", auths),
        "protocols.derive_challenge_us_per_auth":
            _self_us(summary, "protocols.derive_challenge", auths),
        "registry.record_us_per_auth":
            _self_us(summary, "registry.record", auths),
        "registry.roll_us_per_auth": _self_us(summary, "registry.roll", auths),
        "registry.calls_per_auth": (_calls(summary, "registry.record")
                                    + _calls(summary, "registry.roll"))
        / auths,
    }


def simulator(summary: Dict[str, dict], auths: int) -> Dict[str, float]:
    """Span-derived device-simulator metrics from one process's summary."""
    return {
        "sim.respond_us_per_auth": _self_us(summary, "sim.respond", auths),
        "sim.respond_round_us_per_auth":
            _self_us(summary, "sim.respond_round", auths),
        "sim.plane_evaluate_us_per_auth":
            _self_us(summary, "sim.plane_evaluate", auths),
        "sim.confirm_us_per_auth": _self_us(summary, "sim.confirm", auths),
    }
