"""A plane-attached device measures its own turn as one row of its plane.

``FleetDevice.respond`` and ``spot_responses`` on an attached device run
through the stacked plane compiled at provisioning, never through a
per-die ``CompiledMesh``.  The plane is bit-compatible with per-die
interrogation, so an identically provisioned fleet with the plane
detached must produce the same messages, confirmations, spot bits and
measurement counters; and the plane's one-row path must do the same
Python work whatever the fleet size.
"""

import numpy as np

from repro.photonics.engine import CompiledMesh
from repro.puf import photonic_strong_family
from repro.puf.base import NOMINAL_ENV
from repro.puf.photonic_strong import PhotonicStrongPUF
from repro.service import AuthService, FleetConfig

CFG = dict(challenge_bits=32, n_stages=3, response_bits=16)
N = 6
TAMPERED = {(1, 2)}     # (round, device index) turns run with tamper 1.5


def _service() -> AuthService:
    return AuthService.provision(
        FleetConfig(n_devices=N, seed=77, n_spot_crps=12, puf=CFG))


def _drive(service: AuthService) -> list:
    """Three rounds of single-device respond -> confirm turns, then one
    spot re-measurement per device; returns everything observable."""
    verifier = service.verifier
    observed = []
    for turn in range(3):
        for index, device in enumerate(service.device_list):
            device_id = device.device_id
            nonces = verifier.open_round([device_id])
            tamper = 1.5 if (turn, index) in TAMPERED else 1.0
            message = device.respond(nonces[device_id], tamper_factor=tamper)
            report = verifier.verify_round([message], nonces)
            observed.append((message.body, message.tag,
                             dict(report.failure_kinds)))
            if device_id in report.confirmations:
                device.confirm(report.confirmations[device_id],
                               nonces[device_id])
                verifier.finalize(device_id)
    for device in service.device_list:
        record = service.registry.record(device.device_id)
        observed.append(device.spot_responses(record.crp_challenges[:4])
                        .tobytes())
    observed.append([device.puf._measurement_counter
                     for device in service.device_list])
    return observed


class TestAttachedTurns:
    def test_plane_turns_match_detached_turns(self, monkeypatch):
        attached = _service()
        detached = _service()
        for device in detached.device_list:
            device.detach_plane()

        with monkeypatch.context() as patch:
            def no_compile(*args, **kwargs):
                raise AssertionError("attached device compiled a die")
            patch.setattr(CompiledMesh, "compile", no_compile)
            attached_observed = _drive(attached)
        detached_observed = _drive(detached)

        assert attached_observed == detached_observed
        # The tampered turn really ran and was refused on both sides.
        assert any(kinds for __, __, kinds in attached_observed[:3 * N])
        for device in attached.device_list:
            assert device.plane is not None
            assert device.puf.engine_cache_size() == 0
        assert all(device.puf.engine_cache_size() == 1
                   for device in detached.device_list)


class TestOneRowCost:
    @staticmethod
    def _optical_env_calls(n_dies: int, monkeypatch) -> int:
        plane = photonic_strong_family(n_dies, seed=5, **CFG).stack()
        challenge = np.zeros((1, 1, CFG["challenge_bits"]), dtype=np.uint8)
        plane.evaluate(challenge, dies=[n_dies - 1])     # compile once
        calls = []
        original = PhotonicStrongPUF._optical_env

        def counted(self, env):
            calls.append(self.die_index)
            return original(self, env)

        with monkeypatch.context() as patch:
            patch.setattr(PhotonicStrongPUF, "_optical_env", counted)
            plane.evaluate(challenge, dies=[n_dies - 1])
        return len(calls)

    def test_one_row_work_is_independent_of_fleet_size(self, monkeypatch):
        assert (self._optical_env_calls(8, monkeypatch)
                == self._optical_env_calls(64, monkeypatch))

    def test_fleet_cache_counts_operating_points(self):
        plane = photonic_strong_family(4, seed=5, **CFG).stack()
        challenges = np.zeros((4, 1, CFG["challenge_bits"]), dtype=np.uint8)
        hot = NOMINAL_ENV.with_temperature(55.0)
        plane.evaluate(challenges)
        plane.evaluate(challenges, env=[NOMINAL_ENV] * 4)
        assert plane.fleet_cache_size() == 1
        plane.evaluate(challenges, env=hot)
        plane.evaluate(challenges, env=[hot] * 4)
        assert plane.fleet_cache_size() == 2
        plane.evaluate(challenges, env=[NOMINAL_ENV, hot, hot, hot])
        assert plane.fleet_cache_size() == 3
