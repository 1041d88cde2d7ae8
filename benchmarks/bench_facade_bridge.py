"""Shared legacy-tuple provisioning bridge for the benchmark modules.

Same role as ``tests/fleet/facade_bridge.py`` (distinct module name —
both directories land on ``sys.path`` during one pytest run): the
throughput benchmarks compare stacked/per-die paths through the
old ``(registry, devices, verifier)`` tuple without calling the
deprecated ``repro.fleet.provision_fleet`` shim.
"""

from repro.service import AuthService, EngineConfig, FleetConfig


def provision_fleet(n_devices, seed=0, n_spot_crps=0, stacked=True,
                    backend="numpy", **puf):
    """Legacy-tuple provisioning through the supported facade."""
    service = AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, n_spot_crps=n_spot_crps,
        engine=EngineConfig(stacked=stacked, backend=backend),
        puf=puf))
    return service.registry, service.device_list, service.verifier
