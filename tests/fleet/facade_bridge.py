"""Shared legacy-tuple provisioning bridge for the fleet test modules.

The fleet tests predate the service redesign and are written against
the ``(registry, devices, verifier)`` tuple.  They must not call the
deprecated ``repro.fleet.provision_fleet`` shim (tier-1 runs with
``-W error::DeprecationWarning``), so this one adapter maps the old
call shape onto the supported facade for every test module in this
directory — the only place the mapping exists.
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
