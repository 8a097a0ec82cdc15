"""Shared builders for the submission-spec test suite."""

import numpy as np

from repro.daemon import MiddlewareDaemon
from repro.daemon.cloud import CloudGateway
from repro.federation import FederatedSite, FederationBroker, SiteRegistry
from repro.qpu import QPUDevice, Register, ShotClock
from repro.qrmi import OnPremQPUResource
from repro.sdk import AnalogCircuit
from repro.simkernel import RngRegistry, Simulator


def make_program(n_atoms=3, shots=50, name="spec-prog"):
    return (
        AnalogCircuit(Register.chain(n_atoms, spacing=6.0), name=name)
        .rx_global(np.pi / 2, duration=0.3)
        .measure_all()
        .transpile(shots=shots)
    )


def make_daemon(sim, rng, key, shot_rate=10.0):
    device = QPUDevice(
        clock=ShotClock(
            shot_rate_hz=shot_rate, setup_overhead_s=0.0, batch_overhead_s=0.0
        ),
        rng=rng.get(key),
    )
    return MiddlewareDaemon(
        sim,
        {"onprem": OnPremQPUResource("onprem", device)},
        scrape_interval=120.0,
    )


def build_federation(n_sites=2, seed=0, max_queue_depth=4, housekeeping=15.0, max_attempts=3):
    """N single-QPU sites on one shared clock, wired into a broker."""
    sim = Simulator()
    rng = RngRegistry(seed)
    registry = SiteRegistry(heartbeat_expiry=60.0)
    sites = {}
    for i in range(n_sites):
        daemon = make_daemon(sim, rng, f"dev{i}")
        site = FederatedSite(f"site-{i}", daemon, max_queue_depth=max_queue_depth)
        registry.register(site, now=0.0)
        sites[site.name] = site
    registry.start_heartbeats(sim, interval=15.0)
    broker = FederationBroker(sim, registry, max_attempts=max_attempts)
    if housekeeping:
        broker.spawn_housekeeping(interval=housekeeping)
    return sim, registry, broker, sites


def build_three_backends(seed=0):
    """One clock, three doors: a local daemon, a 2-site federation, and
    a cloud gateway over its own daemon.  Returns
    (sim, daemon, broker, gateway, api_key)."""
    sim = Simulator()
    rng = RngRegistry(seed)
    local = make_daemon(sim, rng, "local")
    registry = SiteRegistry(heartbeat_expiry=60.0)
    for i in range(2):
        site = FederatedSite(
            f"site-{i}", make_daemon(sim, rng, f"fed{i}"), max_queue_depth=4
        )
        registry.register(site, now=0.0)
    registry.start_heartbeats(sim, interval=15.0)
    broker = FederationBroker(sim, registry)
    broker.spawn_housekeeping(interval=15.0)
    gateway_daemon = make_daemon(sim, rng, "cloud")
    gateway = CloudGateway(gateway_daemon)
    api_key = gateway.provision_tenant("acme", shot_quota=1_000_000)
    return sim, local, broker, gateway, api_key
