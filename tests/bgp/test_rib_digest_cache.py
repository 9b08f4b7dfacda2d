"""The cached Loc-RIB digest must always match the reference.

``BgpNetwork.rib_digest`` serializes each Loc-RIB through its cached
encoded lines, rebuilt only after a mutation; ``rib_digest_uncached``
re-sorts and re-encodes every table from scratch. A mutation path that
forgot to drop the cache — a changed recompute, a router reset, a
session teardown — would make the two diverge, so this suite drives
every BGP mutation source the workloads use (membership churn, root
/20 flaps, router crashes and restores) over several seeds and checks
the differential after each step, including on checkpoint-restored
copies.
"""

import random

import pytest

from repro.bgmp.network import BgmpNetwork
from repro.bgp.network import BgpNetwork
from repro.checkpoint import roundtrip
from repro.experiments.churn import (
    COVERING_RANGE,
    ChurnConfig,
    build_churn_schedule,
    build_churn_topology,
    group_prefix,
)
from repro.experiments.internet import static_migp_selector

CONFIG = ChurnConfig(
    domains=40,
    group_domains=5,
    groups_per_domain=4,
    initial_members=2,
    churn_per_flap=25,
    flaps=2,
    maintain_every=5,
)


def _build_network(seed: int, auto_unicast: bool = True) -> tuple:
    """The churn world; without ``auto_unicast`` the Loc-RIBs hold
    group routes only (the benchmark's shape), which keeps the
    per-event uncached reference cheap."""
    topology = build_churn_topology(seed, CONFIG.domains)
    network = BgmpNetwork(
        topology,
        bgp=BgpNetwork(topology, incremental=True),
        migp_selector=static_migp_selector,
        auto_unicast=auto_unicast,
    )
    network.originate_group_range(topology.domains[0], COVERING_RANGE)
    for domain in topology.domains[1 : 1 + CONFIG.group_domains]:
        network.originate_group_range(
            domain, group_prefix(domain.domain_id)
        )
    network.converge()
    return topology, network


def _check(network: BgmpNetwork) -> str:
    cached = network.bgp.rib_digest()
    assert cached == network.bgp.rib_digest_uncached()
    return cached


def _flap(network: BgmpNetwork, domain) -> None:
    prefix = group_prefix(domain.domain_id)
    network.bgp.withdraw(domain.router(), prefix)
    network.converge()
    network.repair_trees()
    _check(network)
    network.originate_group_range(domain, prefix)
    network.converge()
    network.repair_trees()


def _fault(network: BgmpNetwork, router) -> None:
    network.bgp.fail_router(router)
    _check(network)
    network.converge()
    network.repair_trees()
    _check(network)
    network.bgp.restore_router(router)
    network.converge()
    network.repair_trees()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_digest_matches_reference_through_churn_flaps_and_faults(seed):
    topology, network = _build_network(seed, auto_unicast=False)
    schedule = build_churn_schedule(CONFIG, seed=seed)
    rng = random.Random(seed)
    _check(network)
    for event in schedule:
        kind = event[0]
        if kind == "join":
            _kind, domain_index, group, host = event
            network.join(
                topology.domains[domain_index].host(host), group
            )
        elif kind == "leave":
            _kind, domain_index, group, host = event
            network.leave(
                topology.domains[domain_index].host(host), group
            )
        elif kind == "send":
            _kind, domain_index, group = event
            network.send(
                topology.domains[domain_index].host("src"), group
            )
        elif kind == "repair":
            network.repair_trees()
        else:
            _kind, domain_index = event
            _flap(network, topology.domains[domain_index])
            _check(network)
            victim = topology.domains[
                rng.randrange(1, CONFIG.domains)
            ].router()
            _fault(network, victim)
        _check(network)


def test_session_flap_invalidates_both_ends():
    topology, network = _build_network(0)
    before = _check(network)
    router = topology.domains[0].router()
    peer = sorted(
        router.external_neighbors,
        key=lambda r: (r.domain.domain_id, r.name),
    )[0]
    network.bgp.set_session_state(router, peer, up=False)
    _check(network)
    network.converge()
    assert _check(network) != before
    network.bgp.set_session_state(router, peer, up=True)
    network.converge()
    assert _check(network) == before


@pytest.mark.parametrize("seed", [0, 3])
def test_restored_ribs_never_serve_stale_lines(seed):
    topology, network = _build_network(seed)
    original = _check(network)
    # The checkpoint carries each table alone, never its cached views.
    for speaker in network.bgp.speakers.values():
        assert set(speaker.loc_rib.__getstate__()) == {"_routes"}
    restored = roundtrip(network)
    assert _check(restored) == original
    # Drive both copies through the same flap and fault; the restored
    # caches must track the restored tables exactly as the originals do.
    for net in (network, restored):
        domains = net.topology.domains
        _flap(net, domains[1])
        _fault(net, domains[CONFIG.domains // 2].router())
    assert _check(restored) == _check(network)
    assert _check(restored) == original
