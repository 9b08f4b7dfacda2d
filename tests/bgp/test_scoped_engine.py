"""The prefix-scoped convergence engine against the full-engine oracle.

The incremental engine re-decides only the (type, prefix) keys whose
inputs changed and exports only the keys whose Loc-RIB entry changed;
the full engine (``incremental=False``) re-decides and exports every
key every round. Driven through the same seeded mix of originations,
withdrawals, session flaps, router crashes, direct Adj-RIB-In writes,
``invalidate()`` calls and round-budgeted converges, the two must agree
on every converge's outcome, the UPDATE count, every Loc-RIB and the
G-RIB delta stream — and a checkpoint taken mid-flight must continue
exactly as the original does.
"""

import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork
from repro.bgp.routes import Route, RouteType
from repro.bgp.speaker import BgpSpeaker
from repro.checkpoint import roundtrip
from repro.topology.domain import Domain
from repro.topology.generators import (
    as_graph,
    paper_figure3_topology,
    transit_stub,
)

#: Overlapping ranges, so aggregation filters and longest-match
#: lookups take part; two unicast prefixes for the other RIB view.
POOL = [
    (Prefix.parse(text), route_type)
    for text, route_type in (
        ("224.0.0.0/16", RouteType.GROUP),
        ("224.0.16.0/20", RouteType.GROUP),
        ("224.0.32.0/20", RouteType.GROUP),
        ("224.1.0.0/16", RouteType.GROUP),
        ("224.1.64.0/20", RouteType.GROUP),
        ("10.0.0.0/8", RouteType.UNICAST),
        ("10.1.0.0/16", RouteType.UNICAST),
    )
]


class DeltaRecorder:
    """A G-RIB subscriber keeping every batch in delivery order."""

    def __init__(self):
        self.batches = []

    def grib_deltas(self, deltas):
        self.batches.append(
            [
                (d.router.domain.domain_id, d.router.name, str(d.prefix),
                 d.kind)
                for d in deltas
            ]
        )

    def grib_reset(self):
        self.batches.append("reset")


def _network(build, seed, incremental):
    network = BgpNetwork(build(random.Random(seed)), incremental=incremental)
    recorder = DeltaRecorder()
    network.subscribe_grib(recorder)
    return network, recorder


def _small_as_graph(rng):
    return as_graph(rng, node_count=18)


def _small_transit_stub(rng):
    return transit_stub(rng, transit_count=3, stubs_per_transit=3)


def _draw_ops(seed, topology, count):
    """A seeded operation list over router/link indices, so the same
    list replays on two independently built topologies."""
    rng = random.Random(1000 + seed)
    routers = topology.routers()
    links = topology.links
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25:
            ops.append(("originate", rng.randrange(len(routers)),
                        rng.randrange(len(POOL))))
        elif roll < 0.40:
            ops.append(("withdraw", rng.randrange(len(routers)),
                        rng.randrange(len(POOL))))
        elif roll < 0.52:
            ops.append(("flap", rng.randrange(len(links))))
        elif roll < 0.62:
            ops.append(("crash", rng.randrange(len(routers))))
        elif roll < 0.72:
            ops.append(("receive", rng.randrange(len(routers)),
                        rng.randrange(len(POOL)), rng.randrange(1 << 16)))
        elif roll < 0.76:
            ops.append(("invalidate",))
        elif roll < 0.88:
            ops.append(("converge",))
        else:
            ops.append(("step",))
    ops.append(("converge",))
    return ops


def _apply(network, op):
    """Run one operation; returns the observable outcome of a converge
    (per call) or None."""
    routers = network.topology.routers()
    kind = op[0]
    if kind == "originate":
        prefix, route_type = POOL[op[2]]
        network.originate(routers[op[1]], prefix, route_type)
    elif kind == "withdraw":
        prefix, route_type = POOL[op[2]]
        network.withdraw(routers[op[1]], prefix, route_type)
    elif kind == "flap":
        a, b = network.topology.links[op[1]]
        network.set_session_state(a, b, up=not network.session_up(a, b))
    elif kind == "crash":
        router = routers[op[1]]
        if network.router_up(router):
            network.fail_router(router)
        else:
            network.restore_router(router)
    elif kind == "receive":
        router = routers[op[1]]
        if not router.external_neighbors:
            return None
        draw = random.Random(op[3])
        peer = draw.choice(router.external_neighbors)
        prefix, route_type = POOL[op[2]]
        path = (peer.domain.domain_id,) + tuple(
            draw.randrange(len(network.topology.domains))
            for _ in range(draw.randrange(3))
        )
        network.speaker(router).receive(
            peer,
            Route(prefix, route_type, peer, path,
                  local_pref=draw.choice((100, 200, 300)),
                  learned_from=draw.choice(("customer", "peer",
                                            "provider"))),
        )
    elif kind == "invalidate":
        network.invalidate()
    elif kind == "converge":
        return [_outcome(network, network.try_converge())]
    elif kind == "step":
        outcomes = []
        for _ in range(200):
            result = network.try_converge(max_rounds=1)
            outcomes.append(_outcome(network, result))
            if result.converged:
                break
        return outcomes
    return None


def _outcome(network, result):
    digest = network.rib_digest()
    assert digest == network.rib_digest_uncached()
    return (result.converged, result.rounds, network.updates_sent, digest)


def _run_pair(build, seed, count=60):
    scoped, scoped_deltas = _network(build, seed, incremental=True)
    full, full_deltas = _network(build, seed, incremental=False)
    ops = _draw_ops(seed, scoped.topology, count)
    for index, op in enumerate(ops):
        got = _apply(scoped, op)
        want = _apply(full, op)
        assert got == want, f"seed {seed} op {index} {op}"
        assert scoped_deltas.batches == full_deltas.batches, (
            f"seed {seed} op {index} {op}: G-RIB deltas diverged"
        )
    return scoped, full


class TestScopedMatchesFull:
    @pytest.mark.parametrize("seed", range(6))
    def test_as_graph_random_operations(self, seed):
        scoped, full = _run_pair(_small_as_graph, seed)
        assert scoped.updates_sent > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_transit_stub_random_operations(self, seed):
        _run_pair(_small_transit_stub, seed)

    def test_operations_exercise_every_kind(self):
        topology = _small_as_graph(random.Random(0))
        kinds = {op[0] for op in _draw_ops(0, topology, 60)}
        assert kinds == {"originate", "withdraw", "flap", "crash",
                         "receive", "invalidate", "converge", "step"}


def _from_scratch(network, build, seed):
    """A fresh network on the same topology, given ``network``'s current
    origins, down sessions and crashed routers, converged once."""
    fresh = BgpNetwork(build(random.Random(seed)))
    index = dict(zip(network.topology.routers(), fresh.topology.routers()))
    for router, twin in index.items():
        for route in network.speaker(router).origins():
            fresh.originate(twin, route.prefix, route.route_type)
    for a, b in network.topology.links:
        if not network.session_up(a, b) and network.router_up(a) \
                and network.router_up(b):
            fresh.set_session_state(index[a], index[b], up=False)
    for router in network.down_routers():
        fresh.fail_router(index[router])
    assert fresh.try_converge().converged
    return fresh


class TestHistoryIndependence:
    """Both engines share the session records, so a record kept where
    it should have been dropped fools them alike. The converged state
    must not depend on the path taken to it: a network rebuilt from
    scratch in the final configuration lands on the same Loc-RIBs."""

    @pytest.mark.parametrize("build", [_small_as_graph, _small_transit_stub])
    @pytest.mark.parametrize("seed", range(4))
    def test_converged_state_matches_a_fresh_network(self, build, seed):
        network, _ = _network(build, seed, incremental=True)
        ops = [
            op for op in _draw_ops(seed, network.topology, 60)
            if op[0] not in ("receive", "invalidate")
        ]
        for op in ops:
            _apply(network, op)
        assert network.try_converge().converged
        fresh = _from_scratch(network, build, seed)
        assert network.rib_digest() == fresh.rib_digest()


class TestBudgetExhaustedCheckpoint:
    def test_restored_copy_continues_identically(self):
        network, recorder = _network(_small_as_graph, 3, incremental=True)
        for domain in network.topology.domains[:6]:
            network.originate_from_domain(
                domain, POOL[domain.domain_id % 5][0]
            )
        first = network.try_converge(max_rounds=1)
        assert not first.converged
        restored = roundtrip(network)
        restored_recorder = restored._grib_subscribers[0]
        assert restored.rib_digest() == network.rib_digest()
        trails = []
        for engine, deltas in ((network, recorder),
                               (restored, restored_recorder)):
            steps = []
            while True:
                result = engine.try_converge(max_rounds=1)
                steps.append(_outcome(engine, result))
                if result.converged:
                    break
            trails.append((steps, deltas.batches[1:]))
        assert trails[0] == trails[1]
        assert len(trails[0][0]) > 1


class TestSpeakerBookkeeping:
    def _speaker(self):
        home = Domain(0, name="H")
        peer = Domain(1, name="P").router("P1")
        return BgpSpeaker(home.router("H1")), peer

    def test_recompute_reselects_only_touched_keys(self):
        speaker, peer = self._speaker()
        first, second = POOL[0][0], POOL[3][0]
        speaker.receive(peer, Route(first, RouteType.GROUP, peer, (1,)))
        speaker.receive(peer, Route(second, RouteType.GROUP, peer, (1,)))
        assert speaker.recompute()
        assert list(speaker.take_changed()) == [
            (RouteType.GROUP, first), (RouteType.GROUP, second)
        ]
        speaker.update(peer, withdrawn=[(RouteType.GROUP, second)])
        assert speaker.recompute()
        assert list(speaker.take_changed()) == [(RouteType.GROUP, second)]
        assert not speaker.recompute()
        assert speaker.take_changed() == {}

    def test_looped_announcement_withdraws_the_key(self):
        speaker, peer = self._speaker()
        prefix = POOL[0][0]
        speaker.receive(peer, Route(prefix, RouteType.GROUP, peer, (1,)))
        speaker.recompute()
        speaker.receive(peer, Route(prefix, RouteType.GROUP, peer, (1, 0)))
        assert speaker.recompute()
        assert speaker.loc_rib.get(RouteType.GROUP, prefix) is None
        assert not speaker.holds_routes_from(peer)

    def test_drop_session_and_reset_touch_every_key(self):
        speaker, peer = self._speaker()
        speaker.originate(POOL[1][0])
        speaker.receive(peer, Route(POOL[0][0], RouteType.GROUP, peer, (1,)))
        speaker.recompute()
        speaker.take_changed()
        assert speaker.drop_session(peer)
        assert speaker.recompute()
        assert list(speaker.take_changed()) == [(RouteType.GROUP, POOL[0][0])]
        speaker.reset()
        assert len(speaker.loc_rib) == 0
        assert list(speaker.take_changed()) == [(RouteType.GROUP, POOL[1][0])]
        assert speaker.recompute()
        assert speaker.loc_rib.get(RouteType.GROUP, POOL[1][0]) is not None

    def test_direct_write_forces_a_full_resend(self):
        network = BgpNetwork(paper_figure3_topology())
        network.originate_from_domain(
            network.topology.domain("A"), POOL[0][0]
        )
        network.converge()
        f1 = network.topology.domain("F").routers["F1"]
        peer = f1.external_neighbors[0]
        assert (peer, f1) in network._last_sent
        stray = Route(POOL[4][0], RouteType.GROUP, peer,
                      (peer.domain.domain_id,))
        network.speaker(f1).receive(peer, stray)
        assert (peer, f1) not in network._last_sent
        network.converge()
        # The sender's full set replaced the stray route.
        assert network.speaker(f1).loc_rib.get(
            RouteType.GROUP, POOL[4][0]
        ) is None


class TestScopedFaults:
    def test_crash_touches_only_the_routers_sessions(self):
        network = BgpNetwork(paper_figure3_topology())
        network.originate_from_domain(
            network.topology.domain("A"), POOL[0][0]
        )
        network.converge()
        router = network.topology.domain("B").routers["B2"]
        kept = {
            key: sent for key, sent in network._last_sent.items()
            if router not in key
        }
        network.fail_router(router)
        assert network._last_sent == kept
        peers = set(router.external_neighbors) | set(router.internal_peers())
        dirty = {speaker.router for speaker in network._dirty}
        assert dirty <= peers | {router}
        assert router in dirty
