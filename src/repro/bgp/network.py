"""Network-wide BGP: sessions, propagation, convergence.

:class:`BgpNetwork` instantiates one speaker per border router, wires
external sessions along every inter-domain link and an iBGP full mesh
inside each domain, and drives synchronous update rounds until every
Loc-RIB is stable. Aggregation of covered customer group routes
(section 4.3.2 of the paper) is applied at the domain's external
border.

Two propagation engines share one round loop. The default
*incremental* engine is prefix-scoped: only speakers whose inputs
changed take part, each re-decides only the (type, prefix) keys its
inputs touched, and each exports only the keys whose Loc-RIB entry
changed, compared per key against what the session last carried. The
*full* engine (``incremental=False``) re-decides and exports every key
of every speaker each round, replacing a receiver's whole Adj-RIB-In
whenever a session's set changed — the oracle the scoped bookkeeping
is checked against. Both engines produce identical rounds, Loc-RIBs,
update counts, G-RIB deltas and trace fingerprints (see
``docs/ARCHITECTURE.md`` section 8 and
``tests/bgp/test_incremental_equivalence.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.addressing.prefix import Prefix
from repro.addressing.trie import LpmTrie
from repro.bgp.policy import (
    ExportPolicy,
    GaoRexfordPolicy,
    preference_for,
)
from repro.bgp.rib import LocRib, RouteKey
from repro.bgp.routes import Route, RouteType
from repro.bgp.speaker import BgpSpeaker
from repro.topology.domain import BorderRouter, Domain
from repro.topology.network import Topology
from repro.trace.tracer import NULL_TRACER


#: The shared record of a session that has carried nothing (most do:
#: export policy leaves many sessions empty). An empty record is never
#: mutated — the first route sent on such a session gets the session a
#: dict of its own — so sharing it is safe, across a checkpoint too.
_EMPTY_RECORD: Dict[RouteKey, Route] = {}


def _session_peers(router: BorderRouter) -> List[BorderRouter]:
    """The routers ``router`` has BGP sessions with: its external
    neighbours, then the other border routers of its domain."""
    return router.external_neighbors + router.internal_peers()


class ConvergenceError(Exception):
    """Raised when BGP fails to stabilise within the round budget."""

    def __init__(self, message: str, rounds: int = 0):
        super().__init__(message)
        #: Rounds spent before giving up.
        self.rounds = rounds


@dataclass(frozen=True)
class GribDelta:
    """One structured G-RIB change at one router.

    ``kind`` is ``"added"``, ``"withdrawn"`` or ``"changed"`` (the
    best route for the prefix was replaced — next hop, AS path or
    preference moved). Deltas come straight from the keys
    :meth:`~repro.bgp.speaker.BgpSpeaker.recompute` changed, so a
    re-decision that lands on the same route emits nothing, and both
    propagation engines emit the identical delta stream.
    """

    router: BorderRouter
    prefix: Prefix
    kind: str


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of a propagation run: did the Loc-RIBs reach a fixed
    point, and in how many rounds? ``converged=False`` means the run
    gave up at the round budget, *not* that it stopped at a fixed
    point — callers must treat the RIBs as possibly inconsistent."""

    converged: bool
    rounds: int

    def __bool__(self) -> bool:
        return self.converged


class BgpNetwork:
    """All BGP speakers of a topology plus the propagation engine."""

    def __init__(
        self,
        topology: Topology,
        policy: Optional[ExportPolicy] = None,
        aggregate: bool = True,
        incremental: bool = True,
    ):
        self.topology = topology
        self.policy = policy if policy is not None else GaoRexfordPolicy()
        self.aggregate = aggregate
        #: Engine selection: the incremental engine re-decides and
        #: exports only the keys that changed; the full engine walks
        #: every key of every speaker every round. Subclasses that
        #: mutate speaker state behind the network's back (e.g. the
        #: event-driven variant) must pass ``incremental=False``.
        self.incremental = incremental
        self.speakers: Dict[BorderRouter, BgpSpeaker] = {}
        #: Telemetry sink (assign a real Tracer to trace convergence).
        self.tracer = NULL_TRACER
        #: UPDATE messages sent across all sessions, network lifetime.
        #: An UPDATE is counted per directed session per round *only*
        #: when the advertisement set actually changed since the last
        #: send on that session (an empty set counts as "nothing ever
        #: sent"); unchanged sets are suppressed, exactly as a real
        #: speaker would not re-announce a stable table.
        self.updates_sent = 0
        #: Administratively/faulted-down sessions (router pairs) and
        #: crashed routers — maintained by the fault layer.
        self._down_sessions: Set[frozenset] = set()
        self._down_routers: Set[BorderRouter] = set()
        #: Speakers whose decision inputs changed since their last
        #: recompute, and speakers whose exports must be re-evaluated.
        self._dirty: Set[BgpSpeaker] = set()
        self._export_dirty: Set[BgpSpeaker] = set()
        #: Speakers whose aggregation filter changed (their domain's
        #: origins moved): their next export covers every key.
        self._full_export: Dict[BgpSpeaker, None] = {}
        #: What each directed session (sender router, receiver router)
        #: last carried, per key, in the receiver-side form of
        #: :meth:`_advertised`. No entry means the next export on the
        #: session is a full one (never sent, revived, crashed, or
        #: invalidated); a down session never has one.
        self._last_sent: Dict[
            Tuple[BorderRouter, BorderRouter], Dict[RouteKey, Route]
        ] = {}
        #: True while :meth:`try_converge` performs its own mutations;
        #: speaker hooks are ignored so the engine's bookkeeping is not
        #: polluted by the sends it issues itself.
        self._muted = False
        #: Per-domain cache of originated prefixes by type, and the
        #: network-wide longest-match index of GROUP origins; both are
        #: invalidated by :meth:`origins_changed`.
        self._own_prefix_cache: Dict[
            Domain, Dict[RouteType, List[Prefix]]
        ] = {}
        self._origin_index: Optional[LpmTrie] = None
        #: G-RIB delta subscribers (e.g. the incremental BGMP engine)
        #: and the deltas accumulated since the last flush. Capture is
        #: fully off — no snapshots, no diffs — until the first
        #: subscriber registers.
        self._grib_subscribers: List = []
        self._pending_grib_deltas: List[GribDelta] = []
        for router in topology.routers():
            self.speakers[router] = self._new_speaker(router)

    def _new_speaker(self, router: BorderRouter) -> BgpSpeaker:
        speaker = BgpSpeaker(router)
        speaker._listener = self
        self._dirty.add(speaker)
        self._export_dirty.add(speaker)
        return speaker

    # ------------------------------------------------------------------
    # Dirty-set bookkeeping (called by BgpSpeaker mutation hooks)

    def speaker_dirty(self, speaker: BgpSpeaker) -> None:
        """A speaker's decision inputs changed outside of convergence:
        it must recompute, and its exports must be re-evaluated."""
        if self._muted:
            return
        self._dirty.add(speaker)
        self._export_dirty.add(speaker)

    def session_changed(
        self, speaker: BgpSpeaker, peer: BorderRouter
    ) -> None:
        """The Adj-RIB-In ``speaker`` holds from ``peer`` changed
        outside of convergence: the session's last-sent record no
        longer says what the receiver holds, so ``peer`` re-exports it
        in full, and ``speaker`` must recompute."""
        if self._muted:
            return
        self._last_sent.pop((peer, speaker.router), None)
        peer_speaker = self.speakers.get(peer)
        if peer_speaker is not None:
            self._export_dirty.add(peer_speaker)
        self.speaker_dirty(speaker)

    def origins_changed(self, speaker: BgpSpeaker) -> None:
        """A speaker's origin set changed: the domain's own-prefix
        cache and the network-wide origin index are stale, and every
        speaker of the domain filters exports against the domain's
        origins (aggregation), so all of them must re-export every
        key."""
        domain = speaker.domain
        self._own_prefix_cache.pop(domain, None)
        self._origin_index = None
        for router in domain.routers.values():
            peer_speaker = self.speakers.get(router)
            if peer_speaker is not None:
                self._export_dirty.add(peer_speaker)
                self._full_export[peer_speaker] = None
        self._export_dirty.add(speaker)
        self._full_export[speaker] = None

    def invalidate(self) -> None:
        """Mark every key of every speaker dirty and drop every cache —
        the big hammer for callers that mutate the topology (new links
        or routers) after construction."""
        self._own_prefix_cache.clear()
        self._origin_index = None
        self._last_sent.clear()
        for speaker in self.speakers.values():
            speaker.mark_all_pending()
            self._dirty.add(speaker)
            self._export_dirty.add(speaker)
        # Delta subscribers cannot trust an incremental stream across a
        # topology mutation: tell them to treat everything as changed.
        self._pending_grib_deltas.clear()
        for subscriber in self._grib_subscribers:
            subscriber.grib_reset()

    # ------------------------------------------------------------------
    # G-RIB delta stream (consumed by the incremental BGMP engine)

    def subscribe_grib(self, subscriber) -> None:
        """Register a G-RIB delta consumer.

        A subscriber implements ``grib_deltas(deltas)`` — called with a
        batch of :class:`GribDelta` records at the end of every
        convergence run that changed any G-RIB — and ``grib_reset()``,
        called when the stream loses continuity (topology mutation) and
        the subscriber must fall back to treating all state as stale.
        """
        if subscriber not in self._grib_subscribers:
            self._grib_subscribers.append(subscriber)

    def captures_grib(self) -> bool:
        """Whether speakers should collect their G-RIB changes (only
        worth it when someone is listening)."""
        return bool(self._grib_subscribers)

    def grib_changed(
        self, speaker: BgpSpeaker, changes: List[Tuple[Prefix, str]]
    ) -> None:
        """Speaker hook: these ``(prefix, kind)`` G-RIB entries just
        changed. Unlike the dirty-set hooks this one stays live during
        convergence — the deltas produced *by* convergence are exactly
        the stream the subscribers want."""
        router = speaker.router
        self._pending_grib_deltas.extend(
            GribDelta(router, prefix, kind) for prefix, kind in changes
        )

    def flush_grib_deltas(self) -> int:
        """Deliver accumulated deltas to every subscriber; returns how
        many were delivered. Called automatically at the end of
        :meth:`try_converge`; consumers that mutate G-RIBs outside of
        convergence (tests, direct speaker pokes) may call it directly.
        """
        if not self._pending_grib_deltas:
            return 0
        deltas = self._pending_grib_deltas
        self._pending_grib_deltas = []
        for subscriber in self._grib_subscribers:
            subscriber.grib_deltas(deltas)
        return len(deltas)

    # ------------------------------------------------------------------
    # Origination

    def speaker(self, router: BorderRouter) -> BgpSpeaker:
        """The speaker for ``router`` (created lazily for routers added
        after construction)."""
        found = self.speakers.get(router)
        if found is None:
            found = self._new_speaker(router)
            self.speakers[router] = found
            # Existing neighbors must (re-)send to the newcomer.
            for peer in _session_peers(router):
                peer_speaker = self.speakers.get(peer)
                if peer_speaker is not None:
                    self._export_dirty.add(peer_speaker)
                    self._last_sent.pop((peer, router), None)
        return found

    def originate(
        self,
        router: BorderRouter,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> Route:
        """Originate a route at a specific border router."""
        return self.speaker(router).originate(prefix, route_type)

    def originate_from_domain(
        self,
        domain: Domain,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> Route:
        """Originate at the domain's first border router.

        Matches section 4.2: a MASC node sends its acquired range to the
        domain's border routers, which inject it into BGP; with iBGP
        redistribution the single injection point is equivalent.
        """
        return self.originate(domain.router(), prefix, route_type)

    def withdraw(
        self,
        router: BorderRouter,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> bool:
        """Withdraw a locally-originated route."""
        return self.speaker(router).withdraw_origin(prefix, route_type)

    def domain_origins(
        self, domain: Domain, route_type: RouteType = RouteType.GROUP
    ) -> List[Prefix]:
        """All prefixes of the given type originated inside ``domain``."""
        found: List[Prefix] = []
        for router in domain.routers.values():
            speaker = self.speakers.get(router)
            if speaker is None:
                continue
            for route in speaker.origins():
                if route.route_type is route_type:
                    found.append(route.prefix)
        return sorted(set(found))

    # ------------------------------------------------------------------
    # Session and router liveness (the fault layer's hooks)

    def router_up(self, router: BorderRouter) -> bool:
        """True unless the router has been crashed by the fault layer."""
        return router not in self._down_routers

    def session_up(self, a: BorderRouter, b: BorderRouter) -> bool:
        """True when the a-b session can carry updates: both endpoints
        up and the session itself not administratively down."""
        down_routers = self._down_routers
        if down_routers and (a in down_routers or b in down_routers):
            return False
        down_sessions = self._down_sessions
        return not down_sessions or frozenset((a, b)) not in down_sessions

    def set_session_state(
        self, a: BorderRouter, b: BorderRouter, up: bool
    ) -> None:
        """Bring a session down or back up.

        Going down immediately withdraws everything either side learned
        from the other (BGP's session-loss semantics); coming back up
        re-advertises on the next :meth:`converge`: with no last-sent
        record left, each side exports its full set on the session.
        """
        key = frozenset((a, b))
        if up:
            if key not in self._down_sessions:
                return
            self._down_sessions.discard(key)
            # Both ends must re-send their full sets on revival.
            self._forget_session(a, b)
            for router in (a, b):
                speaker = self.speaker(router)
                self._dirty.add(speaker)
                self._export_dirty.add(speaker)
            return
        if key in self._down_sessions:
            return
        self._down_sessions.add(key)
        self.speaker(a).drop_session(b)
        self.speaker(b).drop_session(a)
        self._forget_session(a, b)

    def _forget_session(self, a: BorderRouter, b: BorderRouter) -> None:
        """Drop the last-sent cache for both directions of a session —
        whatever crossed it before the state transition no longer
        reflects what the other side holds."""
        self._last_sent.pop((a, b), None)
        self._last_sent.pop((b, a), None)

    def fail_router(self, router: BorderRouter) -> None:
        """Crash a border router: every peer withdraws the routes it
        learned from it, and the router's own volatile state is lost
        (origins survive — they model configuration)."""
        if router in self._down_routers:
            return
        self._down_routers.add(router)
        for peer in _session_peers(router):
            peer_speaker = self.speakers.get(peer)
            if peer_speaker is not None:
                peer_speaker.drop_session(router)
            self._forget_session(router, peer)
        self.speaker(router).reset()

    def restore_router(self, router: BorderRouter) -> None:
        """Restart a crashed router; the next :meth:`converge` rebuilds
        its sessions and re-announces its origins."""
        if router not in self._down_routers:
            return
        self._down_routers.discard(router)
        speaker = self.speaker(router)
        self._dirty.add(speaker)
        self._export_dirty.add(speaker)
        # Neighbors must re-send everything the crash wiped out.
        for peer in _session_peers(router):
            peer_speaker = self.speakers.get(peer)
            if peer_speaker is not None:
                self._export_dirty.add(peer_speaker)

    def down_routers(self) -> List[BorderRouter]:
        """Currently crashed routers (sorted for determinism)."""
        return sorted(
            self._down_routers, key=lambda r: (r.domain.domain_id, r.name)
        )

    # ------------------------------------------------------------------
    # Propagation

    def converge(self, max_rounds: int = 200) -> int:
        """Run synchronous update rounds to a fixed point.

        Returns the number of rounds used; raises
        :class:`ConvergenceError` when ``max_rounds`` rounds pass
        without stabilising. Callers that must distinguish the two
        outcomes without an exception use :meth:`try_converge`.
        """
        result = self.try_converge(max_rounds)
        if not result.converged:
            raise ConvergenceError(
                f"BGP did not converge within {max_rounds} rounds",
                rounds=result.rounds,
            )
        return result.rounds

    def try_converge(self, max_rounds: int = 200) -> ConvergenceResult:
        """Run synchronous update rounds, reporting rather than raising
        on a budget overrun.

        Each round: the exporting speakers deliver their changes on
        every live session (see :meth:`_export`; a session whose
        advertisements did not change sends nothing and is not counted
        in :attr:`updates_sent`), then the speakers that received an
        UPDATE rerun the decision process. Crashed routers and down
        sessions carry nothing — their routes were withdrawn when the
        fault hit.

        The incremental engine seeds the exporter set from the dirty
        sets fed by speaker mutation hooks and thereafter from the
        speakers whose Loc-RIBs changed in the previous round; each
        re-decides and exports only the keys that changed. The full
        engine re-decides and exports every key of every speaker every
        round. A key whose inputs did not change re-decides to the same
        route and exports the same advertisement, so both engines walk
        the same sequence of delivered updates, changed Loc-RIBs, and
        rounds.
        """
        ordered = [
            self.speakers[r]
            for r in self._ordered_routers()
            if self.router_up(r)
        ]
        rank = {speaker: index for index, speaker in enumerate(ordered)}
        incremental = self.incremental
        tracer = self.tracer
        self._muted = True
        try:
            with tracer.span(
                "bgp.converge", layer="bgp", speakers=len(ordered)
            ) as span:
                if incremental:
                    exporters = [
                        s for s in ordered if s in self._export_dirty
                    ]
                    self._export_dirty.difference_update(exporters)
                    for speaker in exporters:
                        if speaker in self._dirty:
                            speaker.recompute()
                            self._dirty.discard(speaker)
                else:
                    for speaker in ordered:
                        speaker.mark_all_pending()
                        speaker.recompute()
                    exporters = ordered
                for round_index in range(1, max_rounds + 1):
                    receivers: Set[BgpSpeaker] = set()
                    round_updates = sum(
                        self._export(speaker, receivers)
                        for speaker in exporters
                    )
                    self.updates_sent += round_updates
                    if incremental:
                        recompute = sorted(receivers, key=rank.__getitem__)
                    else:
                        recompute = ordered
                        for speaker in ordered:
                            speaker.mark_all_pending()
                    changed = [
                        speaker
                        for speaker in recompute
                        if speaker.recompute()
                    ]
                    if tracer.enabled:
                        span.event(
                            "round",
                            index=round_index,
                            updates=round_updates,
                            changed=bool(changed),
                        )
                    if not changed:
                        span.finish(
                            status="converged", rounds=round_index
                        )
                        return ConvergenceResult(True, round_index)
                    exporters = changed if incremental else ordered
                if incremental:
                    # Budget exhausted mid-flight: remember who still
                    # has unexported changes so the next attempt
                    # resumes instead of silently dropping them.
                    self._export_dirty.update(exporters)
                span.finish(status="budget-exhausted", rounds=max_rounds)
                return ConvergenceResult(False, max_rounds)
        finally:
            self._muted = False
            self.flush_grib_deltas()

    def _ordered_routers(self) -> List[BorderRouter]:
        ordered: List[BorderRouter] = []
        for domain in self.topology.domains:
            ordered.extend(
                domain.routers[name] for name in sorted(domain.routers)
            )
        # Include speakers for routers created after construction.
        known = set(ordered)
        ordered.extend(r for r in self.speakers if r not in known)
        return ordered

    def _export(
        self, speaker: BgpSpeaker, receivers: Set[BgpSpeaker]
    ) -> int:
        """Deliver ``speaker``'s changes on each of its live sessions;
        returns the UPDATE count and adds each receiver to
        ``receivers``.

        A session with a last-sent record gets the keys whose Loc-RIB
        entry changed, compared per key against the record. A session
        without one, every session of the full engine and every session
        of a speaker whose aggregation filter changed get the full
        set, replacing the receiver's whole Adj-RIB-In when it differs
        from the record (no record ≡ nothing sent: an empty set is never
        worth an UPDATE).
        """
        sender = speaker.router
        keys = list(speaker.take_changed())
        everything = not self.incremental
        if speaker in self._full_export:
            del self._full_export[speaker]
            everything = True
        loc_rib = speaker.loc_rib
        changed = [
            route
            for route in (loc_rib.get(*key) for key in keys)
            if route is not None
        ]
        last_sent = self._last_sent
        updates = 0
        for peer in _session_peers(sender):
            session = (sender, peer)
            last = last_sent.get(session)
            receiver = self.speakers[peer]
            if last is not None and not everything:
                # A session with a record is up: a down one has none.
                if not keys:
                    continue
                current = self._advertised(speaker, peer, changed)
                announced: List[Route] = []
                withdrawn: List[RouteKey] = []
                for key in keys:
                    route = current.get(key)
                    before = last.get(key)
                    if route is None:
                        if before is not None:
                            withdrawn.append(key)
                    elif before is None or before != route:
                        announced.append(route)
                if not announced and not withdrawn:
                    continue
                if not last:
                    last = last_sent[session] = {}
                for key in withdrawn:
                    del last[key]
                for route in announced:
                    last[route.key()] = route
                receiver.update(sender, announced, withdrawn)
            else:
                if not self.session_up(sender, peer):
                    continue
                sent = self._advertised(speaker, peer, loc_rib.routes())
                if sent == (last or _EMPTY_RECORD):
                    if last is None and not receiver.holds_routes_from(
                        sender
                    ):
                        last_sent[session] = _EMPTY_RECORD
                    continue
                last_sent[session] = sent
                receiver.replace_session_routes(sender, sent.values())
            receivers.add(receiver)
            updates += 1
        return updates

    def _advertised(
        self, speaker: BgpSpeaker, peer: BorderRouter, routes: Iterable[Route]
    ) -> Dict[RouteKey, Route]:
        """What ``peer`` holds from ``speaker`` for the given Loc-RIB
        entries, keyed by (type, prefix): export policy and aggregation
        applied, then the receiver-side form — an external route
        carries the receiver's local_pref and learned_from for its
        relationship to the sending domain (customer routes preferred).
        Filtered routes are absent."""
        sender = speaker.router
        domain = speaker.domain
        advertised: Dict[RouteKey, Route] = {}
        if peer.domain == domain:
            for route in routes:
                if not route.from_internal:
                    advertised[route.key()] = route.advertised_by(
                        sender, internal=True
                    )
            return advertised
        relationship = domain.relationship_to(peer.domain)
        learned_from = peer.domain.relationship_to(domain)
        preference = preference_for(learned_from)
        multicast_ok = self.topology.multicast_capable(sender, peer)
        own_prefixes = (
            self._own_prefixes_by_type(domain) if self.aggregate else None
        )
        allows = self.policy.allows
        for route in routes:
            # Unicast-only links carry no multicast routing state:
            # group and M-RIB routes detour around them, making the
            # multicast topology incongruent with the unicast one
            # (sections 2-3 of the paper).
            if not multicast_ok and route.route_type in (
                RouteType.GROUP,
                RouteType.MRIB,
            ):
                continue
            if not allows(domain, route, route.learned_from, relationship):
                continue
            if own_prefixes and self._covered_by_own(
                domain, route, own_prefixes
            ):
                continue
            advertised[route.key()] = route.advertised_by(
                sender, preference, learned_from=learned_from
            )
        return advertised

    def _own_prefixes_by_type(
        self, domain: Domain
    ) -> Dict[RouteType, List[Prefix]]:
        found = self._own_prefix_cache.get(domain)
        if found is None:
            found = {}
            for router in domain.routers.values():
                speaker = self.speakers.get(router)
                if speaker is None:
                    continue
                for route in speaker.origins():
                    found.setdefault(
                        route.route_type, []
                    ).append(route.prefix)
            self._own_prefix_cache[domain] = found
        return found

    def _covered_by_own(
        self,
        domain: Domain,
        route: Route,
        own_prefixes: Dict[RouteType, List[Prefix]],
    ) -> bool:
        """True when a learned route is subsumed by one of the domain's
        own originated prefixes, so the aggregate makes propagating the
        specific unnecessary (section 4.3.2)."""
        if route.is_local_origin:
            return False
        for prefix in own_prefixes.get(route.route_type, ()):
            if prefix != route.prefix and prefix.contains(route.prefix):
                return True
        return False

    # ------------------------------------------------------------------
    # Queries

    def grib_of(self, router: BorderRouter) -> List[Route]:
        """The G-RIB at a router."""
        return self.speaker(router).grib_routes()

    def grib_size(self, router: BorderRouter) -> int:
        """Number of group routes at a router."""
        return self.speaker(router).grib_size()

    def group_next_hop(
        self, router: BorderRouter, group_address: int
    ) -> Optional[Route]:
        """The router's best group route covering ``group_address``."""
        return self.speaker(router).next_hop_for_group(group_address)

    def root_domain_of(self, group_address: int) -> Optional[Domain]:
        """The domain originating the most specific group route covering
        the address, network-wide (the group's root domain).

        Served from a lazily-built longest-match index over every
        speaker's GROUP origins, invalidated whenever any origin set
        changes. First origination wins for a prefix claimed by
        several speakers, matching the strictly-longer comparison the
        index replaced (distinct equal-length prefixes never both
        cover one address).
        """
        index = self._origin_index
        if index is None:
            index = LpmTrie()
            for speaker in self.speakers.values():
                for route in speaker.origins():
                    if route.route_type is not RouteType.GROUP:
                        continue
                    if route.prefix not in index:
                        index.insert(route.prefix, speaker.domain)
            self._origin_index = index
        return index.lookup(group_address)

    # ------------------------------------------------------------------
    # Fingerprints

    def rib_digest(self) -> str:
        """SHA-256 over every live Loc-RIB in canonical order — the
        fingerprint the equivalence tests compare across engines.

        Each Loc-RIB caches its encoded lines until its next mutation,
        so a digest re-encodes only the tables that changed since the
        last one; :meth:`rib_digest_uncached` is the reference path.
        """
        return self._rib_digest(LocRib.digest_lines)

    def rib_digest_uncached(self) -> str:
        """The digest rebuilt from every table, bypassing the Loc-RIB
        caches — the reference the cached path must always match."""
        return self._rib_digest(LocRib.digest_lines_uncached)

    def _rib_digest(self, encode: Callable[[LocRib], bytes]) -> str:
        digest = hashlib.sha256()
        for router in self._ordered_routers():
            digest.update(
                f"@{router.domain.domain_id}/{router.name}".encode()
            )
            digest.update(encode(self.speakers[router].loc_rib))
        return digest.hexdigest()
