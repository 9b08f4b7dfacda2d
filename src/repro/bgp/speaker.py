"""The per-router BGP speaker.

Each border router runs one speaker. A speaker holds locally-originated
routes, one Adj-RIB-In per peering session (external sessions over the
router's inter-domain links plus an iBGP full mesh with the other
border routers of its domain), and a Loc-RIB computed by the standard
decision process.

The decision process is prefix-scoped: every input change (an origin,
an Adj-RIB-In write, a dropped session) records the (type, prefix) keys
it touched, and :meth:`BgpSpeaker.recompute` re-selects only those.
The keys whose Loc-RIB entry changed are recorded in turn, so the
network exports only them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.bgp.policy import preference_for
from repro.bgp.rib import AdjRibIn, LocRib, RouteKey
from repro.bgp.routes import Route, RouteType
from repro.topology.domain import BorderRouter


def _delta_order(item: Tuple[Prefix, str]) -> Tuple[int, int, str]:
    return (item[0].network, item[0].length, item[1])


class BgpSpeaker:
    """BGP state and decision process for one border router."""

    def __init__(self, router: BorderRouter):
        self.router = router
        self.loc_rib = LocRib()
        self._origins: Dict[RouteKey, Route] = {}
        self._adj_in: Dict[BorderRouter, AdjRibIn] = {}
        #: Keys whose decision inputs changed since the last
        #: :meth:`recompute`, and keys whose Loc-RIB entry changed
        #: since the last :meth:`take_changed`. Insertion-ordered dicts
        #: used as sets, so every walk over them is deterministic.
        self._pending: Dict[RouteKey, None] = {}
        self._changed: Dict[RouteKey, None] = {}
        #: Change listener (set by :class:`~repro.bgp.network.BgpNetwork`
        #: to drive its dirty sets): an object with ``speaker_dirty``,
        #: ``session_changed``, ``origins_changed``, ``captures_grib``
        #: and ``grib_changed`` methods. ``None`` for standalone
        #: speakers.
        self._listener = None

    def _mark_dirty(self) -> None:
        if self._listener is not None:
            self._listener.speaker_dirty(self)

    def _mark_origins_changed(self) -> None:
        if self._listener is not None:
            self._listener.origins_changed(self)

    def _captures_grib(self) -> bool:
        """True when the listener wants the G-RIB changes of every
        recompute (the delta stream); only then are they collected."""
        listener = self._listener
        return listener is not None and listener.captures_grib()

    @property
    def domain(self):
        """The speaker's domain."""
        return self.router.domain

    # ------------------------------------------------------------------
    # Sessions

    def holds_routes_from(self, peer: BorderRouter) -> bool:
        """True when the Adj-RIB-In for ``peer`` is not empty."""
        rib = self._adj_in.get(peer)
        return rib is not None and len(rib) > 0

    def update(
        self,
        peer: BorderRouter,
        announced: Iterable[Route] = (),
        withdrawn: Iterable[RouteKey] = (),
    ) -> None:
        """Apply one UPDATE from ``peer`` to its Adj-RIB-In.

        The only way routes enter or leave an Adj-RIB-In: every key it
        touches goes pending for the next :meth:`recompute`. An
        external route whose AS path already holds this domain is
        dropped by loop prevention, which withdraws whatever the peer
        held for its key.
        """
        rib = self._adj_in.get(peer)
        if rib is None:
            rib = self._adj_in[peer] = AdjRibIn(peer)
        pending = self._pending
        domain_id = self.router.domain.domain_id
        for route in announced:
            key = route.key()
            if not route.from_internal and route.has_loop(domain_id):
                rib.withdraw(*key)
            else:
                rib.update(route)
            pending[key] = None
        for key in withdrawn:
            rib.withdraw(*key)
            pending[key] = None
        if self._listener is not None:
            self._listener.session_changed(self, peer)

    def receive(self, peer: BorderRouter, route: Route) -> None:
        """Install one route into the peer's Adj-RIB-In."""
        self.update(peer, (route,))

    def replace_session_routes(
        self, peer: BorderRouter, routes: Iterable[Route]
    ) -> None:
        """Wholesale replacement of a session's advertised set.

        Models the steady-state effect of UPDATE messages including
        implicit withdrawals: whatever the peer no longer advertises
        disappears.
        """
        routes = list(routes)
        rib = self._adj_in.get(peer)
        stale: List[RouteKey] = []
        if rib is not None:
            kept = {route.key() for route in routes}
            stale = [key for key in rib.keys() if key not in kept]
        self.update(peer, routes, stale)

    def drop_session(self, peer: BorderRouter) -> bool:
        """Tear down the session with ``peer``: every route learned
        from it is withdrawn (the Adj-RIB-In vanishes). True when a
        session existed."""
        rib = self._adj_in.pop(peer, None)
        if rib is None:
            return False
        self._pending.update(dict.fromkeys(rib.keys()))
        if self._listener is not None:
            self._listener.session_changed(self, peer)
        return True

    def reset(self) -> None:
        """Crash recovery model: volatile state (Adj-RIB-Ins, Loc-RIB)
        is lost; configuration (locally-originated routes) survives and
        is re-announced on the next decision round. Every Loc-RIB key
        counts as changed and every origin as pending."""
        lost = self.loc_rib.routes()
        if lost and self._captures_grib():
            self._listener.grib_changed(
                self,
                [
                    (route.prefix, "withdrawn")
                    for route in lost
                    if route.route_type is RouteType.GROUP
                ],
            )
        self._changed.update(dict.fromkeys(route.key() for route in lost))
        self._pending.update(dict.fromkeys(self._origins))
        peers = list(self._adj_in)
        self._adj_in.clear()
        self.loc_rib.clear()
        if self._listener is not None:
            for peer in peers:
                self._listener.session_changed(self, peer)
        self._mark_dirty()

    # ------------------------------------------------------------------
    # Origination

    def originate(
        self, prefix: Prefix, route_type: RouteType = RouteType.GROUP
    ) -> Route:
        """Inject a locally-originated route (e.g. a MASC claim)."""
        route = Route(
            prefix,
            route_type,
            next_hop=None,
            as_path=(),
            local_pref=preference_for("origin"),
        )
        self._origins[route.key()] = route
        self._pending[route.key()] = None
        self._mark_dirty()
        self._mark_origins_changed()
        return route

    def withdraw_origin(
        self, prefix: Prefix, route_type: RouteType = RouteType.GROUP
    ) -> bool:
        """Stop originating a route; True if it was originated here."""
        key = (route_type, prefix)
        if self._origins.pop(key, None) is None:
            return False
        self._pending[key] = None
        self._mark_dirty()
        self._mark_origins_changed()
        return True

    def origins(self) -> List[Route]:
        """All locally-originated routes."""
        return list(self._origins.values())

    # ------------------------------------------------------------------
    # Decision process

    def mark_all_pending(self) -> None:
        """Make the next :meth:`recompute` re-select every key the
        speaker knows of — the full engine's per-round re-decision."""
        pending = self._pending
        pending.update(dict.fromkeys(self.loc_rib.snapshot()))
        pending.update(dict.fromkeys(self._origins))
        for rib in self._adj_in.values():
            pending.update(dict.fromkeys(rib.keys()))

    def take_changed(self) -> Dict[RouteKey, None]:
        """The keys whose Loc-RIB entry changed since the last call
        (the export work list), clearing the record."""
        changed = self._changed
        self._changed = {}
        return changed

    def recompute(self) -> bool:
        """Run the decision process over the pending keys; True if the
        Loc-RIB changed.

        Selection per (type, prefix): local origin first, then highest
        local_pref, shortest AS path, eBGP over iBGP, and finally the
        lowest (domain id, router name) of the advertising router for a
        deterministic tie-break. G-RIB changes go to the listener in
        (prefix, kind) order.
        """
        pending = self._pending
        if not pending:
            return False
        self._pending = {}
        loc_rib = self.loc_rib
        origins = self._origins
        tables = [rib.view() for rib in self._adj_in.values()]
        rank = self._rank
        changed = self._changed
        grib: Optional[List[Tuple[Prefix, str]]] = (
            [] if self._captures_grib() else None
        )
        any_change = False
        for key in pending:
            best = origins.get(key)
            if best is None:
                best_rank = None
                for table in tables:
                    route = table.get(key)
                    if route is not None:
                        route_rank = rank(route)
                        if best_rank is None or route_rank < best_rank:
                            best, best_rank = route, route_rank
            old = loc_rib.get(*key)
            if best is None:
                if old is None:
                    continue
                loc_rib.remove(*key)
                kind = "withdrawn"
            elif old is None:
                loc_rib.install(best)
                kind = "added"
            elif old == best:
                continue
            else:
                loc_rib.install(best)
                kind = "changed"
            any_change = True
            changed[key] = None
            if grib is not None and key[0] is RouteType.GROUP:
                grib.append((key[1], kind))
        if grib:
            grib.sort(key=_delta_order)
            self._listener.grib_changed(self, grib)
        return any_change

    def _rank(self, route: Route) -> Tuple:
        if route.is_local_origin:
            return (0,)
        hop = route.next_hop
        return (
            1,
            -route.local_pref,
            len(route.as_path),
            1 if route.from_internal else 0,
            hop.domain.domain_id,
            hop.name,
        )

    # ------------------------------------------------------------------
    # Convenience lookups

    def grib_routes(self) -> List[Route]:
        """This router's G-RIB (best group routes, sorted by prefix)."""
        return self.loc_rib.group_routes()

    def grib_size(self) -> int:
        """Number of group routes in the Loc-RIB."""
        return len(self.loc_rib.group_routes())

    def next_hop_for_group(self, group_address: int) -> Optional[Route]:
        """Longest-match G-RIB lookup for a group address."""
        return self.loc_rib.grib_lookup(group_address)

    def __repr__(self) -> str:
        return f"BgpSpeaker({self.router.name})"
