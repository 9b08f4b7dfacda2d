"""Routing information bases.

Each speaker keeps one :class:`AdjRibIn` per peering session (the routes
that peer advertised) and one :class:`LocRib` (the selected best route
per (type, prefix) after the decision process). The G-RIB of the paper
is the Loc-RIB filtered to :attr:`RouteType.GROUP` with longest-match
lookup.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.addressing.trie import LpmTrie
from repro.bgp.routes import Route, RouteType
from repro.topology.domain import BorderRouter


def diff_type_entries(
    old: Dict[Tuple[RouteType, Prefix], Route],
    new: Dict[Tuple[RouteType, Prefix], Route],
    route_type: RouteType,
) -> List[Tuple[Prefix, str]]:
    """Content diff between two Loc-RIB snapshots for one route type.

    Returns ``(prefix, kind)`` pairs with kind one of ``"added"``,
    ``"withdrawn"`` or ``"changed"`` (the route object for the prefix
    differs — next hop, AS path, preference or provenance). This is
    the primitive behind the G-RIB delta stream that drives
    incremental BGMP tree maintenance; the pairs are sorted so delta
    consumers see a deterministic order.
    """
    deltas: List[Tuple[Prefix, str]] = []
    for key, route in old.items():
        kind, prefix = key
        if kind is not route_type:
            continue
        replacement = new.get(key)
        if replacement is None:
            deltas.append((prefix, "withdrawn"))
        elif replacement != route:
            deltas.append((prefix, "changed"))
    for key in new:
        kind, prefix = key
        if kind is not route_type:
            continue
        if key not in old:
            deltas.append((prefix, "added"))
    deltas.sort(key=lambda item: (item[0].network, item[0].length, item[1]))
    return deltas


def _canonical_order(routes: Iterable[Route]) -> List[Route]:
    """``routes`` sorted by (prefix, type value): the order every
    Loc-RIB listing and digest uses."""
    return sorted(
        routes,
        key=lambda r: (r.prefix.network, r.prefix.length, r.route_type.value),
    )


def _digest_line(route: Route) -> str:
    hop = route.next_hop
    hop_label = f"{hop.domain.domain_id}/{hop.name}" if hop else "-"
    return "|".join(
        (
            str(route.prefix),
            route.route_type.value,
            hop_label,
            ",".join(map(str, route.as_path)),
            str(route.local_pref),
            str(route.from_internal),
            str(route.learned_from),
        )
    )


def _encode_routes(routes: Iterable[Route]) -> bytes:
    """The ``rib_digest`` encoding of ``routes``: one line per route
    in the given order, concatenated without separators."""
    return "".join(map(_digest_line, routes)).encode()


class AdjRibIn:
    """Routes received from one peer, keyed by (type, prefix)."""

    def __init__(self, peer: BorderRouter):
        self.peer = peer
        self._routes: Dict[Tuple[RouteType, Prefix], Route] = {}

    def update(self, route: Route) -> None:
        """Install or replace the peer's route for its (type, prefix)."""
        self._routes[route.key()] = route

    def withdraw(self, route_type: RouteType, prefix: Prefix) -> bool:
        """Remove the peer's route; True if one was present."""
        return self._routes.pop((route_type, prefix), None) is not None

    def routes(self) -> List[Route]:
        """All routes from this peer."""
        return list(self._routes.values())

    def get(self, route_type: RouteType, prefix: Prefix) -> Optional[Route]:
        """The peer's route for (type, prefix), if any."""
        return self._routes.get((route_type, prefix))

    def __len__(self) -> int:
        return len(self._routes)

    def snapshot(self) -> Dict[Tuple[RouteType, Prefix], Route]:
        """A copy of the table (used by convergence checks)."""
        return dict(self._routes)


class LocRib:
    """Selected best routes, one per (type, prefix).

    Three derived views are cached until the next mutation
    (:meth:`install`, :meth:`remove`, a changed :meth:`replace` or
    :meth:`clear`): the per-type :class:`LpmTrie` longest-match
    indexes, the canonical :meth:`routes` order, and the
    :meth:`digest_lines` encoding. The steady state — many lookups and
    exports between decision rounds — pays for each once per change.
    Checkpoints carry the table alone; a restore starts cold.
    """

    def __init__(self) -> None:
        self._routes: Dict[Tuple[RouteType, Prefix], Route] = {}
        self._lpm: Dict[RouteType, LpmTrie] = {}
        self._ordered: Optional[List[Route]] = None
        self._digest: Optional[bytes] = None

    def __getstate__(self) -> Dict[str, object]:
        return {"_routes": self._routes}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._routes = state["_routes"]
        self._invalidate()

    def _invalidate(self) -> None:
        self._lpm = {}
        self._ordered = None
        self._digest = None

    def install(self, route: Route) -> None:
        """Install the winning route for its (type, prefix)."""
        self._routes[route.key()] = route
        self._invalidate()

    def remove(self, route_type: RouteType, prefix: Prefix) -> bool:
        """Drop the entry; True if one was present."""
        if self._routes.pop((route_type, prefix), None) is None:
            return False
        self._invalidate()
        return True

    def replace(self, routes: Dict[Tuple[RouteType, Prefix], Route]) -> bool:
        """Swap in a freshly-selected table; True when the contents
        changed (the comparison the decision process reports)."""
        return self.replace_capturing(routes) is not None

    def replace_capturing(
        self, routes: Dict[Tuple[RouteType, Prefix], Route]
    ) -> Optional[Dict[Tuple[RouteType, Prefix], Route]]:
        """Like :meth:`replace`, but returns the pre-replacement table
        when the contents changed (``None`` when unchanged).

        Because the swap installs a fresh dict, the old one can be
        handed back without copying — the zero-cost capture the G-RIB
        delta stream rides on: no snapshots on the (overwhelmingly
        common) unchanged recompute, no copy on the changed one. An
        unchanged recompute keeps the cached views too.
        """
        if routes == self._routes:
            return None
        old = self._routes
        self._routes = dict(routes)
        self._invalidate()
        return old

    def get(self, route_type: RouteType, prefix: Prefix) -> Optional[Route]:
        """Exact-prefix lookup."""
        return self._routes.get((route_type, prefix))

    def routes(self, route_type: Optional[RouteType] = None) -> List[Route]:
        """All routes, optionally filtered by type, in canonical
        (prefix, type) order — independent of insertion history.
        Always a fresh list the caller may mutate."""
        if route_type is None:
            return list(self._canonical())
        return [
            route
            for route in self._canonical()
            if route.route_type is route_type
        ]

    def _canonical(self) -> List[Route]:
        """The cached canonical route list (never handed out)."""
        if self._ordered is None:
            self._ordered = _canonical_order(self._routes.values())
        return self._ordered

    def group_routes(self) -> List[Route]:
        """The G-RIB: all group routes, sorted by prefix."""
        return self.routes(RouteType.GROUP)

    def lookup(self, route_type: RouteType, address: int) -> Optional[Route]:
        """Longest-prefix-match lookup for an address."""
        index = self._lpm.get(route_type)
        if index is None:
            index = LpmTrie()
            for (kind, prefix), route in self._routes.items():
                if kind is route_type:
                    index.insert(prefix, route)
            self._lpm[route_type] = index
        return index.lookup(address)

    def grib_lookup(self, group_address: int) -> Optional[Route]:
        """Longest-match group-route lookup — the operation BGMP
        performs to find the next hop towards a group's root domain."""
        return self.lookup(RouteType.GROUP, group_address)

    def __len__(self) -> int:
        return len(self._routes)

    def clear(self) -> None:
        """Drop everything (used when recomputing from scratch)."""
        self._routes.clear()
        self._invalidate()

    def digest_lines(self) -> bytes:
        """The table's ``rib_digest`` payload: :func:`_encode_routes`
        over the canonical order, cached until the next mutation."""
        if self._digest is None:
            self._digest = _encode_routes(self._canonical())
        return self._digest

    def digest_lines_uncached(self) -> bytes:
        """:meth:`digest_lines` rebuilt from the table, bypassing every
        cached view — the reference the cached path must match."""
        return _encode_routes(_canonical_order(self._routes.values()))

    def snapshot(self) -> Dict[Tuple[RouteType, Prefix], Route]:
        """A copy of the table (used by convergence checks)."""
        return dict(self._routes)

    def type_snapshot(
        self, route_type: RouteType
    ) -> Dict[Tuple[RouteType, Prefix], Route]:
        """A copy of just one type's entries.

        The G-RIB delta capture runs around every decision-process
        recompute, so it snapshots only the GROUP slice — a handful of
        group ranges instead of the full table — keeping capture cost
        negligible next to the recompute itself.
        """
        return {
            key: route
            for key, route in self._routes.items()
            if key[0] is route_type
        }
