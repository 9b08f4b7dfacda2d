"""Routing information bases.

Each speaker keeps one :class:`AdjRibIn` per peering session (the routes
that peer advertised) and one :class:`LocRib` (the selected best route
per (type, prefix) after the decision process). The G-RIB of the paper
is the Loc-RIB filtered to :attr:`RouteType.GROUP` with longest-match
lookup.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.addressing.trie import LpmTrie
from repro.bgp.routes import Route, RouteType
from repro.topology.domain import BorderRouter

#: The (type, prefix) pair every RIB table is keyed by.
RouteKey = Tuple[RouteType, Prefix]


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
        self._routes: Dict[RouteKey, Route] = {}

    def update(self, route: Route) -> None:
        """Install or replace the peer's route for its (type, prefix)."""
        self._routes[route.key()] = route

    def withdraw(self, route_type: RouteType, prefix: Prefix) -> bool:
        """Remove the peer's route; True if one was present."""
        return self._routes.pop((route_type, prefix), None) is not None

    def routes(self) -> List[Route]:
        """All routes from this peer."""
        return list(self._routes.values())

    def keys(self) -> List[RouteKey]:
        """The (type, prefix) keys the peer holds a route for."""
        return list(self._routes)

    def view(self) -> Mapping[RouteKey, Route]:
        """A read-only view of the table, keyed by (type, prefix)."""
        return MappingProxyType(self._routes)

    def get(self, route_type: RouteType, prefix: Prefix) -> Optional[Route]:
        """The peer's route for (type, prefix), if any."""
        return self._routes.get((route_type, prefix))

    def __len__(self) -> int:
        return len(self._routes)

    def snapshot(self) -> Dict[RouteKey, Route]:
        """A copy of the table (used by convergence checks)."""
        return dict(self._routes)


class LocRib:
    """Selected best routes, one per (type, prefix).

    The decision process edits the table one key at a time
    (:meth:`install`, :meth:`remove`). Three derived views are cached:
    the per-type :class:`LpmTrie` longest-match indexes, kept current
    in place by every edit, and the canonical :meth:`routes` order and
    :meth:`digest_lines` encoding, dropped by every edit and rebuilt on
    the next read. The steady state — many lookups and exports between
    decision rounds — pays for each once per change. Checkpoints carry
    the table alone; a restore starts cold.
    """

    def __init__(self) -> None:
        self._routes: Dict[RouteKey, Route] = {}
        self._lpm: Dict[RouteType, LpmTrie] = {}
        self._ordered: Optional[List[Route]] = None
        self._digest: Optional[bytes] = None

    def __getstate__(self) -> Dict[str, object]:
        return {"_routes": self._routes}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._routes = state["_routes"]
        self._drop_views()

    def _drop_views(self) -> None:
        self._lpm = {}
        self._ordered = None
        self._digest = None

    def install(self, route: Route) -> None:
        """Install the winning route for its (type, prefix)."""
        self._routes[route.key()] = route
        index = self._lpm.get(route.route_type)
        if index is not None:
            index.insert(route.prefix, route)
        self._ordered = None
        self._digest = None

    def remove(self, route_type: RouteType, prefix: Prefix) -> bool:
        """Drop the entry; True if one was present."""
        if self._routes.pop((route_type, prefix), None) is None:
            return False
        index = self._lpm.get(route_type)
        if index is not None:
            index.remove(prefix)
        self._ordered = None
        self._digest = None
        return True

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
        """Drop everything (a crashed router's volatile state)."""
        self._routes.clear()
        self._drop_views()

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

    def snapshot(self) -> Dict[RouteKey, Route]:
        """A copy of the table (used by convergence checks)."""
        return dict(self._routes)
