"""Routes and path attributes.

A :class:`Route` binds an address prefix to the attributes BGP uses to
select and propagate it. The ``route_type`` realises the multiprotocol
extension the paper relies on (section 2): ``UNICAST`` routes form the
ordinary RIB, ``MRIB`` routes the multicast-topology view used for RPF
checks, and ``GROUP`` routes — injected by MASC — form the G-RIB that
BGMP consults to find a group's root domain.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.topology.domain import BorderRouter


class RouteType(str, Enum):
    """Logical routing-table view a route belongs to.

    The ``str`` mix-in gives members the C-level ``str`` hash and
    equality — they key every (type, prefix) RIB table. ``.value``,
    ``str()``, ``repr()`` and pickling are those of a plain Enum.
    """

    UNICAST = "unicast"
    MRIB = "mrib"
    GROUP = "group"


#: One shared (type, prefix) tuple per key. Every RIB table, session
#: record and work list is keyed by route keys, so sharing the tuples
#: saves one per entry.
_KEYS: Dict[Tuple[RouteType, Prefix], Tuple[RouteType, Prefix]] = {}


class Route:
    """An immutable BGP route.

    ``next_hop`` is the border router to forward towards to reach the
    destination (for group routes: towards the root domain).
    ``as_path`` is the sequence of domain ids the advertisement has
    traversed, most recent first. ``local_pref`` ranks routes by the
    business relationship they were learned over (customer routes are
    preferred, per standard practice).
    """

    __slots__ = (
        "prefix",
        "route_type",
        "next_hop",
        "as_path",
        "local_pref",
        "from_internal",
        "learned_from",
        "_key",
    )

    def __init__(
        self,
        prefix: Prefix,
        route_type: RouteType,
        next_hop: Optional[BorderRouter],
        as_path: Tuple[int, ...] = (),
        local_pref: int = 100,
        from_internal: bool = False,
        learned_from: str = "origin",
    ):
        self.prefix = prefix
        self.route_type = route_type
        self.next_hop = next_hop
        self.as_path = tuple(as_path)
        self.local_pref = local_pref
        self.from_internal = from_internal
        #: Relationship of the owning domain to the domain this route was
        #: learned from ("origin" for locally-originated routes). Kept
        #: across iBGP redistribution so export policy can be applied at
        #: every border router of the domain.
        self.learned_from = learned_from
        key = (route_type, prefix)
        self._key = _KEYS.setdefault(key, key)

    @property
    def origin_domain_id(self) -> Optional[int]:
        """Domain id of the route's originator (last AS-path element)."""
        return self.as_path[-1] if self.as_path else None

    @property
    def is_local_origin(self) -> bool:
        """True for routes originated by this speaker's own domain."""
        return self.next_hop is None

    def key(self) -> Tuple[RouteType, Prefix]:
        """The (type, prefix) pair routes are selected per."""
        return self._key

    def advertised_by(
        self,
        router: BorderRouter,
        local_pref: int = 100,
        internal: bool = False,
        learned_from: str = "origin",
    ) -> "Route":
        """The route as received by a neighbour of ``router``.

        External advertisement prepends the advertiser's domain to the
        AS path, rewrites the next hop to the advertising router and
        takes the receiver's ``local_pref`` and ``learned_from`` (its
        relationship to the advertiser); internal (iBGP) redistribution
        keeps the AS path and attributes and points the next hop at the
        exit router.
        """
        if internal:
            return Route(
                self.prefix,
                self.route_type,
                router,
                self.as_path,
                local_pref=self.local_pref,
                from_internal=True,
                learned_from=self.learned_from,
            )
        return Route(
            self.prefix,
            self.route_type,
            router,
            (router.domain.domain_id,) + self.as_path,
            local_pref=local_pref,
            from_internal=False,
            learned_from=learned_from,
        )

    def has_loop(self, domain_id: int) -> bool:
        """True if ``domain_id`` already appears in the AS path."""
        return domain_id in self.as_path

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Route):
            return NotImplemented
        # Tuple comparison tries identity before __eq__ per attribute,
        # and prefixes and routers are mostly the very same objects.
        return (
            self.prefix,
            self.route_type,
            self.next_hop,
            self.as_path,
            self.local_pref,
            self.from_internal,
            self.learned_from,
        ) == (
            other.prefix,
            other.route_type,
            other.next_hop,
            other.as_path,
            other.local_pref,
            other.from_internal,
            other.learned_from,
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.prefix,
                self.route_type,
                self.next_hop,
                self.as_path,
                self.local_pref,
                self.from_internal,
                self.learned_from,
            )
        )

    def __repr__(self) -> str:
        hop = self.next_hop.name if self.next_hop else "local"
        return (
            f"Route({self.prefix} [{self.route_type.value}] via {hop} "
            f"path={list(self.as_path)} pref={self.local_pref})"
        )
