"""Tests for routes and path attributes."""

from repro.addressing.prefix import Prefix
from repro.bgp.routes import Route, RouteType
from repro.topology.domain import Domain


P16 = Prefix.parse("224.0.0.0/16")
P24 = Prefix.parse("224.0.128.0/24")


def origin_route(prefix=P24):
    return Route(prefix, RouteType.GROUP, next_hop=None)


class TestRoute:
    def test_local_origin(self):
        route = origin_route()
        assert route.is_local_origin
        assert route.origin_domain_id is None
        assert route.as_path == ()

    def test_key(self):
        route = origin_route()
        assert route.key() == (RouteType.GROUP, P24)

    def test_external_advertisement_prepends_as_path(self):
        b = Domain(1, name="B")
        b1 = b.router("B1")
        advertised = origin_route().advertised_by(b1)
        assert advertised.as_path == (1,)
        assert advertised.next_hop is b1
        assert not advertised.from_internal

    def test_external_advertisement_takes_receiver_attributes(self):
        b1 = Domain(1, name="B").router("B1")
        advertised = origin_route().advertised_by(
            b1, 300, learned_from="customer"
        )
        assert advertised.local_pref == 300
        assert advertised.learned_from == "customer"
        assert origin_route().advertised_by(b1).learned_from == "origin"

    def test_key_is_shared_between_routes_of_one_prefix(self):
        advertised = origin_route().advertised_by(Domain(1).router("R"))
        assert advertised.key() is origin_route().key()
        assert origin_route().key() is not origin_route(P16).key()

    def test_chained_advertisement(self):
        b = Domain(1, name="B")
        a = Domain(0, name="A")
        hop1 = origin_route().advertised_by(b.router("B1"))
        hop2 = hop1.advertised_by(a.router("A4"))
        assert hop2.as_path == (0, 1)
        assert hop2.origin_domain_id == 1

    def test_internal_advertisement_keeps_as_path(self):
        a = Domain(0, name="A")
        external = origin_route().advertised_by(
            Domain(1, name="B").router("B1")
        )
        external.learned_from = "customer"
        internal = external.advertised_by(a.router("A3"), internal=True)
        assert internal.as_path == (1,)
        assert internal.from_internal
        assert internal.next_hop.name == "A3"
        assert internal.learned_from == "customer"
        assert internal.local_pref == external.local_pref

    def test_loop_detection(self):
        route = origin_route().advertised_by(Domain(1, name="B").router("B1"))
        assert route.has_loop(1)
        assert not route.has_loop(2)

    def test_equality_and_hash(self):
        a = origin_route()
        b = origin_route()
        assert a == b
        assert hash(a) == hash(b)
        assert a != origin_route(P16)

    def test_route_types_distinct(self):
        group = Route(P24, RouteType.GROUP, None)
        unicast = Route(P24, RouteType.UNICAST, None)
        assert group != unicast
        assert group.key() != unicast.key()
