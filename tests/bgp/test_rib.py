"""Tests for Adj-RIB-In and Loc-RIB."""

import pickle

import pytest

from repro.addressing.ipv4 import parse_address
from repro.addressing.prefix import Prefix
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.routes import Route, RouteType
from repro.bgp.speaker import BgpSpeaker
from repro.checkpoint import roundtrip
from repro.topology.domain import Domain


P16 = Prefix.parse("224.0.0.0/16")
P24 = Prefix.parse("224.0.128.0/24")


def route(prefix, route_type=RouteType.GROUP, hop=None):
    return Route(prefix, route_type, hop)


class TestAdjRibIn:
    def test_update_replaces(self):
        domain = Domain(0, name="A")
        rib = AdjRibIn(domain.router("A1"))
        rib.update(route(P24))
        rib.update(route(P24))
        assert len(rib) == 1

    def test_withdraw(self):
        rib = AdjRibIn(Domain(0, name="A").router("A1"))
        rib.update(route(P24))
        assert rib.withdraw(RouteType.GROUP, P24)
        assert not rib.withdraw(RouteType.GROUP, P24)
        assert len(rib) == 0

    def test_get(self):
        rib = AdjRibIn(Domain(0, name="A").router("A1"))
        rib.update(route(P24))
        assert rib.get(RouteType.GROUP, P24) is not None
        assert rib.get(RouteType.UNICAST, P24) is None


class TestLocRib:
    def test_install_and_get(self):
        rib = LocRib()
        rib.install(route(P24))
        assert rib.get(RouteType.GROUP, P24) is not None
        assert len(rib) == 1

    def test_remove(self):
        rib = LocRib()
        rib.install(route(P24))
        assert rib.remove(RouteType.GROUP, P24)
        assert not rib.remove(RouteType.GROUP, P24)

    def test_group_routes_filtered_and_sorted(self):
        rib = LocRib()
        rib.install(route(P24))
        rib.install(route(P16))
        rib.install(route(P24, RouteType.UNICAST))
        groups = rib.group_routes()
        assert [r.prefix for r in groups] == [P16, P24]

    def test_longest_match(self):
        rib = LocRib()
        rib.install(route(P16))
        rib.install(route(P24))
        hit = rib.grib_lookup(parse_address("224.0.128.1"))
        assert hit.prefix == P24
        hit = rib.grib_lookup(parse_address("224.0.1.1"))
        assert hit.prefix == P16

    def test_lookup_miss(self):
        rib = LocRib()
        rib.install(route(P16))
        assert rib.grib_lookup(parse_address("230.0.0.1")) is None

    def test_lookup_respects_type(self):
        rib = LocRib()
        rib.install(route(P16, RouteType.UNICAST))
        assert rib.grib_lookup(parse_address("224.0.0.1")) is None
        assert rib.lookup(
            RouteType.UNICAST, parse_address("224.0.0.1")
        ) is not None

    def test_clear(self):
        rib = LocRib()
        rib.install(route(P16))
        rib.clear()
        assert len(rib) == 0


P8 = Prefix.parse("224.0.0.0/8")
#: Addresses under, between and outside the test prefixes.
PROBES = [
    parse_address(text)
    for text in ("224.0.128.1", "224.0.1.1", "224.9.0.1", "230.0.0.1")
]


def fresh_copy(rib):
    """A LocRib rebuilt from ``rib``'s table, with cold caches."""
    copy = LocRib()
    for item in rib.snapshot().values():
        copy.install(item)
    return copy


def assert_views_fresh(rib):
    """Every cached view equals the one a fresh rebuild computes."""
    fresh = fresh_copy(rib)
    assert rib.routes() == fresh.routes()
    for route_type in RouteType:
        assert rib.routes(route_type) == fresh.routes(route_type)
    for address in PROBES:
        assert rib.grib_lookup(address) == fresh.grib_lookup(address)
    assert rib.digest_lines() == fresh.digest_lines()
    assert rib.digest_lines() == rib.digest_lines_uncached()


def warmed(*routes):
    """A LocRib holding ``routes`` with every cached view built."""
    rib = LocRib()
    for item in routes:
        rib.install(item)
    assert_views_fresh(rib)
    return rib


class TestLocRibCaches:
    def test_install_invalidates(self):
        rib = warmed(route(P16))
        rib.install(route(P24))
        assert_views_fresh(rib)
        assert rib.grib_lookup(PROBES[0]).prefix == P24

    def test_install_replacement_invalidates(self):
        hop = Domain(1, name="B").router("B1")
        rib = warmed(route(P24))
        rib.install(route(P24, hop=hop))
        assert_views_fresh(rib)
        assert rib.grib_lookup(PROBES[0]).next_hop is hop

    def test_remove_invalidates(self):
        rib = warmed(route(P16), route(P24))
        assert rib.remove(RouteType.GROUP, P24)
        assert_views_fresh(rib)
        assert rib.grib_lookup(PROBES[0]).prefix == P16

    def test_per_key_edits_invalidate(self):
        rib = warmed(route(P16), route(P24, RouteType.UNICAST))
        rib.install(route(P8))
        rib.remove(RouteType.GROUP, P16)
        rib.remove(RouteType.UNICAST, P24)
        rib.install(route(P24))
        assert_views_fresh(rib)
        assert [r.prefix for r in rib.routes()] == [P8, P24]

    def test_index_follows_edits_in_place(self):
        rib = warmed(route(P16), route(P24))
        index = rib._lpm[RouteType.GROUP]
        rib.remove(RouteType.GROUP, P24)
        rib.install(route(P8))
        assert rib._lpm[RouteType.GROUP] is index
        assert_views_fresh(rib)
        assert rib.grib_lookup(PROBES[0]).prefix == P16
        assert rib.grib_lookup(PROBES[2]).prefix == P8

    def test_unchanged_recompute_keeps_views(self):
        home = Domain(0, name="H")
        peer = Domain(1, name="P").router("P1")
        speaker = BgpSpeaker(home.router("H1"))
        speaker.receive(peer, route(P16, hop=peer))
        speaker.receive(peer, route(P24, hop=peer))
        assert speaker.recompute()
        rib = speaker.loc_rib
        assert_views_fresh(rib)
        before = rib.digest_lines()
        speaker.receive(peer, route(P24, hop=peer))
        assert not speaker.recompute()
        assert rib.digest_lines() is before
        assert_views_fresh(rib)

    def test_clear_invalidates(self):
        rib = warmed(route(P16), route(P24))
        rib.clear()
        assert_views_fresh(rib)
        assert rib.routes() == []
        assert rib.grib_lookup(PROBES[0]) is None
        assert rib.digest_lines() == b""

    def test_caller_cannot_mutate_the_cache(self):
        rib = warmed(route(P16), route(P24))
        listing = rib.routes()
        listing.clear()
        rib.group_routes().append(route(P8))
        assert [r.prefix for r in rib.routes()] == [P16, P24]
        assert_views_fresh(rib)

    def test_restore_starts_cold_and_matches(self):
        rib = warmed(route(P16), route(P24), route(P24, RouteType.MRIB))
        restored = roundtrip(rib)
        assert restored.snapshot() == rib.snapshot()
        assert restored.digest_lines() == rib.digest_lines()
        assert_views_fresh(restored)
        restored.remove(RouteType.GROUP, P24)
        assert_views_fresh(restored)
        assert restored.digest_lines() != rib.digest_lines()


class TestRouteTypeIdentity:
    def test_values(self):
        assert RouteType.GROUP.value == "group"
        assert RouteType.UNICAST.value == "unicast"
        assert RouteType.MRIB.value == "mrib"

    def test_str_and_repr_unchanged(self):
        assert str(RouteType.GROUP) == "RouteType.GROUP"
        assert repr(RouteType.GROUP) == "<RouteType.GROUP: 'group'>"

    @pytest.mark.parametrize("member", list(RouteType))
    def test_restored_member_is_the_original(self, member):
        assert pickle.loads(pickle.dumps(member)) is member
        assert roundtrip({"type": member})["type"] is member
        assert RouteType(member.value) is member
