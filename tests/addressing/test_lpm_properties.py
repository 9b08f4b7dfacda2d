"""Property tests: LpmTrie against a brute-force reference map.

The incremental BGMP engine leans on three ``LpmTrie`` operations —
``insert``/``remove`` churn as groups register, ``lookup`` for
longest-match root-domain resolution, and the reverse-dependency query
``covered`` that turns a G-RIB delta into a dirty set. Each is checked
here against an oracle that keeps a plain ``{Prefix: value}`` dict and
answers every query by exhaustive scan, over both hypothesis-generated
and seeded-random operation sequences.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.addressing.ipv4 import mask_bits
from repro.addressing.prefix import Prefix
from repro.addressing.trie import LpmTrie


def make_prefix(network: int, length: int) -> Prefix:
    """A valid prefix from arbitrary bits (mask off host bits)."""
    return Prefix(network & mask_bits(length) & 0xFFFFFFFF, length)


#: Confined to a /4-ish neighbourhood so generated prefixes overlap
#: often (covering aggregates over more specifics — the interesting
#: case), with a sprinkle of full-range ones.
prefixes = st.builds(
    make_prefix,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
)
dense_prefixes = st.builds(
    make_prefix,
    st.integers(min_value=0xE0000000, max_value=0xE000FFFF),
    st.integers(min_value=4, max_value=32),
)
any_prefix = st.one_of(dense_prefixes, prefixes)


class Oracle:
    """The brute-force reference: a dict plus exhaustive scans."""

    def __init__(self) -> None:
        self.entries = {}

    def insert(self, prefix, value):
        self.entries[prefix] = value

    def remove(self, prefix):
        return self.entries.pop(prefix, None) is not None

    def get(self, prefix):
        return self.entries.get(prefix)

    def lookup(self, address):
        best = None
        for prefix, value in self.entries.items():
            if prefix.contains_address(address):
                if best is None or prefix.length > best[0].length:
                    best = (prefix, value)
        return None if best is None else best[1]

    def covered(self, query):
        found = [
            (prefix, value)
            for prefix, value in self.entries.items()
            if query.contains(prefix)
        ]
        found.sort(key=lambda item: (item[0].network, item[0].length))
        return found

    def items(self):
        found = sorted(
            self.entries.items(),
            key=lambda item: (item[0].network, item[0].length),
        )
        return found


def probe_addresses(prefixes_seen):
    """Addresses worth probing: each prefix's first/last address plus
    neighbours just outside."""
    out = set()
    for prefix in prefixes_seen:
        span = prefix.size
        out.add(prefix.network)
        out.add(prefix.network + span - 1)
        out.add((prefix.network - 1) & 0xFFFFFFFF)
        out.add((prefix.network + span) & 0xFFFFFFFF)
    return sorted(out)


class TestInsertLookupProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(any_prefix, max_size=30))
    def test_inserts_match_reference(self, items):
        trie, oracle = LpmTrie(), Oracle()
        for value, prefix in enumerate(items):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        assert len(trie) == len(oracle.entries)
        assert trie.items() == oracle.items()
        for prefix in items:
            assert (prefix in trie) is (prefix in oracle.entries)
            assert trie.get(prefix) == oracle.get(prefix)
        for address in probe_addresses(items):
            assert trie.lookup(address) == oracle.lookup(address)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(any_prefix, max_size=24),
        st.lists(any_prefix, max_size=24),
    )
    def test_removes_match_reference(self, inserts, removes):
        trie, oracle = LpmTrie(), Oracle()
        for value, prefix in enumerate(inserts):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        for prefix in removes + inserts[::2]:
            assert trie.remove(prefix) is oracle.remove(prefix)
        assert len(trie) == len(oracle.entries)
        assert trie.items() == oracle.items()
        for address in probe_addresses(inserts + removes):
            assert trie.lookup(address) == oracle.lookup(address)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(any_prefix, max_size=24), any_prefix)
    def test_covered_matches_reference(self, items, query):
        trie, oracle = LpmTrie(), Oracle()
        for value, prefix in enumerate(items):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        assert trie.covered(query) == oracle.covered(query)
        # The engine's own query shape: /32 registrations under a
        # covering range.
        for prefix, _value in oracle.covered(query):
            assert query.contains(prefix)


class TestSeededChurn:
    def test_random_churn_against_reference(self):
        """Long seeded insert/remove/lookup/covered interleavings —
        exercises lengths emptying and refilling under heavy churn,
        which short hypothesis examples rarely reach."""
        for seed in range(5):
            rng = random.Random(seed)
            trie, oracle = LpmTrie(), Oracle()
            pool = [
                make_prefix(
                    rng.randrange(0xE0000000, 0xE0100000),
                    rng.choice((4, 8, 12, 16, 20, 24, 28, 32)),
                )
                for _ in range(80)
            ]
            for step in range(600):
                prefix = rng.choice(pool)
                op = rng.random()
                if op < 0.5:
                    value = step
                    trie.insert(prefix, value)
                    oracle.insert(prefix, value)
                elif op < 0.8:
                    assert trie.remove(prefix) is oracle.remove(prefix)
                elif op < 0.9:
                    address = rng.choice(pool).network
                    assert trie.lookup(address) == oracle.lookup(
                        address
                    ), f"seed {seed} step {step}"
                else:
                    query = rng.choice(pool)
                    assert trie.covered(query) == oracle.covered(query)
            assert trie.items() == oracle.items()
            assert len(trie) == len(oracle.entries)

    def test_covered_after_full_drain(self):
        trie, oracle = LpmTrie(), Oracle()
        pool = [
            make_prefix(0xE0000000 | (i << 8), 24) for i in range(16)
        ]
        for value, prefix in enumerate(pool):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        for prefix in pool:
            assert trie.remove(prefix)
            oracle.remove(prefix)
        assert len(trie) == 0
        assert trie.items() == []
        assert trie.covered(Prefix(0xE0000000, 4)) == []
        # A drained trie is still usable.
        trie.insert(pool[0], "again")
        assert trie.lookup(pool[0].network) == "again"


def assert_matches(trie, oracle, prefixes_seen):
    """Every read of the trie agrees with the oracle."""
    assert len(trie) == len(oracle.entries)
    assert trie.items() == oracle.items()
    for prefix in prefixes_seen:
        assert (prefix in trie) is (prefix in oracle.entries)
        assert trie.get(prefix) == oracle.get(prefix)
    for address in probe_addresses(prefixes_seen):
        assert trie.lookup(address) == oracle.lookup(address)


class TestLengthExtremes:
    """Lengths 0 and 32 are the two ends of the per-length tables: the
    default route masks every address to 0, a /32 masks nothing."""

    DEFAULT = Prefix(0, 0)
    HOST = Prefix(0xE0000001, 32)
    BLOCK = Prefix(0xE0000000, 24)

    def test_default_route_catches_every_miss(self):
        trie, oracle = LpmTrie(), Oracle()
        for prefix, value in (
            (self.DEFAULT, "default"),
            (self.BLOCK, "block"),
            (self.HOST, "host"),
        ):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        assert trie.lookup(0x0A000001) == "default"
        assert trie.lookup(0xFFFFFFFF) == "default"
        assert trie.lookup(0xE0000002) == "block"
        assert trie.lookup(0xE0000001) == "host"
        assert trie.covered(self.DEFAULT) == oracle.covered(self.DEFAULT)
        assert trie.covered(self.HOST) == [(self.HOST, "host")]
        assert_matches(trie, oracle, [self.DEFAULT, self.BLOCK, self.HOST])

    def test_stored_none_still_wins_the_match(self):
        trie = LpmTrie()
        trie.insert(self.DEFAULT, "default")
        trie.insert(self.HOST, None)
        assert self.HOST in trie
        assert trie.lookup(self.HOST.network) is None
        assert trie.lookup(self.HOST.network + 1) == "default"

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.builds(
                make_prefix,
                st.integers(min_value=0, max_value=0xFFFFFFFF),
                st.sampled_from((0, 1, 31, 32)),
            ),
            max_size=16,
        )
    )
    def test_extreme_lengths_match_reference(self, items):
        trie, oracle = LpmTrie(), Oracle()
        for value, prefix in enumerate(items):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        assert_matches(trie, oracle, items + [self.DEFAULT])


class TestLengthEmptiesAndRefills:
    """Removing the last entry of a length drops that length from the
    probe order; inserting at it again must bring it back."""

    def test_drain_and_refill_each_length(self):
        trie, oracle = LpmTrie(), Oracle()
        lengths = (0, 8, 20, 32)
        pool = [
            make_prefix(0xE0012345 + offset, length)
            for length in lengths
            for offset in (0, 1 << 12)
        ]
        for value, prefix in enumerate(pool):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
            assert_matches(trie, oracle, pool)
        for drained in lengths:
            for prefix in pool:
                if prefix.length != drained:
                    continue
                assert trie.remove(prefix) is oracle.remove(prefix)
                assert_matches(trie, oracle, pool)
            for value, prefix in enumerate(pool):
                if prefix.length == drained:
                    trie.insert(prefix, f"refill{value}")
                    oracle.insert(prefix, f"refill{value}")
                    assert_matches(trie, oracle, pool)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.builds(
                    make_prefix,
                    st.integers(min_value=0xE0000000, max_value=0xE00000FF),
                    st.sampled_from((0, 24, 28, 32)),
                ),
            ),
            max_size=40,
        )
    )
    def test_interleaved_churn_checked_every_step(self, steps):
        """A small address window and four lengths make lengths empty
        and refill often; every read is checked after every step."""
        trie, oracle = LpmTrie(), Oracle()
        seen = []
        for value, (insert, prefix) in enumerate(steps):
            seen.append(prefix)
            if insert:
                trie.insert(prefix, value)
                oracle.insert(prefix, value)
            else:
                assert trie.remove(prefix) is oracle.remove(prefix)
            assert_matches(trie, oracle, seen)
