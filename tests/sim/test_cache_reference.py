"""Property test: the oracle's cache against an independent reference.

The per-access LRU cache of the serial oracle (``tests/sim/oracle.py``),
which the batched engine is differentially tested against, is itself
checked here against a deliberately naive (slow, obviously-correct)
list-based set-associative LRU cache; hypothesis drives both with random
access sequences and requires identical hit/miss/writeback behaviour.
"""


from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from tests.sim.oracle import Cache


class ReferenceCache:
    """Naive set-associative LRU cache, list-based."""

    def __init__(self, num_sets: int, assoc: int):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [[] for _ in range(num_sets)]  # [(tag, dirty)] MRU last
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, line: int, is_write: bool):
        set_idx = line % self.num_sets
        tag = line // self.num_sets
        entries = self.sets[set_idx]
        for i, (t, dirty) in enumerate(entries):
            if t == tag:
                self.hits += 1
                entries.pop(i)
                entries.append((tag, dirty or is_write))
                return True, None
        self.misses += 1
        victim = None
        if len(entries) >= self.assoc:
            vt, vd = entries.pop(0)
            if vd:
                self.writebacks += 1
            victim = (vt * self.num_sets + set_idx, vd)
        entries.append((tag, is_write))
        return False, victim


accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
    min_size=0,
    max_size=400,
)


class TestAgainstReference:
    @settings(max_examples=60)
    @given(seq=accesses)
    def test_matches_reference_small_cache(self, seq):
        config = CacheConfig(size_bytes=1024, associativity=2)  # 8 sets
        cache = Cache(config)
        ref = ReferenceCache(config.num_sets, config.associativity)
        for line, is_write in seq:
            got = cache.access(line, is_write)
            want = ref.access(line, is_write)
            assert got == want
        assert cache.stats.hits == ref.hits
        assert cache.stats.misses == ref.misses
        assert cache.stats.writebacks == ref.writebacks

    @settings(max_examples=30)
    @given(seq=accesses)
    def test_matches_reference_direct_mapped(self, seq):
        config = CacheConfig(size_bytes=256, associativity=1)  # 4 lines
        cache = Cache(config)
        ref = ReferenceCache(config.num_sets, config.associativity)
        for line, is_write in seq:
            assert cache.access(line, is_write) == ref.access(line, is_write)

    @settings(max_examples=30)
    @given(seq=accesses)
    def test_matches_reference_fully_associative(self, seq):
        config = CacheConfig(size_bytes=512, associativity=8)  # 1 set
        cache = Cache(config)
        assert config.num_sets == 1
        ref = ReferenceCache(1, 8)
        for line, is_write in seq:
            assert cache.access(line, is_write) == ref.access(line, is_write)

    @settings(max_examples=30)
    @given(seq=accesses)
    def test_invariant_hits_plus_misses(self, seq):
        cache = Cache(CacheConfig(size_bytes=1024, associativity=4))
        for line, is_write in seq:
            cache.access(line, is_write)
        assert cache.stats.hits + cache.stats.misses == len(seq)
        assert cache.stats.writebacks <= cache.stats.misses
