"""Differential test of SetAssociativeCache against an OrderedDict model.

The cache stores each set as a lazily allocated plain dict.  The
reference below is the straightforward one-OrderedDict-per-set LRU
cache; random operation sequences must leave both with the same
residents in the same LRU order and produce the same evictions.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.system import SetAssociativeCache

BLOCK_BYTES = 64
MAX_BLOCK = 7


class ReferenceCache:
    """One OrderedDict per set, oldest first."""

    def __init__(self, num_sets, ways):
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def _set(self, block):
        return self.sets[block % len(self.sets)]

    def lookup(self, block, touch=True):
        cache_set = self._set(block)
        line = cache_set.get(block)
        if line is not None and touch:
            cache_set.move_to_end(block)
        return line

    def contains(self, block):
        return block in self._set(block)

    def insert(self, block, line):
        cache_set = self._set(block)
        evicted = None
        if block not in cache_set and len(cache_set) >= self.ways:
            evicted = cache_set.popitem(last=False)
        cache_set[block] = line
        cache_set.move_to_end(block)
        return evicted

    def victim_for(self, block, evictable=None):
        cache_set = self._set(block)
        if block in cache_set or len(cache_set) < self.ways:
            return None
        for candidate in cache_set.items():
            if evictable is None or evictable(candidate[0]):
                return candidate
        raise RuntimeError("no evictable line in cache set")

    def remove(self, block):
        return self._set(block).pop(block, None)

    def items(self):
        for cache_set in self.sets:
            yield from cache_set.items()


blocks = st.integers(min_value=0, max_value=MAX_BLOCK)
inserts = st.tuples(st.just("insert"), blocks)
operation = st.one_of(
    inserts,
    inserts,
    st.tuples(st.just("lookup"), blocks, st.booleans()),
    st.tuples(st.just("victim_for"), blocks, st.none() | st.frozensets(blocks)),
    st.tuples(st.just("remove"), blocks),
    st.tuples(st.just("contains"), blocks),
)


def apply(cache, op, serial):
    """Run one operation; returns its result, or the exception type."""
    kind, block = op[0], op[1]
    try:
        if kind == "insert":
            return cache.insert(block, f"line{serial}")
        if kind == "lookup":
            return cache.lookup(block, touch=op[2])
        if kind == "victim_for":
            vetoed = op[2]
            if vetoed is None:
                return cache.victim_for(block)
            return cache.victim_for(block, evictable=lambda b: b not in vetoed)
        if kind == "remove":
            return cache.remove(block)
        return cache.contains(block)
    except RuntimeError as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(
    num_sets=st.sampled_from([1, 2, 4]),
    ways=st.sampled_from([1, 2, 4]),
    ops=st.lists(operation, max_size=80),
)
def test_matches_ordered_dict_reference(num_sets, ways, ops):
    cache = SetAssociativeCache(num_sets * ways * BLOCK_BYTES, ways, BLOCK_BYTES)
    reference = ReferenceCache(num_sets, ways)
    for serial, op in enumerate(ops):
        assert apply(cache, op, serial) == apply(reference, op, serial), op
        assert list(cache.items()) == list(reference.items()), op
        assert cache.occupancy() == len(list(reference.items()))


def test_untouched_sets_share_one_empty_dict():
    cache = SetAssociativeCache(256 * 1024, 16)
    assert cache.lookup(3) is None and cache.remove(3) is None
    cache.insert(1, "a")
    untouched = [s for i, s in enumerate(cache._sets) if i != 1]
    assert all(s is untouched[0] for s in untouched)
    assert not untouched[0]
