"""Memoised key placement in :class:`HyperStore`.

A store op looks a key's partition up in a bounded memo instead of
hashing the key onto the ring every time.  The memo must follow the
ring when a node joins and never outgrow its bound.  That a memoised
key still fails while its node is down is checked by
``test_store.py::TestFailurePropagation::test_recovered_node_serves_again``.
"""

from __future__ import annotations

from repro.kvstore.store import PLACEMENT_MEMO, HyperStore


class TestPlacementMemo:
    def test_add_node_moves_memoised_keys_and_tombstones(self):
        store = HyperStore(nodes=2)
        keys = [f"key-{i}" for i in range(300)]
        for i, key in enumerate(keys):
            store.put(key, i)
        deleted = set(keys[::5])
        for key in deleted:
            store.put(key, "again")  # version 2
            store.delete(key)  # tombstone: version 3
        for key in keys:
            store.get(key, default=None)
        assert set(keys) <= set(store._placement)

        new_node = store.add_node()
        assert any(store.owner_node(key) == new_node for key in keys)
        for i, key in enumerate(keys):
            if key in deleted:
                assert store.get(key, default=None) is None
            else:
                assert store.get(key) == i
            holders = [
                name for name, part in store._partitions.items() if key in part.data
            ]
            assert holders == ([] if key in deleted else [store.owner_node(key)])
        for key in deleted:
            # The tombstone followed the key: the recreate resumes the
            # version sequence instead of restarting it.
            assert store.put(key, "back") == 4
            assert store.delete(key)
            assert store.put(key, "back") == 6

    def test_memo_stays_within_its_bound(self):
        store = HyperStore(nodes=2)
        for i in range(100_000):
            assert store.get(f"absent-{i}", default=None) is None
        assert 0 < len(store._placement) <= PLACEMENT_MEMO
