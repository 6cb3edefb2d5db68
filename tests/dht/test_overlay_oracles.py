"""Brute-force oracles for the overlays' packed-array state.

Each overlay answers its queries from compact indexes: Chord bisects a packed
member column and batches finger searches, Kademlia trie-descends a packed
member column and keeps k-buckets as packed rows, CAN descends a canonical
split tree over a packed zone index.  Here every such answer is checked
against the obvious definition, written out in a few lines:

* Chord — the successor over a sorted list, and fingers as deduplicated
  successors of ``n + 2^i``;
* Kademlia — the XOR minimum (and runner-up) over the live members, and a
  list-based least-recently-seen bucket for ``observe``/``learn``/
  ``discard``/``closest``;
* CAN — a linear scan over every zone for point ownership, and the zones
  as a partition of the coordinate space.

The network-level checks run after arbitrary join/leave/fail/put/get/lookup
sequences chosen by hypothesis, at the default 32-bit identifier space and at
the full 64 bits a packed column holds.  Bit-identity of whole workloads (routes,
message counts, RNG streams) is pinned by ``test_golden_counts.py``.
"""

from __future__ import annotations

import bisect
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import accel
from repro.dht.can import CanSpace
from repro.dht.hashing import HashFamily
from repro.dht.kademlia import RoutingTable
from repro.dht.network import DHTNetwork

#: The hypothesis churn strategy: each integer picks one network operation.
churn_ops = st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                     max_size=40)

#: Identifier widths the churn oracles run at: the default and the maximum.
WIDTHS = pytest.mark.parametrize("bits", (32, 64))


def _churned_network(protocol: str, ops, bits: int = 32) -> DHTNetwork:
    network = DHTNetwork.build(10, protocol=protocol, seed=90, bits=bits)
    hash_fn = HashFamily(bits=bits, seed=3).sample("hc")
    for index, op in enumerate(ops):
        if op == 0:
            network.join_peer()
        elif op == 1 and network.size > 3:
            network.leave_peer(network.random_alive_peer())
        elif op == 2 and network.size > 3:
            network.fail_peer(network.random_alive_peer())
        elif op == 3:
            network.put(f"key-{index}", hash_fn, index, trace=network.new_trace())
        elif op == 4:
            network.get(f"key-{index % 7}", hash_fn)
        else:
            network.lookup(f"key-{index % 5}", hash_fn, trace=network.new_trace())
    return network


def _probe_points(network: DHTNetwork, seed: int):
    """Random points plus every member identifier and its neighbours."""
    space = 1 << network.bits
    rng = random.Random(seed)
    points = {0, space - 1}
    points.update(rng.randrange(space) for _ in range(40))
    for node in network.protocol.nodes():
        points.update(((node - 1) % space, node, (node + 1) % space))
    return sorted(points)


def _successor(members, point):
    """Chord's rule over a sorted list: first member >= point, wrapping."""
    for member in members:
        if member >= point:
            return member
    return members[0]


def _zone_scan(space: CanSpace, coords):
    """CAN ownership by scanning every zone of every node."""
    for node_id, zones in space._zones.items():
        if any(zone.contains(coords) for zone in zones):
            return node_id
    raise AssertionError(f"no zone contains {coords}")


class TestChordAgainstSortedList:
    @WIDTHS
    @settings(max_examples=25, deadline=None)
    @given(ops=churn_ops)
    def test_responsibility_and_fingers(self, bits, ops):
        network = _churned_network("chord", ops, bits)
        ring = network.protocol
        members = sorted(ring.nodes())
        for point in _probe_points(network, len(ops)):
            assert ring.responsible_for(point) == _successor(members, point)
        for node in members:
            expected = []
            for exponent in range(ring.bits):
                finger = _successor(members, (node + (1 << exponent)) % ring.space_size)
                if finger != node and finger not in expected:
                    expected.append(finger)
            ring.refresh_fingers(node, now=network.now)
            assert ring.finger_table(node, now=network.now) == expected

    @WIDTHS
    @settings(max_examples=25, deadline=None)
    @given(ops=churn_ops)
    def test_neighbours_and_next_responsible(self, bits, ops):
        network = _churned_network("chord", ops, bits)
        ring = network.protocol
        members = sorted(ring.nodes())
        for point in _probe_points(network, len(ops)):
            # nrsp: the successor of the responsible, i.e. the next member.
            owner = _successor(members, point)
            expected = members[(members.index(owner) + 1) % len(members)]
            assert ring.next_responsible(point) == (
                expected if len(members) > 1 else None)
        for position, node in enumerate(members):
            assert ring.predecessor(node) == members[position - 1]
            assert ring.claimed_span(node) == (
                (members[position - 1], node) if len(members) > 1 else None)
            following = members[position + 1:] + members[:position]
            assert ring.successor_list(node, 4) == following[:4]


class TestKademliaAgainstXorMinimum:
    @WIDTHS
    @settings(max_examples=25, deadline=None)
    @given(ops=churn_ops)
    def test_responsible_and_next_responsible(self, bits, ops):
        network = _churned_network("kademlia", ops, bits)
        overlay = network.protocol
        members = list(overlay.nodes())
        for point in _probe_points(network, len(ops)):
            by_distance = sorted(members, key=lambda member: member ^ point)
            assert overlay.responsible_for(point) == by_distance[0]
            assert overlay.next_responsible(point) == by_distance[1]


class _ListBucketTable:
    """Oracle routing table: plain lists in least-recently-seen order."""

    def __init__(self, owner: int, k: int) -> None:
        self.owner, self.k, self.buckets = owner, k, {}

    def _bucket(self, contact):
        return self.buckets.setdefault((self.owner ^ contact).bit_length() - 1, [])

    def observe(self, contact, is_alive):
        if contact == self.owner:
            return False
        bucket = self._bucket(contact)
        if contact in bucket:
            bucket.remove(contact)
        elif len(bucket) >= self.k:
            oldest = bucket.pop(0)
            if is_alive(oldest):
                bucket.append(oldest)
                return False
        bucket.append(contact)
        return True

    def learn(self, contact):
        if contact == self.owner:
            return False
        bucket = self._bucket(contact)
        if contact not in bucket:
            if len(bucket) >= self.k:
                return False
            bucket.append(contact)
        return True

    def discard(self, contact):
        if contact != self.owner and contact in self._bucket(contact):
            self._bucket(contact).remove(contact)

    def contacts(self):
        return [contact for index in sorted(self.buckets)
                for contact in self.buckets[index]]


class TestRoutingTableAgainstListBuckets:
    # k=1 evicts or drops on every new contact; 64 bits puts half of the
    # contacts into the top bucket, next to the largest packable identifiers.
    @pytest.mark.parametrize("bits, k", ((16, 3), (16, 1), (64, 20)))
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 63)),
                          max_size=300),
           seed=st.integers(0, 2**16))
    def test_update_sequences_match(self, bits, k, steps, seed):
        rng = random.Random(seed)
        pool = [rng.randrange(1 << bits) for _ in range(64)]
        table = RoutingTable(owner=0, bits=bits, k=k)
        oracle = _ListBucketTable(owner=0, k=k)

        def is_alive(contact: int) -> bool:
            return contact % 2 == 0

        for op, pick in steps:
            contact = pool[pick]
            if op == 0:
                assert table.observe(contact, is_alive) == oracle.observe(contact, is_alive)
            elif op == 1:
                assert table.learn(contact) == oracle.learn(contact)
            else:
                table.discard(contact)
                oracle.discard(contact)
            assert table.contacts() == oracle.contacts()
            assert len(table) == len(oracle.contacts())
        for index, bucket in oracle.buckets.items():
            assert table.bucket(index) == bucket
        for _ in range(10):
            point = rng.randrange(1 << bits)
            for count in (1, 3, 8, 64):
                expected = sorted(oracle.contacts(),
                                  key=lambda contact: contact ^ point)[:count]
                assert table.closest(point, count) == expected


class TestCanAgainstZoneScan:
    @WIDTHS
    @settings(max_examples=25, deadline=None)
    @given(ops=churn_ops)
    def test_owner_of_matches_a_linear_scan(self, bits, ops):
        network = _churned_network("can", ops, bits)
        space = network.protocol
        for point in _probe_points(network, len(ops)):
            coords = space.coordinates(point)
            assert space._owner_of(coords) == _zone_scan(space, coords)
            assert space.responsible_for(point) == _zone_scan(space, coords)

    @WIDTHS
    @settings(max_examples=25, deadline=None)
    @given(ops=churn_ops)
    def test_zones_partition_the_space(self, bits, ops):
        # Every point has exactly one owner: the live zones are pairwise
        # disjoint and their volumes add up to the whole coordinate space.
        network = _churned_network("can", ops, bits)
        space = network.protocol
        zones = [zone for node in space.nodes() for zone in space.zones_of(node)]
        assert sum(zone.volume for zone in zones) == \
            space.axis_size ** space.dimensions
        for index, zone in enumerate(zones):
            for other in zones[index + 1:]:
                assert any(zone.hi[axis] <= other.lo[axis]
                           or other.hi[axis] <= zone.lo[axis]
                           for axis in range(space.dimensions))

    @pytest.mark.parametrize("dimensions", (2, 3))
    def test_zone_index_mirrors_the_zone_table_under_churn(self, dimensions):
        space = CanSpace(bits=16, dimensions=dimensions, rng=random.Random(8))
        rng = random.Random(9)
        members = []
        for _ in range(120):
            if members and rng.random() < 0.35:
                space.remove_node(members.pop(rng.randrange(len(members))))
            else:
                node_id = rng.randrange(1 << 16)
                if node_id in space:
                    continue
                space.add_node(node_id)
                members.append(node_id)
            # The index holds exactly the live zones, each with its owner.
            assert space._zone_index == {
                space._pack_zone(zone): owner
                for owner, zones in space._zones.items() for zone in zones}
        for _ in range(80):
            coords = space.coordinates(rng.randrange(1 << 16))
            assert space._owner_of(coords) == _zone_scan(space, coords)

    @pytest.mark.parametrize("dimensions", (2, 3))
    def test_packed_zone_keys_are_unique_per_zone(self, dimensions):
        space = CanSpace(bits=16, dimensions=dimensions, rng=random.Random(4))
        for node_id in range(0, 4000, 67):
            space.add_node(node_id)
        keys = [space._pack_zone(zone)
                for zones in space._zones.values() for zone in zones]
        assert len(keys) == len(set(keys))


class TestAccelHelpers:
    def test_xor_closest_matches_the_sorted_reference(self):
        rng = random.Random(13)
        contacts = array("Q", sorted({rng.getrandbits(32) for _ in range(300)}))
        for _ in range(25):
            target = rng.getrandbits(32)
            for count in (1, 5, 50, 500):
                expected = sorted(contacts,
                                  key=lambda contact: contact ^ target)[:count]
                assert accel.xor_closest(contacts, target, count) == expected

    def test_successor_positions_match_bisect(self):
        rng = random.Random(14)
        members = array("Q", sorted({rng.getrandbits(32) for _ in range(200)}))
        targets = [rng.getrandbits(32) for _ in range(500)]
        expected = [bisect.bisect_left(members, target) % len(members)
                    for target in targets]
        assert accel.successor_positions(members, targets) == expected

    @pytest.mark.skipif(not accel.HAVE_NUMPY,
                        reason="repro[fast] (numpy) not installed")
    def test_numpy_and_pure_paths_agree(self, monkeypatch):
        rng = random.Random(15)
        contacts = array("Q", sorted({rng.getrandbits(48) for _ in range(512)}))
        targets = [rng.getrandbits(48) for _ in range(64)]
        vector_closest = [accel.xor_closest(contacts, target, 20)
                          for target in targets]
        vector_positions = accel.successor_positions(contacts, targets)
        monkeypatch.setattr(accel, "_np", None)
        assert [accel.xor_closest(contacts, target, 20)
                for target in targets] == vector_closest
        assert accel.successor_positions(contacts, targets) == vector_positions

    def test_numpy_flag_is_a_bool(self):
        # numpy is optional (the repro[fast] extra); whichever way this
        # interpreter has it, the flag must be usable for gating.
        assert isinstance(accel.HAVE_NUMPY, bool)
