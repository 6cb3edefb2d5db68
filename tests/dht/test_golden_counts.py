"""Golden work counts: the overlays' observable behaviour, pinned by value.

A seeded mixed put/get/lookup/join/leave/fail workload runs over each
built-in overlay and its totals are compared with recorded values.  Any
change to routes, retries, message accounting, random draws or replica
placement moves at least one of these numbers, so a pure refactor must
leave them untouched.  The workload runs at the default 32-bit identifier
space and at the full 64 bits the packed member columns hold, and the
state of a freshly built network is pinned at 16, 32 and 64 bits.

The random streams are compared through one SHA-256 over
``Random.getstate()`` of the network RNG and of the overlay's private RNG
(plus the final replica placement), which catches an extra or missing draw
even when the counts happen to agree.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.dht.errors import InvalidConfigurationError
from repro.dht.hashing import HashFamily
from repro.dht.network import DHTNetwork
from repro.dht.registry import create_overlay

BUILTIN_OVERLAYS = ("chord", "can", "kademlia")

#: overlay -> (lookup hops, message_count, total_bytes, lookup retries,
#: digest of both RNG states and the placement, live peers).
GOLDEN = {
    "chord": (138, 1169, 324352, 1,
              "9aebc8a3aa0d0296e4dd50fdec128cca741e015a77feeda6ea71fd6b8a5e0866", 27),
    "can": (88, 981, 300288, 0,
            "72f900e19841ca8fa7c6399415a0057dc7bd0e2919118b04d6e3433fce937b6b", 27),
    "kademlia": (62, 1118, 317824, 73,
                 "b6c80589faa02840eb4b7a996d9c42fc6102e149e595d484cca0aa90794f3dff", 27),
}

#: The same workload over the widest identifier space the packed state holds.
GOLDEN_FULL_WIDTH = {
    "chord": (142, 1196, 327808, 3,
              "403b348b405b7aa42d96d581a7c856e1060bce1c461444ea25e5c4a47dea2b93", 27),
    "can": (106, 978, 299904, 0,
            "486a06430b9f0c9c5b97aa45c2280400eb8382751fd690607920c31bb5017c84", 27),
    "kademlia": (57, 1091, 314368, 27,
                 "2bddea0101fa5c23d248d8c8e8c0c534aabeaca0308aedbce477cd4f87550590", 27),
}

#: (overlay, bits) -> digest of a freshly built 48-peer network.
GOLDEN_BUILD = {
    ("chord", 16): "9c2cb4ea7f777b2164eb15735b3a7dcf37fb439c2116f83f85c52314e9779b08",
    ("chord", 32): "d262f84b9e6d6d108da9b5074576a9bb30e06168f68a5468ae93fd7c8990f210",
    ("chord", 64): "628712103680850fa136ba401b03fcc8812f815e41c8a7da8c9c22137bd8d837",
    ("can", 16): "9c2c4f3586f722b1e6f34a141d3961f35103dfa088d43bc5e82754d50ecfeb29",
    ("can", 32): "96641ca6e919fe6e1daf9ad06fb7dca657f9e0fc3a789b6d027b9a259e4d5f2a",
    ("can", 64): "db4376e0564e449e09164eadf918fb8a9164267a8660e53ab571863c8680e1b0",
    ("kademlia", 16): "0bc6e89df6d7aeabc6c306cee10b02446f7e3955902a0fa7b437f24b2e32c61f",
    ("kademlia", 32): "d6942e5fa2b7f2e9d3c4dd6fc445ec76651441a91019b5435fba48a199ed0aed",
    ("kademlia", 64): "39023ec74ac03e5a71c97cbcb856042ea245570648c1aef348017d58b51f7146",
}


def _placement(network: DHTNetwork):
    """Replica placement and maintenance counters, in a comparable form."""
    stores = [(peer_id, sorted((entry.hash_name, entry.key, entry.version,
                                entry.data["step"])
                               for entry in network.peer(peer_id).store.values()))
              for peer_id in network.alive_peer_ids()]
    return stores, sorted(vars(network.stats).items())


def _run_workload(protocol: str, bits: int = 32):
    network = DHTNetwork.build(48, protocol=protocol, seed=2007, bits=bits,
                               stabilization_interval=20.0)
    hash_fns = HashFamily(bits=bits, seed=13).sample_many(3, prefix="golden")
    script = random.Random(31)
    hops = retries = 0
    trace = network.new_trace()
    for step in range(400):
        network.now += 1.5
        key = f"key-{script.randrange(40)}"
        hash_fn = hash_fns[script.randrange(len(hash_fns))]
        action = script.randrange(10)
        if action < 3:
            network.put(key, hash_fn, {"step": step}, trace=trace)
        elif action < 5:
            network.get(key, hash_fn, trace=trace)
        elif action == 5:
            result = network.lookup(key, hash_fn, trace=trace)
            hops += result.route.hops
            retries += result.route.retries
        elif action == 6:
            network.put(key, hash_fn, {"step": step})
            network.get(key, hash_fn)
        elif action == 7:
            network.join_peer()
        elif action == 8 and network.size > 24:
            network.leave_peer(network.random_alive_peer())
        elif action == 9 and network.size > 24:
            network.fail_peer(network.random_alive_peer())
    state = (network.rng.getstate(), network.protocol._rng.getstate(),
             _placement(network))
    return (hops, trace.message_count, trace.total_bytes, retries,
            hashlib.sha256(repr(state).encode()).hexdigest(), network.size)


def _build_state(protocol: str, bits: int = 32):
    """Digest of a freshly built network: members, neighbour sets, RNGs."""
    network = DHTNetwork.build(48, protocol=protocol, seed=2007, bits=bits)
    overlay = network.protocol
    state = (network.rng.getstate(), overlay._rng.getstate(),
             sorted(overlay.nodes()),
             [(node, sorted(overlay.neighbors(node)))
              for node in sorted(overlay.nodes())],
             sorted(vars(network.stats).items()))
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
def test_mixed_workload_matches_the_recorded_counts(protocol):
    assert _run_workload(protocol) == GOLDEN[protocol]


@pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
def test_full_width_workload_matches_the_recorded_counts(protocol):
    assert _run_workload(protocol, bits=64) == GOLDEN_FULL_WIDTH[protocol]


@pytest.mark.parametrize("bits", (16, 32, 64))
@pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
def test_build_matches_the_recorded_state(protocol, bits):
    assert _build_state(protocol, bits) == GOLDEN_BUILD[protocol, bits]


@pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
def test_identifier_spaces_wider_than_64_bits_are_rejected(protocol):
    with pytest.raises(InvalidConfigurationError, match="64"):
        create_overlay(protocol, bits=65, rng=random.Random(0))


@pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
def test_overlay_classes_reject_wide_spaces_directly(protocol):
    overlay_class = type(create_overlay(protocol, rng=random.Random(0)))
    with pytest.raises(InvalidConfigurationError, match="64"):
        overlay_class(bits=65, rng=random.Random(0))


@pytest.mark.parametrize("protocol", BUILTIN_OVERLAYS)
def test_identifier_spaces_narrower_than_3_bits_are_rejected(protocol):
    with pytest.raises(InvalidConfigurationError):
        create_overlay(protocol, bits=2, rng=random.Random(0))
