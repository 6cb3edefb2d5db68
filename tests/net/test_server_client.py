"""Tests of the asyncio node server and the client transport."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.api.cluster import Cluster
from repro.net import codec
from repro.net.client import NetClient, TransportError, connect
from repro.net.server import FaultSchedule, NodeServer, ServerThread


class TestServerBasics:
    def test_connect_handshake_and_ping(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            assert cluster.ping()
            assert cluster.size == 16
            assert cluster.info["replicas"] == 4
            assert cluster.info["service"] == "ums"

    def test_session_operations_over_tcp(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with cluster.session() as session:
                insert = session.insert("k", {"v": 1})
                assert insert.replicas_written == 4
                assert insert.timestamp is not None
                retrieve = session.retrieve("k")
                assert retrieve.found and retrieve.is_current
                assert retrieve.data == {"v": 1}
                assert retrieve.timestamp == insert.timestamp
                assert session.messages_sent > 0

    def test_batched_operations_share_one_trace(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with cluster.session() as session:
                batch = session.insert_many([("a", {"n": 1}), ("b", {"n": 2})])
                assert all(item.trace is batch.trace
                           for item in batch.results)
                reads = session.retrieve_many(["a", "b", "missing"])
                assert [item.found for item in reads.results] == \
                    [True, True, False]
                assert all(item.trace is reads.trace
                           for item in reads.results)

    def test_operations_over_unix_socket(self, serve, tmp_path):
        path = str(tmp_path / "node.sock")
        server = serve(NodeServer(peers=16, replicas=4, seed=11),
                       host=None, uds=path)
        assert server.tcp_address is None
        assert server.uds_path == path
        with connect(path) as cluster:
            with cluster.session() as session:
                session.insert("k", {"via": "uds"})
                assert session.retrieve("k").data == {"via": "uds"}

    def test_secondary_service_is_reachable_by_name(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with cluster.session(service="brk") as session:
                session.insert("k", {"v": 1})
                result = session.retrieve("k")
                assert result.found
                assert result.service == "brk"

    def test_server_reports_errors_instead_of_dying(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with pytest.raises(TransportError, match="unknown service"):
                cluster.client.request("insert", key="k", data={},
                                       service="paxos")
            # The connection survived the error reply.
            assert cluster.ping()

    def test_unknown_operation_is_an_error_reply(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with pytest.raises(TransportError, match="unknown operation"):
                cluster.client.request("teleport")

    def test_served_cluster_can_be_prebuilt(self, serve):
        cluster = Cluster.build(peers=12, replicas=3, protocol="kademlia",
                                seed=3)
        server = serve(NodeServer(cluster))
        with connect(server.tcp_address) as remote:
            assert remote.size == 12
            assert remote.info["protocol"] == "KademliaOverlay"


class TestBackpressure:
    def test_inflight_queue_stays_bounded_under_flood(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11,
                                  max_inflight=4))
        host, port = server.tcp_address
        requests = 40
        with socket.create_connection((host, port)) as raw:
            # Flood the socket with every frame up front, then read replies.
            flood = b"".join(
                codec.encode_frame({"id": index, "op": "ping"})
                for index in range(requests))
            raw.sendall(flood)
            decoder = codec.FrameDecoder()
            replies = []
            while len(replies) < requests:
                chunk = raw.recv(64 * 1024)
                assert chunk, "server closed before replying to the flood"
                replies.extend(decoder.feed(chunk))
        # Strict in-order execution, every request answered...
        assert [reply["id"] for reply in replies] == list(range(requests))
        assert all(reply["ok"] for reply in replies)
        # ... and the server never buffered more than the configured bound.
        assert 0 < server.max_observed_inflight <= 4

    def test_max_inflight_must_be_positive(self):
        with pytest.raises(ValueError, match="max_inflight"):
            NodeServer(peers=8, seed=1, max_inflight=0)


class TestShutdown:
    def test_client_initiated_graceful_shutdown(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        with connect(server.tcp_address) as cluster:
            with cluster.session() as session:
                session.insert("k", {"v": 1})
            cluster.shutdown_server()
        assert server.requests_served >= 3  # info + insert + shutdown

    def test_stop_flushes_the_replies_of_queued_requests(self):
        requests = 12

        async def scenario():
            # The first (data-plane) reply is held back, so the rest of the
            # burst is still queued behind it when stop() begins.
            server = NodeServer(peers=8, replicas=3, seed=1,
                                fault_schedule=FaultSchedule(
                                    delay_replies={0: 0.05}))
            await server.start(port=0)
            reader, writer = await asyncio.open_connection(*server.tcp_address)
            writer.write(codec.encode_frame(
                {"id": 0, "op": "insert", "key": "k", "data": 1}))
            writer.write(b"".join(codec.encode_frame({"id": index, "op": "ping"})
                                  for index in range(1, requests)))
            await writer.drain()
            for _ in range(200):
                if server.max_observed_inflight >= requests - 1:
                    break
                await asyncio.sleep(0.005)
            assert server.requests_served < requests
            await server.stop()
            decoder = codec.FrameDecoder()
            replies = []
            while True:
                chunk = await reader.read(64 * 1024)
                if not chunk:
                    break
                replies.extend(decoder.feed(chunk))
            writer.close()
            return server, replies

        server, replies = asyncio.run(scenario())
        assert [reply["id"] for reply in replies] == list(range(requests))
        assert all(reply["ok"] for reply in replies)
        assert server.requests_served == requests

    def test_server_thread_stop_is_idempotent(self):
        thread = ServerThread(NodeServer(peers=8, replicas=3, seed=1))
        thread.start()
        thread.stop()
        thread.stop()

    def test_startup_failure_propagates_to_the_caller(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "node.sock"
        thread = ServerThread(NodeServer(peers=8, replicas=3, seed=1),
                              host=None, uds=str(missing))
        with pytest.raises(OSError):
            thread.start()


class TestClientValidation:
    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="pool_size"):
            NetClient(("127.0.0.1", 1), pool_size=0)
        with pytest.raises(ValueError, match="max_retries"):
            NetClient(("127.0.0.1", 1), max_retries=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            NetClient(("127.0.0.1", 1), timeout_s=0)

    def test_connecting_to_a_dead_address_fails_fast(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_address = probe.getsockname()
        with pytest.raises(TransportError, match="cannot connect"):
            connect(dead_address)

    def test_requests_after_close_are_rejected(self, serve):
        server = serve(NodeServer(peers=16, replicas=4, seed=11))
        cluster = connect(server.tcp_address)
        cluster.close()
        assert cluster.client.closed
        with pytest.raises(TransportError, match="closed"):
            cluster.ping()
