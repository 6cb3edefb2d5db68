"""Asyncio node server: the service side of real-service mode.

A :class:`NodeServer` hosts the same substrate the simulation backend wires
in-process — an overlay population with per-peer
:class:`~repro.dht.storage.LocalStore` replicas, the KTS timestamping service
and the registered currency services (UMS/BRK handlers) — behind
length-prefixed frames (:mod:`repro.net.codec`) over TCP and/or a Unix
domain socket.

Wire-format negotiation is a capability check, not a handshake: the ``info``
reply advertises the formats the server accepts (``wire_formats``), each
request's body format is detected from its first byte, and the reply is
encoded in the same format the request arrived in.  Old JSON-only clients
keep working unchanged; a binary-capable client simply starts sending binary
frames after seeing the advertisement.

Per-connection flow control is a **bounded inflight queue**: a reader task
parses frames and ``await``\\ s them into an ``asyncio.Queue(max_inflight)``,
and a worker task executes requests strictly in arrival order.  When a client
floods requests faster than they execute, the queue fills, the reader stops
reading, and backpressure propagates through the kernel socket buffers to the
sender — the server's memory stays bounded no matter how fast clients write.

Shutdown is graceful: :meth:`NodeServer.stop` (or a client ``shutdown``
request) stops accepting connections, lets every queued request finish,
flushes the replies and only then closes the connections.

:class:`ServerThread` runs a server on a private event loop in a daemon
thread — the harness tests, the load generator and the fault-injection suite
all drive a real socket server through it without an async caller.

:class:`FaultSchedule` injects transport faults for the accounting tests:
dropping a reply makes the client time out and retry (the request *was*
executed — delivery, not execution, is what fails, exactly the semantics of
the simulator's timed-out messages), delaying one models a slow peer.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro import __version__
from repro.api.cluster import Cluster
from repro.net import codec

__all__ = ["FaultSchedule", "NodeServer", "ServerThread"]

#: Requests counted by a :class:`FaultSchedule` (the data-plane operations);
#: control requests (``ping``/``info``/``shutdown``) are never faulted.
_DATA_OPS = ("insert", "retrieve", "insert_many", "retrieve_many")


class FaultSchedule:
    """Deterministic transport faults, indexed by data-plane request number.

    Parameters
    ----------
    drop_replies:
        0-based indices (counting executed data-plane requests) whose reply is
        silently dropped: the request executes, the client sees a timeout.
    delay_replies:
        Index → seconds: the reply is sent after an extra delay.

    The schedule is the transport-level analogue of the simulator's fault
    injection (``unreachable`` sets, timed-out messages): it makes the
    client's retry/timeout accounting testable against a known fault plan.
    """

    def __init__(self, drop_replies: Iterable[int] = (),
                 delay_replies: Optional[Mapping[int, float]] = None) -> None:
        self.drop_replies = frozenset(int(index) for index in drop_replies)
        self.delay_replies = {int(index): float(delay)
                              for index, delay in (delay_replies or {}).items()}
        self._sequence = 0

    def next_index(self) -> int:
        """Allocate the index of the data-plane request being executed."""
        index = self._sequence
        self._sequence += 1
        return index

    def should_drop(self, index: int) -> bool:
        """Whether the reply to data-plane request ``index`` is dropped."""
        return index in self.drop_replies

    def delay_for(self, index: int) -> float:
        """Extra reply delay (seconds) for data-plane request ``index``."""
        return self.delay_replies.get(index, 0.0)


class NodeServer:
    """Hosts a cluster's overlay + stores + KTS/UMS handlers over sockets.

    Parameters
    ----------
    cluster:
        An already-built :class:`~repro.api.cluster.Cluster` to serve; when
        ``None`` one is built from the remaining keyword arguments, using the
        exact ``Cluster.build`` path the simulation backend uses — same seed,
        same stack, which is what makes backend parity testable.
    max_inflight:
        Bound of the per-connection inflight queue (the backpressure knob).
    fault_schedule:
        Optional :class:`FaultSchedule` for transport-fault tests.
    """

    def __init__(self, cluster: Optional[Cluster] = None, *, peers: int = 64,
                 protocol: str = "chord", service: str = "ums",
                 replicas: int = 10, seed: Optional[int] = None,
                 max_inflight: int = 32,
                 fault_schedule: Optional[FaultSchedule] = None) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if cluster is None:
            cluster = Cluster.build(peers=peers, protocol=protocol,
                                    service=service, replicas=replicas,
                                    seed=seed)
        self.cluster = cluster
        self.max_inflight = max_inflight
        self.fault_schedule = fault_schedule
        self.requests_served = 0
        self.max_observed_inflight = 0
        self._servers: list = []
        self._connections: set = set()
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_task: Optional["asyncio.Task"] = None
        self._tcp_address: Optional[Tuple[str, int]] = None
        self._uds_path: Optional[str] = None

    # ------------------------------------------------------------- lifecycle
    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        """The bound ``(host, port)`` once :meth:`start` opened a TCP listener."""
        return self._tcp_address

    @property
    def uds_path(self) -> Optional[str]:
        """The bound Unix-socket path once :meth:`start` opened a UDS listener."""
        return self._uds_path

    async def start(self, *, host: Optional[str] = "127.0.0.1", port: int = 0,
                    uds: Optional[str] = None) -> None:
        """Open the TCP and/or UDS listeners (``port=0`` picks a free port)."""
        if uds is None and host is None:
            raise ValueError("pass a TCP host/port, a UDS path, or both")
        self._stopped = asyncio.Event()
        if host is not None:
            server = await asyncio.start_server(self._serve_connection,
                                                host=host, port=port)
            self._servers.append(server)
            self._tcp_address = server.sockets[0].getsockname()[:2]
        if uds is not None:
            server = await asyncio.start_unix_server(self._serve_connection,
                                                     path=uds)
            self._servers.append(server)
            self._uds_path = uds

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain every queue, close."""
        if self._stopping:
            return
        self._stopping = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        # Let in-flight requests finish and their replies flush.
        connections = list(self._connections)
        for connection in connections:
            await connection.drain_and_close()
        # Wait for the connection tasks themselves, so the loop (and an
        # enclosing asyncio.run) has nothing left to cancel at teardown.
        tasks = [connection.task for connection in connections
                 if connection.task is not None and not connection.task.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=1.0)
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` request) completed."""
        if self._stopped is None:
            raise RuntimeError("server was never started")
        await self._stopped.wait()

    # ------------------------------------------------------------ connections
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        connection = _Connection(self, reader, writer)
        connection.task = asyncio.current_task()
        self._connections.add(connection)
        try:
            await connection.run()
        finally:
            self._connections.discard(connection)

    # -------------------------------------------------------------- handlers
    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one decoded request and return the reply payload.

        Handlers run synchronously (the cluster substrate is plain Python) in
        strict per-connection arrival order, which keeps the server-side RNG
        stream a function of the request sequence — the property the backend
        parity test pins.
        """
        op = request.get("op")
        request_id = request.get("id")
        try:
            result = self._dispatch(op, request)
        except Exception as error:  # noqa: B902 - reply instead of killing the link
            return {"id": request_id, "ok": False,
                    "error": f"{type(error).__name__}: {error}"}
        return {"id": request_id, "ok": True, "result": result}

    def _dispatch(self, op: Optional[str], request: Dict[str, Any]) -> Any:
        if op == "ping":
            return "pong"
        if op == "info":
            return {"peers": self.cluster.size,
                    "protocol": type(self.cluster.network.protocol).__name__,
                    "service": self.cluster.service_name,
                    "replicas": self.cluster.replication.factor,
                    "wire_formats": list(codec.WIRE_FORMATS),
                    "version": __version__}
        if op == "sync":
            keys = request.get("keys")
            if keys is not None:
                keys = [codec.decode_value(key) for key in keys]
            return self.cluster.sync_replicas(keys).to_dict()
        if op == "shutdown":
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.stop())
            return "stopping"
        if op in _DATA_OPS:
            return self._dispatch_data_op(op, request)
        raise ValueError(f"unknown operation {op!r}")

    def _dispatch_data_op(self, op: str, request: Dict[str, Any]) -> Any:
        service = self.cluster.service(request.get("service"))
        origin = request.get("origin")
        unreachable = frozenset(request.get("unreachable", ()))
        if op == "insert":
            result = service.insert(codec.decode_value(request["key"]),
                                    codec.decode_value(request.get("data")),
                                    origin=origin, unreachable=unreachable)
            return codec.insert_result_to_dict(result)
        if op == "retrieve":
            result = service.retrieve(codec.decode_value(request["key"]),
                                      origin=origin, unreachable=unreachable,
                                      consistency=request.get("consistency",
                                                              "current"),
                                      max_probes=request.get("max_probes"))
            return codec.retrieve_result_to_dict(result)
        if op == "insert_many":
            items = [(codec.decode_value(key), codec.decode_value(data))
                     for key, data in request["items"]]
            result = service.insert_many(items, origin=origin,
                                         unreachable=unreachable)
            return codec.batch_insert_result_to_dict(result)
        result = service.retrieve_many(
            [codec.decode_value(key) for key in request["keys"]],
            origin=origin, unreachable=unreachable,
            consistency=request.get("consistency", "current"),
            max_probes=request.get("max_probes"))
        return codec.batch_retrieve_result_to_dict(result)


class _Connection:
    """One client connection: bounded-queue reader + in-order worker."""

    def __init__(self, server: NodeServer, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=server.max_inflight)
        self.task: Optional["asyncio.Task"] = None
        self._eof = False

    async def run(self) -> None:
        """Drive the reader and worker tasks until EOF or shutdown."""
        worker = asyncio.get_running_loop().create_task(self._work())
        try:
            await self._read()
        finally:
            self._eof = True
            await self.queue.put(None)  # wake the worker for the EOF marker
            await worker
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read(self) -> None:
        decoder = codec.FrameDecoder()
        while True:
            try:
                chunk = await self.reader.read(64 * 1024)
            except (ConnectionError, OSError):
                return
            if not chunk:
                return
            for request_and_format in decoder.feed_with_formats(chunk):
                # Backpressure point: a full queue blocks this ``put``, which
                # stops the read loop until the worker catches up.
                await self.queue.put(request_and_format)
                depth = self.queue.qsize()
                if depth > self.server.max_observed_inflight:
                    self.server.max_observed_inflight = depth

    async def _work(self) -> None:
        while True:
            item = await self.queue.get()
            try:
                if item is None:
                    if self._eof and self.queue.empty():
                        return
                    continue
                await self._execute(*item)
            finally:
                # Every item is marked done once handled (its reply written),
                # which is what ``drain_and_close`` joins on.
                self.queue.task_done()

    async def _execute(self, request: Dict[str, Any],
                       wire_format: str = codec.FORMAT_JSON) -> None:
        schedule = self.server.fault_schedule
        fault_index = None
        if schedule is not None and request.get("op") in _DATA_OPS:
            fault_index = schedule.next_index()
        reply = self.server.handle_request(request)
        self.server.requests_served += 1
        if fault_index is not None:
            if schedule.should_drop(fault_index):
                return  # executed, but the reply never leaves the server
            delay = schedule.delay_for(fault_index)
            if delay > 0:
                await asyncio.sleep(delay)
        try:
            # Reply in the format the request arrived in: negotiation stays a
            # per-frame property, so JSON and binary clients share one server.
            self.writer.write(codec.encode_frame(reply, wire_format=wire_format))
            await self.writer.drain()
        except (ConnectionError, OSError):
            self._eof = True

    async def drain_and_close(self) -> None:
        """Finish queued requests, flush replies, then close the link."""
        await self.queue.join()
        self._eof = True
        try:
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass
        self.writer.close()
        # Wake the read loop (blocked in reader.read) so the connection task
        # can unwind and finish instead of being cancelled at loop teardown.
        self.reader.feed_eof()


class ServerThread:
    """Run a :class:`NodeServer` on a private event loop in a daemon thread.

    The constructor arguments are forwarded to :meth:`NodeServer.start`.
    ``start()`` returns once the listeners are bound; ``stop()`` requests a
    graceful shutdown from any thread and joins.  Usable as a context
    manager::

        with ServerThread(NodeServer(peers=32, seed=7)) as thread:
            cluster = connect(thread.server.tcp_address)
    """

    def __init__(self, server: NodeServer, *, host: Optional[str] = "127.0.0.1",
                 port: int = 0, uds: Optional[str] = None) -> None:
        self.server = server
        self._start_kwargs = {"host": host, "port": port, "uds": uds}
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServerThread":
        """Launch the loop thread and block until the server is listening."""
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-net-server")
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start(**self._start_kwargs))
        except BaseException as error:  # noqa: B902 - reported to start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(self.server.wait_stopped())
            # Give connection tasks a moment to observe the closed writers,
            # so the loop closes without destroying pending tasks.
            pending = [task for task in asyncio.all_tasks(loop)
                       if not task.done()]
            if pending:
                loop.run_until_complete(asyncio.wait(pending, timeout=1.0))
        finally:
            loop.close()

    def stop(self) -> None:
        """Request a graceful stop and join the loop thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed() and self._thread is not None \
                and self._thread.is_alive():
            try:
                asyncio.run_coroutine_threadsafe(self.server.stop(), loop)
            except RuntimeError:
                pass  # the loop stopped between the liveness check and the call
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
