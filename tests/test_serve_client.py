"""Tests for the client protocol core and its two drivers.

:class:`ClientCore` and :class:`PipelineRun` are tested with no sockets:
response streams split at arbitrary byte offsets, and pipeline rounds fed
hand-made outcomes.  The drivers are tested against a scripted RSP/1 stub
server on a plain socket, parametrized over both clients, so a drop, a BUSY
shed and the number of request frames on each connection are exact rather
than timing-dependent.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import AsyncLabelClient, LabelClient, protocol
from repro.serve.client import (
    ClientCore,
    PipelineRun,
    ServerBusy,
    ServerError,
    ServerMoved,
)

CLIENTS = ["blocking", "async"]


# -- a scripted stub server ----------------------------------------------------


class StubServer:
    """An RSP/1 server on a plain socket that serves connections in turn.

    QUERY ``(u, v)`` is answered ``u + v`` (exact kind) and MATRIX with a
    ``side``×``side`` block of ``|a - b|``.  ``shed(u, v)`` marks pairs that
    are answered BUSY the first time the server sees them, like a tiny
    ``max_pending`` queue would.  With ``close_after=K`` the first
    connection stops after K requests: it half-closes (so the K responses
    are delivered before the EOF) and reads the rest unanswered.  Each
    connection's decoded requests are kept in ``requests``.
    """

    def __init__(self, *, close_after=None, shed=lambda u, v: False, side=3):
        self.close_after = close_after
        self.shed = shed
        self.side = side
        self.seen: set[tuple[int, int]] = set()
        self.requests: list[list[tuple]] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.address = self._listener.getsockname()[:2]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(10)
        self._listener.close()
        assert not self._thread.is_alive()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(10)
                try:
                    self._handle(conn, first=not self.requests)
                except OSError:  # a reset peer ends its connection only
                    pass

    def _handle(self, conn: socket.socket, first: bool) -> None:
        received: list[tuple] = []
        self.requests.append(received)
        decoder = protocol.FrameDecoder()
        answering = True
        while True:
            data = conn.recv(65536)
            if not data:
                return
            decoder.feed(data)
            out = bytearray()
            for body in decoder.frames():
                request = protocol.decode_request(body)
                received.append(request)
                if answering:
                    out += self._respond(request)
                    if first and len(received) == self.close_after:
                        answering = False
                        conn.sendall(out)
                        conn.shutdown(socket.SHUT_WR)
            if answering:
                conn.sendall(out)

    def _respond(self, request: tuple) -> bytes:
        op, request_id, _, payload, _, _ = request
        if op == protocol.OP_QUERY:
            if self.shed(*payload) and payload not in self.seen:
                self.seen.add(payload)
                return protocol.encode_busy(request_id, 1)
            return protocol.encode_result(request_id, protocol.KIND_EXACT, [sum(payload)])
        if op == protocol.OP_MATRIX:
            nodes = range(self.side) if payload is None else payload
            values = [abs(a - b) for a in nodes for b in nodes]
            return protocol.encode_result(request_id, protocol.KIND_EXACT, values)
        info = {"members": {"": {"n": self.side}}}
        return protocol.encode_json_response(protocol.OP_INFO_RESULT, request_id, info)


@pytest.fixture()
def stub_factory():
    servers: list[StubServer] = []

    def make(**script) -> StubServer:
        servers.append(StubServer(**script))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


def _with_client(kind: str, server: StubServer, call):
    """``call(client)`` through a fresh client of ``kind``; returns the
    result and the (closed) client for its counters."""
    host, port = server.address
    if kind == "blocking":
        with LabelClient(host, port, timeout=10) as client:
            return call(client), client

    async def main():
        client = await AsyncLabelClient.connect(host, port)
        try:
            return await asyncio.wait_for(call(client), 30), client
        finally:
            await client.close()

    return asyncio.run(main())


# -- drivers against the stub --------------------------------------------------


@pytest.mark.parametrize("kind", CLIENTS)
def test_pipeline_drop_reissues_only_unanswered_requests(kind, stub_factory):
    """A connection that answers K of N pipelined QUERYs and then closes:
    the reconnected pass re-sends exactly the N - K unanswered requests."""
    n, k = 40, 10
    server = stub_factory(close_after=k)
    pairs = [(i, 2 * i) for i in range(n)]
    answers, client = _with_client(
        kind, server, lambda c: c.pipeline(pairs, raw=True, window=64)
    )
    assert answers == [u + v for u, v in pairs]
    assert client.reconnects == 1
    assert len(server.requests) == 2
    resent = server.requests[1]
    assert len(resent) == n - k
    assert [request[3] for request in resent] == pairs[k:]


@pytest.mark.parametrize("kind", CLIENTS)
@pytest.mark.parametrize("nodes", [None, [4, 0, 2]])
def test_matrix_costs_one_request(kind, nodes, stub_factory):
    server = stub_factory(side=3)
    rows, _ = _with_client(kind, server, lambda c: c.matrix(nodes, raw=True))
    side_nodes = range(3) if nodes is None else nodes
    assert rows == [[abs(a - b) for b in side_nodes] for a in side_nodes]
    assert [request[0] for request in server.requests[0]] == [protocol.OP_MATRIX]


def test_async_queries_of_one_tick_share_one_write(stub_factory):
    """64 concurrent ``query()`` calls reach the transport as one write."""
    server = stub_factory()
    pairs = [(i, 3 * i) for i in range(64)]

    async def main():
        client = await AsyncLabelClient.connect(*server.address)
        transport = client._writer.transport
        writes = []
        write = transport.write

        def counted(data):
            writes.append(bytes(data))
            write(data)

        transport.write = counted
        try:
            answers = await asyncio.gather(*(client.query(u, v, raw=True) for u, v in pairs))
        finally:
            await client.close()
        return answers, writes

    answers, writes = asyncio.run(main())
    assert answers == [u + v for u, v in pairs]
    assert len(writes) == 1
    assert [request[3] for request in server.requests[0]] == pairs


def test_async_concurrent_queries_survive_a_drop(stub_factory):
    """The drop-after-K scenario with concurrent ``query()`` calls: one
    reconnect, and the replacement connection sees only fresh-id retries of
    the N - K unanswered requests, each once."""
    n, k = 40, 10
    server = stub_factory(close_after=k)
    pairs = [(i, 2 * i) for i in range(n)]
    answers, client = _with_client(
        "async",
        server,
        lambda c: asyncio.gather(*(c.query(u, v, raw=True) for u, v in pairs)),
    )
    assert answers == [u + v for u, v in pairs]
    assert client.reconnects == 1
    assert len(server.requests) == 2
    first, resent = server.requests
    assert [request[3] for request in first] == pairs  # one write, before the drop
    assert sorted(request[3] for request in resent) == pairs[k:]
    assert min(request[1] for request in resent) > max(request[1] for request in first)


def test_both_drivers_agree_on_busy_and_drop(stub_factory):
    """One scenario — every third pair shed once, a drop after 25 requests,
    a small window — through both clients: identical answers and counters."""
    pairs = [(i, i + 1) for i in range(60)]
    seen = {}
    for kind in CLIENTS:
        server = stub_factory(close_after=25, shed=lambda u, v: u % 3 == 0)
        answers, client = _with_client(
            kind, server, lambda c: c.pipeline(pairs, raw=True, window=8)
        )
        assert answers == [u + v for u, v in pairs]
        seen[kind] = (client.busy_retried, client.reconnects, client.route_redirects)
    assert seen["blocking"] == seen["async"] == (20, 1, 0)


# -- the core, with no sockets -------------------------------------------------


def _responses():
    """A mixed response stream and each frame's expected outcome."""
    stream = [
        protocol.encode_result(1, protocol.KIND_EXACT, [7, 9]),
        protocol.encode_busy(2, 5),
        protocol.encode_error(3, "node out of range"),
        protocol.encode_moved(4, 6, "acl", "10.0.0.2", 7200),
        protocol.encode_json_response(protocol.OP_STATS_RESULT, 5, {"queries": 3}),
        protocol.encode_result(6, protocol.KIND_BOUNDED, [None, 2]),
    ]
    expected = [
        (1, (protocol.OP_RESULT, (protocol.KIND_EXACT, None, [7, 9]))),
        (2, ("ServerBusy", 5)),
        (3, ("ServerError", "node out of range")),
        (4, ("ServerMoved", (6, "acl", "10.0.0.2", 7200))),
        (5, (protocol.OP_STATS_RESULT, {"queries": 3})),
        (6, (protocol.OP_RESULT, (protocol.KIND_BOUNDED, None, [None, 2]))),
    ]
    return b"".join(stream), expected


def _plain(outcome):
    """An outcome as comparable data (exceptions by type and fields)."""
    if isinstance(outcome, tuple):
        return outcome
    if isinstance(outcome, ServerBusy):
        return ("ServerBusy", outcome.retry_after_ms)
    if isinstance(outcome, ServerMoved):
        return ("ServerMoved", (outcome.version, outcome.member, outcome.host, outcome.port))
    return (type(outcome).__name__, str(outcome))


@settings(max_examples=200, deadline=None)
@given(cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=12))
def test_core_outcomes_survive_arbitrary_chunking(cuts):
    stream, expected = _responses()
    core = ClientCore()
    bounds = sorted({min(cut, len(stream)) for cut in cuts} | {0, len(stream)})
    seen = []
    for start, end in zip(bounds, bounds[1:]):
        seen.extend(core.feed(stream[start:end]))
    assert [(rid, _plain(outcome)) for rid, outcome in seen] == expected


def test_core_frames_and_finishes_requests():
    core = ClientCore()
    query = (protocol.OP_QUERY, (3, 4, "m", None), False)
    assert core.frame(query, 9) == protocol.encode_query(9, 3, 4, "m")
    core.adopt_routing({"version": 5})
    assert core.frame(query, 9) == protocol.encode_query(9, 3, 4, "m", route_version=5)
    stats = (protocol.OP_STATS, ("m", True), False)
    assert core.frame(stats, 2) == protocol.encode_stats(2, "m", detail=True)
    block = (protocol.KIND_EXACT, None, [0, 1, 1, 0])
    matrix = (protocol.OP_MATRIX, (None, "m"), True)
    assert core.finish(matrix, (protocol.OP_RESULT, block)) == [[0, 1], [1, 0]]
    assert core.finish(query, (protocol.OP_RESULT, block)).value == 0
    assert core.finish(stats, (protocol.OP_STATS_RESULT, {"q": 1})) == {"q": 1}


def test_core_retry_budgets_raise_once_spent():
    core = ClientCore(busy_retries=2, reconnect_retries=1)
    shed = ServerBusy(1)
    assert core.busy_delay(shed, 1) > 0 and core.busy_delay(shed, 2) > 0
    with pytest.raises(ServerBusy):
        core.busy_delay(shed, 3)
    assert core.busy_retried == 2
    lost = ConnectionError("gone")
    assert core.reconnect_delay(1, 1, lost) > 0
    with pytest.raises(ConnectionError):
        core.reconnect_delay(2, 0, lost)
    with pytest.raises(ConnectionError):
        core.reconnect_delay(1, 2, lost)


def _answer(value):
    return (protocol.OP_RESULT, (protocol.KIND_EXACT, None, [value]))


def _run(pairs, **budgets):
    return PipelineRun(ClientCore(**budgets), pairs, "", 0)


def test_round_policy_all_busy_rounds_spend_the_budget():
    run = _run([(0, 1), (2, 3)], busy_retries=2)
    for _ in range(2):
        ids, frames = run.next_pass()
        assert len(ids) == len(frames) == 2
        delay, lost = run.settle([ServerBusy(1)] * 2, True)
        assert delay > 0 and lost is None
    run.next_pass()
    with pytest.raises(ServerBusy):
        run.settle([ServerBusy(1)] * 2, True)
    assert run.core.busy_retried == 4


def test_round_policy_partial_progress_resets_the_budget():
    run = _run([(0, 1), (2, 3), (4, 5)], busy_retries=1)
    run.next_pass()
    run.settle([ServerBusy(1)] * 3, True)
    assert run.stalled == 1
    run.next_pass()
    run.settle([_answer(1), ServerBusy(1), ServerBusy(1)], True)
    assert run.stalled == 0 and run.todo == [1, 2]
    run.next_pass()
    run.settle([ServerBusy(1)] * 2, True)  # within the budget again
    run.next_pass()
    assert run.settle([_answer(5), _answer(9)], True) == (0.0, None)
    assert run.todo == [] and run.results(raw=True) == [1, 5, 9]


def test_round_policy_reissues_dropped_requests():
    run = _run([(0, 1), (2, 3), (4, 5)])
    run.next_pass()
    lost = ConnectionError("server closed the connection")
    delay, got = run.settle([_answer(1), lost, ServerBusy(1)], True)
    assert got is lost and delay > 0
    assert run.todo == [1, 2] and run.drops == 1
    ids, _ = run.next_pass()
    assert len(ids) == 2
    assert run.settle([_answer(5), _answer(9)], True) == (0.0, None)
    assert run.drops == 0 and run.results(raw=True) == [1, 5, 9]
    # a client that cannot reconnect raises the drop instead
    stuck = _run([(0, 1)])
    stuck.next_pass()
    with pytest.raises(ConnectionError):
        stuck.settle([lost], False)


def test_round_policy_error_raises_after_collecting_every_outcome():
    run = _run([(0, 1), (2, 3), (4, 5), (6, 7)])
    run.next_pass()
    first = ServerError("node out of range")
    with pytest.raises(ServerError) as raised:
        run.settle([first, _answer(5), ServerError("later"), ServerBusy(1)], True)
    assert raised.value is first
    assert run.answers[1] is not None  # the answer after it was still taken


def test_first_pass_alone_samples_traces():
    run = PipelineRun(ClientCore(), [(0, 1), (2, 3), (4, 5)], "m", 2)
    _, frames = run.next_pass()
    traced = [protocol.decode_request(frame[1:])[4] for frame in frames]
    assert traced == run.core.traced_ids[:1] + [None] + run.core.traced_ids[1:]
    run.settle([ServerBusy(1)] * 3, True)
    _, frames = run.next_pass()
    assert all(protocol.decode_request(frame[1:])[4] is None for frame in frames)

