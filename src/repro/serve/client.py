"""Clients for the :mod:`repro.serve` wire protocol: one core, two drivers.

:class:`ClientCore` makes every protocol decision and does no I/O (the
sans-IO pattern, https://sans-io.readthedocs.io/): request and trace ids,
the frame decoder and the mapping from response op to answer or error, the
frame builders and result finishers, the member-routing state, and the
BUSY, reconnect and pipeline-round retry budgets.  Bytes go in; outcomes,
frames and retry decisions come out.  Two drivers move the bytes:

:class:`LabelClient`
    one reused blocking socket and ``time.sleep`` — scripts, REPLs, tests,
    and threads that already run an event loop.

:class:`AsyncLabelClient`
    asyncio streams with a background reader task; any number of requests
    may be outstanding concurrently (responses are matched by request id,
    so coalesced servers may answer out of order).

Both return the same typed :class:`repro.api.QueryResult` values as the
in-process :class:`DistanceIndex` — the wire carries the result *kind* and
ratio bound, so exact, k-distance and approximate schemes round-trip with
their semantics intact.  Pass ``raw=True`` for the native values.
``pipeline`` keeps a window of QUERY requests in flight so one connection
can saturate the server's micro-batching coalescer.

Backpressure: an overloaded server sheds QUERY/MATRIX requests with
``OP_BUSY`` instead of queueing them.  Both clients retry busy requests
transparently with exponential backoff and full jitter (so a fleet of
retrying clients does not resynchronise into thundering herds); the retry
budget is per-request (``busy_retries``) and exhausting it raises
:class:`ServerBusy`.  ``pipeline`` retries only the shed subset of its
window — answered requests are never re-sent.

Self-healing: against a supervised fleet, a dropped connection (worker
crash, rolling reload) is a *retryable* event, not an error.  Clients that
know their remote address reconnect with the same jittered backoff — the
kernel (or the supervisor's replacement worker) lands the new connection on
a live worker — and re-issue only the unanswered requests; queries are
read-only, so the re-send is always safe.  The budget is
``reconnect_retries`` consecutive failures per call, and the lifetime
``reconnects`` counter makes chaos tests' healing visible.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random
import socket
import time
from operator import attrgetter

from repro.api.result import QueryResult
from repro.serve import protocol
from repro.serve.retry import backoff_delay as _backoff_delay


class ServerError(RuntimeError):
    """An :data:`repro.serve.protocol.OP_ERROR` response from the server."""


class ServerBusy(ServerError):
    """An :data:`repro.serve.protocol.OP_BUSY` response: the request was
    shed by server backpressure and may be retried after a delay."""

    def __init__(self, retry_after_ms: int = 1) -> None:
        super().__init__(f"server busy; retry in ~{retry_after_ms}ms")
        self.retry_after_ms = retry_after_ms


class ServerMoved(ServerError):
    """An :data:`repro.serve.protocol.OP_MOVED` redirect hint.

    A routed request named a member the answering worker does not own; the
    hint carries the owning slot's direct endpoint and the authoritative
    routing-table version.  Routed clients apply the hint and re-issue the
    request (queries are read-only, so the re-send is always safe).
    """

    def __init__(self, version: int, member: str, host: str, port: int) -> None:
        super().__init__(
            f"member {member!r} is owned elsewhere: {host}:{port} "
            f"(routing table v{version})"
        )
        self.version = version
        self.member = member
        self.host = host
        self.port = port


_BEYOND = QueryResult(None, False, False, None)

#: request ops answered with an ``OP_RESULT`` value block
_VALUE_OPS = frozenset({protocol.OP_QUERY, protocol.OP_BATCH, protocol.OP_MATRIX})


def wrap_values(kind: int, ratio_bound: float | None, values: list) -> list:
    """Typed :class:`QueryResult` objects from one decoded value block."""
    if kind == protocol.KIND_EXACT:
        return [QueryResult(value, True, True, 1.0) for value in values]
    if kind == protocol.KIND_BOUNDED:
        return [
            _BEYOND if value is None else QueryResult(value, True, True, 1.0)
            for value in values
        ]
    return [QueryResult(value, False, True, ratio_bound) for value in values]


def _unwrap(payload, raw: bool) -> list:
    kind, ratio_bound, values = payload
    return values if raw else wrap_values(kind, ratio_bound, values)


def _outcome(op: int, payload):
    """A response as its request's outcome: ``(op, payload)`` when answered,
    else the :class:`ServerError` it stands for."""
    if op == protocol.OP_BUSY:
        return ServerBusy(payload)
    if op == protocol.OP_ERROR:
        return ServerError(payload)
    if op == protocol.OP_MOVED:
        return ServerMoved(*payload)
    return op, payload


class ClientCore:
    """The protocol state and decisions of one client connection, no I/O.

    A *request* is a tuple ``(op, args, raw)``: :meth:`frame` renders it
    under a request id, :meth:`finish` turns its answer into the caller's
    value.
    """

    def __init__(
        self,
        *,
        busy_retries: int = 8,
        busy_base_delay: float = 0.002,
        reconnect_retries: int = 8,
        route_retries: int = 3,
    ) -> None:
        self.busy_retries = busy_retries
        self.busy_base_delay = busy_base_delay
        self.reconnect_retries = reconnect_retries
        self.route_retries = route_retries
        self.ids = itertools.count(1)
        self.decoder = protocol.FrameDecoder()
        #: trace ids this client stamped on requests (``pipeline`` sampling
        #: and explicit ``trace_id=`` calls); random base so ids from many
        #: clients against one fleet don't collide
        self._trace_ids = itertools.count(random.getrandbits(48))
        self.traced_ids: list[int] = []
        #: lifetime count of BUSY responses this client retried
        self.busy_retried = 0
        #: lifetime count of connections re-established after a drop
        self.reconnects = 0
        #: lifetime count of MOVED hints applied
        self.route_redirects = 0
        self.route_table: dict | None = None
        self.route_checked = False
        self.route_overrides: dict[str, tuple[str, int]] = {}
        #: when set, QUERY/BATCH frames carry the route-version suffix — the
        #: marker that lets a sharded worker answer MOVED instead of serving
        #: a member it does not own (routed leaf connections set this)
        self.route_stamp: int | None = None
        self._framer_key: tuple | None = None
        self._framer = None

    def next_trace_id(self) -> int:
        """A fresh client-unique trace id (also remembered in ``traced_ids``)."""
        trace_id = next(self._trace_ids)
        self.traced_ids.append(trace_id)
        return trace_id

    # -- bytes in: outcomes out -----------------------------------------------

    def feed(self, data: bytes) -> list[tuple[int, object]]:
        """``(request_id, outcome)`` for every response completed by ``data``."""
        self.decoder.feed(data)
        out = []
        for body in self.decoder.frames():
            op, request_id, payload = protocol.decode_response(body)
            out.append((request_id, _outcome(op, payload)))
        return out

    def reconnected(self) -> None:
        """A replacement connection: drop the old stream's partial frame."""
        self.decoder = protocol.FrameDecoder()
        self.reconnects += 1

    # -- requests: frames out, values back ------------------------------------

    def framer(self, name: str):
        """The QUERY frame builder for ``name`` at the current route stamp
        (kept for the next request to the same member)."""
        key = (name, self.route_stamp)
        if key != self._framer_key:
            self._framer_key, self._framer = key, protocol.query_framer(*key)
        return self._framer

    def frame(self, request: tuple, request_id: int) -> bytes:
        """``request``'s frame under ``request_id`` (fresh per attempt, so a
        late answer to a shed attempt is never taken for the retry's)."""
        op, args = request[0], request[1]
        if op == protocol.OP_QUERY:
            u, v, name, trace_id = args
            return self.framer(name)(request_id, u, v, trace_id)
        if op == protocol.OP_BATCH:
            pairs, name, trace_id = args
            return protocol.encode_batch(
                request_id, pairs, name, trace_id, self.route_stamp
            )
        if op == protocol.OP_MATRIX:
            return protocol.encode_matrix(request_id, *args)
        if op == protocol.OP_STATS:
            name, detail = args
            return protocol.encode_stats(request_id, name, detail=detail)
        if op == protocol.OP_TRACE:
            limit, slow = args
            return protocol.encode_trace_request(request_id, limit=limit, slow=slow)
        return protocol.encode_info(request_id)

    def finish(self, request: tuple, answer: tuple):
        """The caller's value for ``request`` from its ``(op, payload)``."""
        op, payload = request[0], answer[1]
        if op not in _VALUE_OPS:
            return payload  # STATS / TRACE / INFO: the JSON document
        values = _unwrap(payload, request[2])
        if op == protocol.OP_QUERY:
            return values[0]
        if op == protocol.OP_MATRIX:  # row-major; the side is read off the reply
            side = math.isqrt(len(values))
            return [values[row * side : (row + 1) * side] for row in range(side)]
        return values

    # -- retry budgets --------------------------------------------------------

    def busy_delay(self, shed: ServerBusy, attempt: int) -> float:
        """Backoff before re-sending a request shed ``attempt`` times in a row;
        raises ``shed`` once that outruns ``busy_retries``."""
        if attempt > self.busy_retries:
            raise shed
        self.busy_retried += 1
        return _backoff_delay(attempt, shed.retry_after_ms, self.busy_base_delay)

    def reconnect_delay(self, drops: int, refused: int, error: Exception) -> float:
        """Backoff before the next dial after drop ``drops`` and ``refused``
        refusals since; raises ``error`` once either outruns the budget.

        Refusals are retried too: against a one-worker fleet there is a
        window where the replacement worker has not bound yet.
        """
        if drops > self.reconnect_retries or refused > self.reconnect_retries:
            raise error
        return _backoff_delay(drops + refused, 1, self.busy_base_delay)

    # -- member-aware routing -------------------------------------------------

    def adopt_routing(self, table: dict | None) -> None:
        """Work from ``table`` (``None``: the server publishes none)."""
        self.route_checked = True
        self.route_table = table
        if table is not None:
            self.route_stamp = int(table.get("version", 0))

    def endpoint(self, name: str) -> tuple[str, int] | None:
        """The direct endpoint of ``name``'s owner, if routing knows one."""
        from repro.serve.routing import member_endpoint

        endpoint = self.route_overrides.get(name)
        if endpoint is None and self.route_table is not None:
            endpoint = member_endpoint(self.route_table, name)
        return endpoint

    def _apply_moved(self, moved: ServerMoved) -> None:
        """Adopt a MOVED hint: pin the member, advance the table version."""
        self.route_redirects += 1
        self.route_overrides[moved.member] = (moved.host, moved.port)
        if self.route_stamp is None or moved.version > self.route_stamp:
            self.route_stamp = moved.version


class PipelineRun:
    """The round policy of one ``pipeline`` call, with no I/O: each round
    the driver sends :meth:`next_pass`'s frames and hands :meth:`settle`
    each request's outcome, in order — its answer or the exception it met.
    """

    def __init__(
        self, core: ClientCore, pairs: list, name: str, trace_every: int
    ) -> None:
        self.core = core
        self.pairs = pairs
        self.name = name
        self.answers: list = [None] * len(pairs)
        self.todo = list(range(len(pairs)))
        self.trace_every = trace_every
        self.stalled = 0  #: consecutive BUSY rounds that answered nothing
        self.drops = 0  #: consecutive rounds that lost the connection

    def next_pass(self) -> tuple[list, list]:
        """Fresh ids and QUERY frames for this round (only the first round
        samples trace ids: re-issued requests are never traced)."""
        core = self.core
        frame = core.framer(self.name)
        trace_every, self.trace_every = self.trace_every, 0
        ids = [next(core.ids) for _ in self.todo]
        frames = []
        for index, slot in enumerate(self.todo):
            u, v = self.pairs[slot]
            trace_id = (
                core.next_trace_id() if trace_every and index % trace_every == 0 else None
            )
            frames.append(frame(ids[index], u, v, trace_id))
        return ids, frames

    def settle(self, outcomes: list, reconnectable: bool):
        """Fold one pass's outcomes in; returns ``(delay, lost)``: sleep
        ``delay``, and first reconnect if the connection was ``lost``.

        Raises only after every outcome is collected: the first ERROR or
        MOVED (a routed parent re-runs the window at the corrected
        endpoint), a drop that cannot reconnect, or ``ServerBusy`` once
        rounds that answered nothing outrun the budget.
        """
        busy: list[int] = []
        dropped: list[int] = []
        failure = lost = None
        for slot, outcome in zip(self.todo, outcomes):
            if isinstance(outcome, tuple):
                self.answers[slot] = outcome[1]
            elif isinstance(outcome, ServerBusy):
                busy.append(slot)
            elif reconnectable and isinstance(outcome, (ConnectionError, OSError)):
                # unanswered when the connection died: safe to re-issue
                dropped.append(slot)
                lost = lost or outcome
            elif failure is None:
                failure = outcome
        if failure is not None:
            raise failure
        self.drops = self.drops + 1 if dropped else 0
        delay = 0.0
        if busy:
            # the retry budget counts *no-progress* rounds: an
            # overloaded-but-live server answers a few requests per round
            # and the pipeline keeps converging, while a server shedding
            # everything exhausts the budget and raises
            progress = len(busy) + len(dropped) < len(self.todo)
            self.stalled = 0 if progress else self.stalled + 1
            if self.stalled > self.core.busy_retries:
                raise ServerBusy()
            self.core.busy_retried += len(busy)
            delay = _backoff_delay(self.stalled, 1, self.core.busy_base_delay)
        self.todo = sorted(busy + dropped)
        return delay, lost

    def results(self, raw: bool) -> list:
        """Every answer, in ``pairs`` order."""
        return [_unwrap(payload, raw)[0] for payload in self.answers]


class _Client:
    """The request API shared by both drivers: each method builds a request
    for the driver's ``_call`` (or ``_routed_call``), which on
    :class:`AsyncLabelClient` are coroutines — every method returns an
    awaitable there.

    Options: ``route`` (member-aware routing, below) and the
    :class:`ClientCore` budgets — ``busy_retries`` (8 BUSY retries per
    request), ``busy_base_delay`` (0.002 s backoff base),
    ``reconnect_retries`` (8 consecutive drops) and ``route_retries`` (3
    MOVED redirects per call).
    """

    busy_retried = property(attrgetter("core.busy_retried"))
    reconnects = property(attrgetter("core.reconnects"))
    route_redirects = property(attrgetter("core.route_redirects"))
    traced_ids = property(attrgetter("core.traced_ids"))
    next_trace_id = property(attrgetter("core.next_trace_id"))

    def __init__(self, *, route: bool = False, **budgets) -> None:
        #: member-aware routing (the ``routing`` feature): with ``route=True``
        #: the client fetches the fleet's routing table from INFO and pins
        #: per-member requests straight to the owning shard's direct port,
        #: applying ``MOVED`` redirect hints when its table goes stale and
        #: falling back to the shared address when routing cannot help
        self.route = route
        self._budgets = budgets  # routed leaf connections inherit them
        self.core = ClientCore(**budgets)

    def _request(self, name: str, request: tuple):
        if self.route:
            return self._routed_call(name, lambda leaf: leaf._call(request))
        return self._call(request)

    def query(
        self, u: int, v: int, *, name: str = "", raw: bool = False,
        trace_id: int | None = None,
    ):
        """One distance query; a :class:`QueryResult` unless ``raw``.

        ``trace_id`` stamps the request with the additive trace field: the
        server records per-stage spans for it, retrievable via
        :meth:`trace`.  Old servers ignore the field.
        """
        return self._request(name, (protocol.OP_QUERY, (u, v, name, trace_id), raw))

    def batch(
        self, pairs, *, name: str = "", raw: bool = False,
        trace_id: int | None = None,
    ):
        """Answer many pairs with a single BATCH request."""
        return self._request(
            name, (protocol.OP_BATCH, (list(pairs), name, trace_id), raw)
        )

    def matrix(self, nodes=None, *, name: str = "", raw: bool = False):
        """All pairwise answers over ``nodes`` (default: every node).

        One MATRIX request: the side of the square is read off the reply.
        """
        nodes = None if nodes is None else list(nodes)
        return self._request(name, (protocol.OP_MATRIX, (nodes, name), raw))

    def stats(self, name: str = "", *, detail: bool = False):
        """Server statistics (plus one member's cache stats when named).

        ``detail=True`` asks for the latency/per-stage histogram snapshots
        (and the raw reservoir) that fleet merging needs; plain polls should
        leave it off.
        """
        return self._call((protocol.OP_STATS, (name, detail), False))

    def trace(self, *, limit: int = 32, slow: bool = True):
        """The worker's recent-trace ring and slow-query log (OP_TRACE)."""
        return self._call((protocol.OP_TRACE, (limit, slow), False))

    def info(self):
        """Member listing: ``{"members": {name: {spec, kind, n, open}}}``."""
        return self._call((protocol.OP_INFO, (), False))

    def pipeline(
        self,
        pairs,
        *,
        name: str = "",
        raw: bool = False,
        window: int = 256,
        trace_every: int = 0,
    ):
        """Issue one QUERY per pair, keeping up to ``window`` in flight.

        This is the traffic shape the server's coalescer is built for: many
        independent single-pair requests on the wire at once.  Answers come
        back in ``pairs`` order regardless of the server's completion order.
        Requests shed with BUSY, or left unanswered by a dropped connection,
        are re-issued (only those) in later rounds with jittered backoff.

        ``trace_every=N`` stamps every Nth request of the first pass with a
        fresh trace id (collected in ``traced_ids``); the per-stage spans
        can be fetched afterwards with :meth:`trace`.  Re-issued requests
        are never traced.
        """
        pairs = list(pairs)
        if window < 1:
            raise ValueError("window must be at least 1")
        if self.route:
            # the whole window goes to one member's owner; on a stale-table
            # MOVED the full (read-only) window is re-asked at the corrected
            # endpoint — at most one redirect per member per staleness event
            return self._routed_call(
                name,
                lambda leaf: leaf.pipeline(
                    pairs, name=name, raw=raw, window=window, trace_every=trace_every
                ),
            )
        return self._pipeline(PipelineRun(self.core, pairs, name, trace_every), raw, window)


class LabelClient(_Client):
    """Blocking client over one reused TCP connection (options: see
    :class:`_Client`)."""

    def __init__(
        self, host: str, port: int, *, timeout: float | None = 30.0, **options
    ) -> None:
        super().__init__(**options)
        self._remote = (host, port)
        self._timeout = timeout
        self._sock = None
        self._route_pool: dict[tuple[str, int], LabelClient] = {}
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(self._remote, timeout=self._timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _reconnect(self, drops: int, error: Exception) -> None:
        """Replace the connection lost to ``error`` (drop number ``drops``)."""
        delay = self.core.reconnect_delay(drops, 0, error)
        self._close_socket()
        refused = 0
        while True:
            time.sleep(delay)
            try:
                self._connect()
            except OSError as refusal:
                refused += 1
                delay = self.core.reconnect_delay(drops, refused, refusal)
                continue
            self.core.reconnected()
            return

    # -- context management ---------------------------------------------------

    def __enter__(self) -> "LabelClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection and any routed leaf connections (idempotent)."""
        pool, self._route_pool = self._route_pool, {}
        for leaf in pool.values():
            leaf.close()
        self._close_socket()

    def _close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    # -- member-aware routing -------------------------------------------------

    def routing_table(self) -> dict | None:
        """The fleet's routing table, fetched once (no table ⇒ shared address)."""
        if not self.core.route_checked:
            try:
                table = self.info().get("routing")
            except ServerError:  # pragma: no cover - defensive
                table = None
            self.core.adopt_routing(table)
        return self.core.route_table

    def _leaf(self, endpoint: tuple[str, int], stamp: int | None) -> "LabelClient":
        """The pooled connection to ``endpoint``, stamping with ``stamp``."""
        leaf = self._route_pool.get(endpoint)
        if leaf is None:
            leaf = self._route_pool[endpoint] = LabelClient(
                *endpoint, timeout=self._timeout, **self._budgets
            )
        leaf.core.route_stamp = stamp
        return leaf

    def _routed_call(self, name: str, call):
        """Run ``call(leaf)`` against ``name``'s owner, following redirects.

        Falls back to the shared address — with an *unstamped* leaf, which a
        sharded worker always serves in place — when there is no table, no
        owner endpoint, or the redirect budget is spent (a pathological
        routing loop must degrade to the legacy path, not fail).
        """
        self.routing_table()
        core = self.core
        for _ in range(core.route_retries + 1):
            endpoint = core.endpoint(name)
            if endpoint is None:
                break
            try:
                return call(self._leaf(endpoint, core.route_stamp))
            except ServerMoved as moved:
                core._apply_moved(moved)
        return call(self._leaf(self._remote, None))

    # -- plumbing -------------------------------------------------------------

    def _receive(self) -> list[tuple[int, object]]:
        """The ``(request_id, outcome)`` pairs completed by the next chunk."""
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return self.core.feed(chunk)

    def _send(self, request: tuple):
        """One attempt of ``request``: its ``(op, payload)``, or the server's
        error raised — no retry.  It is the only request in flight: every
        pipeline pass reads all its answers or ends in a reconnect."""
        request_id = next(self.core.ids)
        self._sock.sendall(self.core.frame(request, request_id))
        while True:
            for seen_id, outcome in self._receive():
                if seen_id == request_id:
                    if isinstance(outcome, ServerError):
                        raise outcome
                    return outcome

    def _call(self, request: tuple):
        """``request``'s value, retrying BUSY sheds and dropped connections."""
        core = self.core
        busy = drops = 0
        while True:
            try:
                return core.finish(request, self._send(request))
            except ServerBusy as shed:
                busy += 1
                time.sleep(core.busy_delay(shed, busy))
            except (ConnectionError, OSError) as error:
                if self._sock is None:  # deliberately closed, not a drop
                    raise
                drops += 1
                self._reconnect(drops, error)

    def stats_all(self, *, detail: bool = False) -> list[dict]:
        """STATS from this connection plus every routed leaf connection.

        Fleet-merging consumers (``loadgen``) feed the list straight to
        :func:`repro.serve.metrics.merge_fleet_stats`, which dedupes rows by
        ``(slot, pid)`` — the direct connections a routed client holds are
        how it observes the specific workers it actually queried.
        """
        payloads = [self.stats(detail=detail)]
        for leaf in list(self._route_pool.values()):
            try:
                payloads.append(leaf.stats(detail=detail))
            except (ServerError, ConnectionError, OSError):
                continue
        return payloads

    def _pipeline(self, run: PipelineRun, raw: bool, window: int) -> list:
        while run.todo:
            outcomes = self._pipeline_pass(*run.next_pass(), window)
            delay, lost = run.settle(outcomes, self._sock is not None)
            if lost is not None:
                self._reconnect(run.drops, lost)
            if delay:
                time.sleep(delay)
        return run.results(raw)

    def _pipeline_pass(self, ids: list, frames: list, window: int) -> list:
        """One windowed pass: one outcome per request, in order.

        A drop ends the pass early; the requests it left unanswered get the
        connection error as their outcome, so only those are re-issued.
        """
        results: dict[int, object] = {}
        sent = 0
        try:
            while len(results) < len(ids):
                if sent < len(ids) and sent - len(results) < window:
                    # top the window up with one send
                    end = min(len(ids), len(results) + window)
                    self._sock.sendall(b"".join(frames[sent:end]))
                    sent = end
                else:
                    results.update(self._receive())
        except (ConnectionError, OSError) as error:
            return [results.get(request_id, error) for request_id in ids]
        return [results[request_id] for request_id in ids]


class AsyncLabelClient(_Client):
    """Asyncio client; responses are matched to requests by id (options:
    see :class:`_Client`)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, **options
    ) -> None:
        super().__init__(**options)
        self._reader = reader
        self._writer = writer
        self._waiting: dict[int, asyncio.Future] = {}
        self._broken: Exception | None = None
        #: remote address; set by :meth:`connect`.  Clients built from raw
        #: streams don't know it and keep the old fail-fast behaviour.
        self._remote: tuple[str, int] | None = None
        self._closed = False
        self._route_pool: dict[tuple[str, int], AsyncLabelClient] = {}
        self._route_lock = asyncio.Lock()
        #: one caller at a time replaces a lost connection
        self._reconnect_lock = asyncio.Lock()
        #: frames sent this event-loop tick, written together at its end
        self._outbox: list[bytes] | None = None
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @staticmethod
    async def _open(host: str, port: int):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        except (OSError, AttributeError):  # pragma: no cover - platform quirk
            pass
        return reader, writer

    @classmethod
    async def connect(cls, host: str, port: int, **kwargs) -> "AsyncLabelClient":
        """Open a connection and start the response reader.

        Clients opened this way remember the address and transparently
        reconnect when the connection drops (worker crash, rolling reload).
        """
        reader, writer = await cls._open(host, port)
        client = cls(reader, writer, **kwargs)
        client._remote = (host, port)
        return client

    async def _close_stream(self) -> None:
        """Stop the reader task and close the connection."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - already dead
            pass

    async def _reconnect(self, drops: int, error: Exception, lost: asyncio.Task) -> None:
        """Replace the connection lost to ``error`` (drop number ``drops``).

        ``lost`` is the read loop of the connection the caller saw fail:
        the concurrent callers that lost one connection replace it once,
        and the first to get here does it.
        """
        async with self._reconnect_lock:
            if lost is not self._reader_task:
                return  # already replaced
            delay = self.core.reconnect_delay(drops, 0, error)
            await self._close_stream()
            refused = 0
            while True:
                await asyncio.sleep(delay)
                try:
                    self._reader, self._writer = await self._open(*self._remote)
                except OSError as refusal:
                    refused += 1
                    delay = self.core.reconnect_delay(drops, refused, refusal)
                    continue
                break
            # in-flight futures were already failed by the dying read loop;
            # anything still registered belongs to the dead connection
            for future in self._waiting.values():
                if not future.done():  # pragma: no cover - defensive
                    future.set_exception(ConnectionError("connection was replaced"))
            self._waiting.clear()
            self._outbox = None  # frames for the old connection: see _write_outbox
            self._broken = None
            self.core.reconnected()
            self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    async def close(self) -> None:
        """Cancel the reader task and close the connection (pool included)."""
        self._closed = True
        pool, self._route_pool = self._route_pool, {}
        for leaf in pool.values():
            await leaf.close()
        await self._close_stream()

    async def __aenter__(self) -> "AsyncLabelClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- plumbing -------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                chunk = await self._reader.read(65536)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                for request_id, outcome in self.core.feed(chunk):
                    future = self._waiting.pop(request_id, None)
                    if future is not None and not future.done():
                        if isinstance(outcome, ServerError):
                            future.set_exception(outcome)
                        else:
                            future.set_result(outcome)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # propagate to every waiter, then stop
            self._broken = error
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(error)
            self._waiting.clear()

    def _send(self, request: tuple) -> asyncio.Future:
        """Send one attempt of ``request`` under a fresh id; the future
        resolves to ``(op, payload)`` or fails with the server's error (no
        retry).  Fails fast when the reader is gone: nothing would ever
        resolve a future registered after that point.

        The frame joins this tick's outbox, so concurrent requests cost
        the server one read and the client one ``write`` per tick.
        """
        if self._reader_task.done():
            raise self._broken or ConnectionError("client connection is closed")
        request_id = next(self.core.ids)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._waiting[request_id] = future
        frame = self.core.frame(request, request_id)
        outbox = self._outbox
        if outbox is None:
            outbox = self._outbox = []
            loop.call_soon(self._write_outbox, self._writer, outbox)
        outbox.append(frame)
        return future

    def _write_outbox(self, writer: asyncio.StreamWriter, frames: list) -> None:
        """Write one tick's frames in one call.  Frames for a writer that
        has since been replaced are dropped: their futures failed with the
        old connection's read loop, and :meth:`_call` sends them again."""
        if self._outbox is frames:
            self._outbox = None
        if writer is self._writer:
            writer.write(b"".join(frames))

    async def _call(self, request: tuple):
        """``request``'s value, retrying BUSY sheds and, for address-aware
        clients (built via :meth:`connect`), dropped connections."""
        core = self.core
        busy = drops = 0
        while True:
            connection = self._reader_task
            try:
                return core.finish(request, await self._send(request))
            except ServerBusy as shed:
                busy += 1
                await asyncio.sleep(core.busy_delay(shed, busy))
            except (ConnectionError, OSError) as error:
                if self._remote is None or self._closed:
                    raise
                drops += 1
                await self._reconnect(drops, error, connection)

    # -- member-aware routing -------------------------------------------------

    async def routing_table(self) -> dict | None:
        """The fleet's routing table, fetched once (no table ⇒ shared address).

        Concurrent callers (``asyncio.gather`` of routed requests) wait for
        the in-flight fetch instead of falling back unrouted — otherwise every
        gather but the first would miss the table and go unstamped through
        the shared address.
        """
        async with self._route_lock:
            if not self.core.route_checked:
                try:
                    table = (await self.info()).get("routing")
                except ServerError:  # pragma: no cover - defensive
                    table = None
                self.core.adopt_routing(table)
        return self.core.route_table

    async def _leaf(
        self, endpoint: tuple[str, int], stamp: int | None
    ) -> "AsyncLabelClient":
        """The pooled connection to ``endpoint``, stamping with ``stamp``."""
        leaf = self._route_pool.get(endpoint)
        if leaf is None:
            leaf = self._route_pool[endpoint] = await AsyncLabelClient.connect(
                *endpoint, **self._budgets
            )
        leaf.core.route_stamp = stamp
        return leaf

    async def _routed_call(self, name: str, call):
        """Run ``await call(leaf)`` against ``name``'s owner (see
        :meth:`LabelClient._routed_call` for the redirect/fallback contract)."""
        await self.routing_table()
        core = self.core
        for _ in range(core.route_retries + 1):
            endpoint = core.endpoint(name)
            if endpoint is None:
                break
            try:
                return await call(await self._leaf(endpoint, core.route_stamp))
            except ServerMoved as moved:
                core._apply_moved(moved)
        if self._remote is None:
            raise ConnectionError(
                "routed requests need an address-aware client (use connect())"
            )
        return await call(await self._leaf(self._remote, None))

    async def stats_all(self, *, detail: bool = False) -> list[dict]:
        """STATS from this connection plus every pooled routed connection.

        Routed clients spread work over per-shard connections; a single
        :meth:`stats` only reflects whichever worker this socket landed on.
        """
        rows = [await self.stats(detail=detail)]
        for leaf in list(self._route_pool.values()):
            try:
                rows.append(await leaf.stats(detail=detail))
            except (ServerError, ConnectionError, OSError):
                continue
        return rows

    async def _pipeline(self, run: PipelineRun, raw: bool, window: int) -> list:
        reconnectable = self._remote is not None
        while run.todo:
            connection = self._reader_task
            outcomes = await self._pipeline_pass(*run.next_pass(), window)
            delay, lost = run.settle(outcomes, reconnectable and not self._closed)
            if lost is not None:
                await self._reconnect(run.drops, lost, connection)
            if delay:
                await asyncio.sleep(delay)
        return run.results(raw)

    async def _pipeline_pass(self, ids: list, frames: list, window: int) -> list:
        """One windowed pass: one outcome per request, in order.

        Deliberately allocation-light, as the client half of the server's
        micro-batching story: one future per request (no task), frames
        joined into one ``write`` per window top-up, and the window enforced
        by awaiting the oldest outstanding responses.
        """
        create_future = asyncio.get_running_loop().create_future
        futures: list[asyncio.Future] = []
        # drain half the window at once: awaiting one future at a time would
        # degrade to one tiny write per query in steady state, defeating both
        # ends' batching
        half = max(1, window // 2)
        for head in range(0, len(ids), half):
            start, end = len(futures), min(len(ids), head + window)
            fresh = [create_future() for _ in range(start, end)]
            futures += fresh
            if self._reader_task.done():
                # the reader died and already failed everything it knew
                # about; registering more futures would leave them
                # unresolved forever — fail them at birth instead
                error = self._broken or ConnectionError("client connection is closed")
                for future in fresh:
                    future.set_exception(error)
            else:
                self._waiting.update(zip(ids[start:end], fresh))
                self._writer.write(b"".join(frames[start:end]))
            await asyncio.wait(futures[head : head + half])
        return [future.exception() or future.result() for future in futures]
