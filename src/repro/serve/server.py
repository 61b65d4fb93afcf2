"""The per-process serving engine and its asyncio TCP wrapper.

Two layers, split so the shard-per-core supervisor can reuse the whole
request path in every worker process:

:class:`ServingCore`
    the socket-free serving engine — member resolution, the micro-batching
    coalescer, bounded-pending backpressure, MATRIX executor offload and
    all statistics.  It needs a running event loop but owns no listening
    socket.

:class:`LabelServer`
    a ``ServingCore`` plus asyncio TCP lifecycle: bind (fresh address,
    ``SO_REUSEPORT`` shared address, or an inherited socket), serve, stop.
    Single-process callers use it exactly as before;
    :mod:`repro.serve.supervisor` runs one per forked worker.

The core's defining feature is the **micro-batching coalescer**: QUERY
requests are not answered one at a time.  Each one is appended to a
per-member pending list and the flush is scheduled with ``loop.call_soon``,
which runs *after* every ``data_received`` callback of the current event-loop
tick — so all queries that arrived in this tick, across every connection,
are answered by **one** :meth:`QueryEngine.batch_query` call per member.
For hld-fixed, Freedman and k-distance that call is one fused kernel pass
over the packed store; other schemes parse each distinct endpoint once through the
engine's parsed-label LRU.  The responses are written back with one
``transport.write`` per connection instead of one per request.  Under a
pipelined client the serving cost per query drops to an append, a shared
batch slot and a shared write.

Two overload/latency features ride on the same structure:

* **backpressure** — the pending-query queue is bounded (``max_pending``);
  beyond it, new QUERY requests are shed immediately with an ``OP_BUSY``
  response instead of growing the queue, and the clients retry with jitter;
* **MATRIX offload** — matrix requests run on a thread executor through
  :meth:`QueryEngine.matrix_into`, so an n²/2-query matrix no longer stalls
  the coalescer tick (concurrent offloads are capped; excess gets BUSY).

``coalesce=False`` keeps the identical code path but flushes after every
request (a batch of one) — the naive serving baseline that
``benchmarks/bench_serve_throughput.py`` measures the coalescer against.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque

from repro import kernels
from repro.api.catalog import CatalogError, IndexCatalog
from repro.api.index import DistanceIndex
from repro.obs.hist import Histogram
from repro.obs.trace import STAGES, Span, Trace, TraceRecorder
from repro.scale.memory import current_rss_bytes
from repro.serve import faults, protocol
from repro.serve.routing import member_endpoint, table_owners
from repro.store.label_store import StoreError

#: latency samples kept in the raw reservoir embedded in detailed STATS
#: (kept for wire compatibility and spot debugging; percentiles and fleet
#: merges come from the fixed-boundary histograms, which never truncate)
_LATENCY_WINDOW = 4096


class _Member:
    """One servable index plus the constants its responses need."""

    __slots__ = ("name", "index", "kind_code", "ratio_bound", "pending")

    def __init__(self, name: str, index: DistanceIndex) -> None:
        self.name = name
        self.index = index
        self.kind_code = protocol.KIND_CODES[index.kind]
        self.ratio_bound = (
            1.0 + index.scheme.epsilon
            if index.kind == "approximate"
            else (1.0 if index.kind == "exact" else None)
        )
        #: coalescer queue: (connection, request_id, u, v, enqueued_at, trace)
        #: where ``trace`` is ``(trace_id, arrived, decoded)`` for requests
        #: carrying the additive trace-id field and ``None`` otherwise
        self.pending: list[tuple] = []


class ServingCore:
    """The per-process serving engine (socket-free).

    ``target`` is a :class:`DistanceIndex` (served under the empty member
    name) or an :class:`IndexCatalog` (members addressed by name; closed
    members open lazily on first query, exactly as in-process).
    """

    def __init__(
        self,
        target: DistanceIndex | IndexCatalog,
        *,
        coalesce: bool = True,
        max_batch: int = 8192,
        max_matrix: int = 1024,
        max_pending: int = 65536,
        max_matrix_inflight: int = 2,
        slot: int = 0,
        restarts: int = 0,
        generation: dict | None = None,
        slow_ms: float | None = None,
        trace_ring: int = 256,
        assigned_members=None,
        routing_table: dict | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_matrix < 1:
            raise ValueError("max_matrix must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if max_matrix_inflight < 1:
            raise ValueError("max_matrix_inflight must be at least 1")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        if trace_ring < 1:
            raise ValueError("trace_ring must be at least 1")
        self._catalog: IndexCatalog | None = None
        self._members: dict[str, _Member] = {}
        if isinstance(target, IndexCatalog):
            self._catalog = target
        elif isinstance(target, DistanceIndex):
            self._members[""] = _Member("", target)
        else:
            raise TypeError(
                f"target must be a DistanceIndex or IndexCatalog, got {type(target).__name__}"
            )
        self.coalesce = coalesce
        self.max_batch = max_batch
        #: MATRIX responses are bounded in size even though they run off the
        #: event loop: an n-node matrix costs n^2/2 queries of executor time
        #: and one O(n^2) response frame
        self.max_matrix = max_matrix
        #: total QUERYs allowed in the coalescer across all members; beyond
        #: this the server sheds load with BUSY instead of queueing
        self.max_pending = max_pending
        self.max_matrix_inflight = max_matrix_inflight
        self._flush_scheduled = False
        self._dirty: list[_Member] = []
        self._matrix_inflight = 0
        #: supervision metadata: which fleet slot this worker occupies, how
        #: many times that slot has been restarted, and the generation
        #: (content hash + path) of the served store file — all reported in
        #: STATS/INFO so clients can observe restarts and rolling reloads
        self.slot = slot
        self.restarts = restarts
        self.generation = generation
        self._faults = faults.plan_for(slot)
        #: open _Connection objects, so a draining worker can close them
        self._connections: set = set()
        #: member placement (the ``routing`` feature): the member names this
        #: worker owns and the fleet's current routing table.  ``None`` for
        #: both means the worker is unsharded and serves everything.
        self._routing: dict | None = None
        self._assigned: set[str] | None = (
            set(assigned_members) if assigned_members is not None else None
        )
        self.misroutes = 0  #: non-owned requests served in place (legacy path)
        self.moved_redirects = 0  #: OP_MOVED hints sent to routed clients
        if routing_table is not None:
            if assigned_members is None:
                self.set_routing(routing_table)  # derive ownership from slot
            else:
                self._routing = routing_table

        # -- serving statistics ------------------------------------------
        self.started_at = time.monotonic()
        self.queries = 0  #: individual QUERY answers sent
        self.batch_requests = 0  #: OP_BATCH requests served
        self.batch_request_pairs = 0
        self.matrix_requests = 0
        self.matrix_offloaded = 0  #: MATRIX requests run on the executor
        self.flushes = 0  #: coalescer batch_query calls
        self.coalesced = 0  #: QUERY answers produced by those calls
        self.errors = 0
        self.busy_rejections = 0  #: requests shed with OP_BUSY
        self.pending_total = 0  #: QUERYs currently queued in the coalescer
        self.connections_total = 0
        self.connections_open = 0
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        #: fixed-boundary histograms: exact fleet merges are bucket-wise
        #: sums, so percentiles survive worker restarts and rolling reloads
        self.latency_hist = Histogram()  #: QUERY enqueue -> response written
        self.stage_hist = {stage: Histogram() for stage in STAGES}
        #: bounded ring of recent traces plus the slow-query log
        self.tracer = TraceRecorder(ring=trace_ring, slow_ms=slow_ms)

    # -- member resolution ---------------------------------------------------

    def member(self, name: str) -> _Member:
        """The member serving ``name`` (lazily opened for catalogs).

        A member whose bytes fail to parse (truncated file, corrupt blob)
        raises :class:`CatalogError` naming the member — a *request-scoped*
        failure answered with ``OP_ERROR``, never a connection-killing one,
        so the other members keep serving.
        """
        member = self._members.get(name)
        if member is None:
            if self._catalog is None:
                raise CatalogError(
                    f"this server fronts a single index; use the empty member "
                    f"name, not {name!r}"
                )
            try:
                index = self._catalog.index(name)
            except Exception as error:
                if isinstance(error, CatalogError) and name not in self._catalog:
                    raise  # unknown member: the message already names it
                raise CatalogError(
                    f"catalog member {name!r} failed to open: {error}"
                ) from error
            member = _Member(name, index)
            self._members[name] = member
        return member

    # -- member placement (the ``routing`` feature) ---------------------------

    @property
    def routing_version(self) -> int:
        """The version of the routing table this worker serves under (0 = unsharded)."""
        return int(self._routing.get("version", 0)) if self._routing else 0

    def set_routing(self, table: dict | None) -> None:
        """Adopt a new routing table (pushed by the supervisor after a reload)."""
        self._routing = table
        if table is not None:
            owned = [
                name
                for name, owners in table.get("members", {}).items()
                if self.slot in owners
            ]
            self._assigned = set(owned)

    def owns(self, name: str) -> bool:
        """Whether this worker is an assigned owner of member ``name``."""
        return self._assigned is None or name in self._assigned

    def _redirect(self, connection, request_id: int, name: str) -> bool:
        """Answer a routed request for a non-owned member with ``OP_MOVED``.

        Returns ``True`` when the hint was sent (the caller stops).  When the
        table has no owner endpoint for ``name`` (unknown member, slot gone)
        the request is served in place instead so the normal error/answer
        path applies.
        """
        if not self._routing:
            return False
        owners = table_owners(self._routing, name)
        if self.slot in owners:
            return False
        endpoint = member_endpoint(self._routing, name)
        if endpoint is None:
            return False
        self.moved_redirects += 1
        connection.send(
            protocol.encode_moved(
                request_id, self.routing_version, name, endpoint[0], endpoint[1]
            )
        )
        return True

    def info(self) -> dict:
        """The INFO payload: one row per member name."""
        members: dict[str, dict] = {}
        if self._catalog is not None:
            for row in self._catalog.describe():
                members[row["name"]] = {
                    "spec": row["spec"],
                    "kind": row["kind"],
                    "n": row["n"],
                    "open": row["open"],
                }
        else:
            members[""] = dict(self._members[""].index.describe(), open=True)
        payload = {
            "protocol": protocol.PROTOCOL_VERSION,
            "features": list(protocol.PROTOCOL_FEATURES),
            "worker": os.getpid(),
            "slot": self.slot,
            "restarts": self.restarts,
            "members": members,
        }
        if self.generation is not None:
            payload["store"] = dict(self.generation)
        if self._routing is not None:
            payload["routing"] = self._routing
        return payload

    def stats(self, name: str = "", detail: bool = False) -> dict:
        """The STATS payload; ``name`` adds one member's index statistics.

        ``latency_ms`` covers QUERY requests only (enqueue to flush, the
        number a per-query client observes); BATCH/MATRIX requests are
        counted but would skew the per-query percentiles and stay out.
        Percentiles come from the fixed-boundary latency histogram, so they
        are quantised to its bucket bounds but never truncated by a window.
        ``detail`` embeds the histogram snapshots (latency + per-stage) and
        the raw reservoir (in ms) so fleet consumers — the supervisor's
        shutdown summary, the metrics endpoint, the loadgen report — can
        merge latency across workers bucket-wise and report true fleet
        percentiles; plain monitoring polls leave it off and stay a few
        hundred bytes.  A member's ``cache_hit_rate`` is its parsed-label
        LRU's (:meth:`QueryEngine.cache_info`): it counts only lookups from
        batches the kernel backend declines, so a member whose scheme has a
        native kernel can sit at 0.0 with no lookups while it serves.
        """
        elapsed = max(time.monotonic() - self.started_at, 1e-9)
        samples = list(self._latencies)
        answered = self.queries + self.batch_request_pairs
        payload = {
            "worker": os.getpid(),
            "slot": self.slot,
            "restarts": self.restarts,
            "uptime_seconds": round(elapsed, 3),
            "queries": self.queries,
            "batch_requests": self.batch_requests,
            "batch_request_pairs": self.batch_request_pairs,
            "matrix_requests": self.matrix_requests,
            "matrix_offloaded": self.matrix_offloaded,
            "matrix_inflight": self._matrix_inflight,
            "flushes": self.flushes,
            "coalesced_queries": self.coalesced,
            "mean_batch_size": round(self.coalesced / self.flushes, 2) if self.flushes else 0.0,
            "errors": self.errors,
            "busy_rejections": self.busy_rejections,
            "pending": self.pending_total,
            "max_pending": self.max_pending,
            "connections_open": self.connections_open,
            "connections_total": self.connections_total,
            "qps": round(answered / elapsed, 1),
            "rss_bytes": current_rss_bytes(),
            "kernel": kernels.backend_name(),
            "latency_ms": {
                "p50": round(self.latency_hist.percentile(0.50), 4),
                "p99": round(self.latency_hist.percentile(0.99), 4),
                "samples": self.latency_hist.total,
            },
            "coalescing": self.coalesce,
            "misroutes": self.misroutes,
            "moved_redirects": self.moved_redirects,
            "routing_version": self.routing_version,
            "members_open": sorted(self._members),
        }
        if self._assigned is not None:
            payload["members_assigned"] = sorted(self._assigned)
        if self.generation is not None:
            payload["store_generation"] = self.generation.get("generation")
        if detail:
            payload["latency_ms"]["histogram"] = self.latency_hist.to_dict()
            payload["latency_ms"]["reservoir"] = [
                round(sample * 1000, 4) for sample in samples
            ]
            payload["stages"] = {
                stage: hist.to_dict() for stage, hist in self.stage_hist.items()
            }
            payload["traces"] = {
                "recorded": self.tracer.recorded,
                "slow_ms": self.tracer.slow_ms,
            }
        if name or self._catalog is None:
            # a read-only stats probe must not force a lazy catalog member
            # open; closed members report ``open: false`` and nothing else
            member = self._members.get(name)
            if member is None:
                if self._catalog is None or name not in self._catalog:
                    raise CatalogError(
                        f"no index named {name!r} on this server"
                    )
                payload["index"] = {"name": name, "open": False}
            else:
                cache = member.index.engine.cache_info()
                payload["index"] = dict(
                    member.index.describe(),
                    name=name,
                    open=True,
                    cache=cache,
                    cache_hit_rate=cache["hit_rate"],
                )
        return payload

    # -- the micro-batching coalescer ----------------------------------------

    def enqueue_query(
        self,
        member: _Member,
        connection,
        request_id: int,
        u: int,
        v: int,
        trace: tuple | None = None,
    ) -> None:
        """Queue one QUERY for the next flush (or flush now when naive).

        When the pending queue is already at ``max_pending``, the request is
        shed immediately with BUSY — bounded memory and bounded latency for
        everything already queued, at the price of the client retrying.
        ``trace`` is ``(trace_id, arrived, decoded)`` for requests carrying
        the additive trace-id field.
        """
        if self.pending_total >= self.max_pending:
            self.busy_rejections += 1
            connection.send(protocol.encode_busy(request_id, self._retry_hint_ms()))
            return
        pending = member.pending
        if not pending:
            self._dirty.append(member)
        pending.append((connection, request_id, u, v, time.monotonic(), trace))
        self.pending_total += 1
        if not self.coalesce or len(pending) >= self.max_batch:
            self._flush()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            # call_soon runs after every data_received callback already queued
            # in this event-loop tick: that is the coalescing window
            asyncio.get_running_loop().call_soon(self._flush)

    def _retry_hint_ms(self) -> int:
        """Backoff hint sent with BUSY: roughly one coalescer drain."""
        return 1 + self.pending_total // 10000

    def _flush(self) -> None:
        """Answer every pending query with one batch call per member."""
        self._flush_scheduled = False
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, []
        now = time.monotonic
        record = self._latencies.append
        latency_hist = self.latency_hist
        queue_hist = self.stage_hist["queue"]
        slow_ms = self.tracer.slow_ms
        for member in dirty:
            pending = member.pending
            if not pending:
                continue
            member.pending = []
            self.pending_total -= len(pending)
            pairs = [(item[2], item[3]) for item in pending]
            flush_start = now()
            try:
                answers = member.index.batch(pairs, raw=True)
            except (StoreError, ValueError):
                # one bad pair must not poison the whole coalesced batch:
                # fall back to answering each query alone so only the
                # offending requests receive OP_ERROR
                self._flush_individually(member, pending)
                continue
            self.flushes += 1
            self.coalesced += len(pending)
            self.queries += len(pending)
            finished = now()
            self.stage_hist["batch"].observe((finished - flush_start) * 1000.0)
            # group per connection, then build each connection's response
            # frames in one encode_result_block call and one write
            answered: dict[object, list] = {}
            traced: list[tuple] = []
            for item, answer in zip(pending, answers):
                connection, request_id, u, v, enqueued, trace = item
                total_ms = (finished - enqueued) * 1000.0
                record(finished - enqueued)
                latency_hist.observe(total_ms)
                queue_hist.observe((flush_start - enqueued) * 1000.0)
                if slow_ms is not None and total_ms >= slow_ms:
                    self.tracer.maybe_slow(
                        total_ms,
                        {
                            "op": "query",
                            "member": member.name,
                            "u": u,
                            "v": v,
                            "trace_id": trace[0] if trace else None,
                        },
                    )
                if trace is not None:
                    traced.append((trace, connection, u, v, enqueued))
                bucket = answered.get(connection)
                if bucket is None:
                    bucket = answered[connection] = []
                bucket.append((request_id, answer))
            kind = member.kind_code
            ratio = member.ratio_bound
            encode_hist = self.stage_hist["encode"]
            write_hist = self.stage_hist["write"]
            conn_times: dict[object, tuple] = {}
            for connection, items in answered.items():
                encode_start = now()
                block = protocol.encode_result_block(items, kind, ratio)
                encode_end = now()
                connection.send(block)
                write_end = now()
                encode_hist.observe((encode_end - encode_start) * 1000.0)
                write_hist.observe((write_end - encode_end) * 1000.0)
                if traced:
                    conn_times[connection] = (encode_start, encode_end, write_end)
            for trace, connection, u, v, enqueued in traced:
                encode_start, encode_end, write_end = conn_times[connection]
                self._record_query_trace(
                    trace,
                    member,
                    u,
                    v,
                    enqueued=enqueued,
                    flush_start=flush_start,
                    batch_end=finished,
                    encode_start=encode_start,
                    encode_end=encode_end,
                    write_end=write_end,
                )

    def _record_query_trace(
        self,
        trace: tuple,
        member: _Member,
        u: int,
        v: int,
        *,
        enqueued: float,
        flush_start: float,
        batch_end: float,
        encode_start: float,
        encode_end: float,
        write_end: float,
    ) -> None:
        """Assemble and record the spans for one traced, coalesced QUERY.

        The encode/write spans are per-connection (the batched response block
        is built and written once per connection), so a traced query inside a
        large coalesced flush reports the shared encode/write cost — exactly
        what that request actually waited for.
        """
        trace_id, arrived, decoded = trace
        record = Trace(
            trace_id,
            "query",
            member.name,
            total_ms=(write_end - arrived) * 1000.0,
            attrs=self._trace_attrs(u=u, v=v),
        )
        record.add(Span.completed("decode", (decoded - arrived) * 1000.0))
        record.add(Span.completed("queue", (flush_start - enqueued) * 1000.0))
        record.add(Span.completed("batch", (batch_end - flush_start) * 1000.0))
        record.add(Span.completed("encode", (encode_end - encode_start) * 1000.0))
        record.add(Span.completed("write", (write_end - encode_end) * 1000.0))
        self.tracer.record(record)

    def _trace_attrs(self, **extra) -> dict:
        attrs = {"worker": os.getpid(), "slot": self.slot}
        if self.generation is not None:
            attrs["store_generation"] = self.generation.get("generation")
        attrs.update(extra)
        return attrs

    def _flush_individually(self, member: _Member, pending: list) -> None:
        """Answer each pending query alone (the poisoned-batch slow path)."""
        kind = member.kind_code
        ratio = member.ratio_bound
        query = member.index.query
        record = self._latencies.append
        now = time.monotonic
        for connection, request_id, u, v, enqueued, trace in pending:
            start = now()
            try:
                answer = query(u, v, raw=True)
            except (StoreError, ValueError) as error:
                self.errors += 1
                connection.send(protocol.encode_error(request_id, str(error)))
            else:
                batch_end = now()
                self.flushes += 1
                self.coalesced += 1
                self.queries += 1
                total = batch_end - enqueued
                record(total)
                self.latency_hist.observe(total * 1000.0)
                self.stage_hist["queue"].observe((start - enqueued) * 1000.0)
                self.stage_hist["batch"].observe((batch_end - start) * 1000.0)
                encode_start = now()
                frame = protocol.encode_result(request_id, kind, (answer,), ratio)
                encode_end = now()
                connection.send(frame)
                write_end = now()
                self.stage_hist["encode"].observe((encode_end - encode_start) * 1000.0)
                self.stage_hist["write"].observe((write_end - encode_end) * 1000.0)
                if self.tracer.slow_ms is not None:
                    self.tracer.maybe_slow(
                        total * 1000.0,
                        {
                            "op": "query",
                            "member": member.name,
                            "u": u,
                            "v": v,
                            "trace_id": trace[0] if trace else None,
                        },
                    )
                if trace is not None:
                    self._record_query_trace(
                        trace,
                        member,
                        u,
                        v,
                        enqueued=enqueued,
                        flush_start=start,
                        batch_end=batch_end,
                        encode_start=encode_start,
                        encode_end=encode_end,
                        write_end=write_end,
                    )

    # -- MATRIX offload -------------------------------------------------------

    async def _run_matrix(self, member: _Member, connection, request_id: int, nodes) -> None:
        """One offloaded MATRIX request: executor compute, loop-side write."""
        try:
            flat = await asyncio.get_running_loop().run_in_executor(
                None, member.index.engine.matrix_into, nodes
            )
            self.matrix_requests += 1
            self.matrix_offloaded += 1
            connection.send(
                protocol.encode_result(
                    request_id, member.kind_code, flat, member.ratio_bound
                )
            )
        except (StoreError, ValueError) as error:
            self.errors += 1
            connection.send(protocol.encode_error(request_id, str(error)))
        finally:
            self._matrix_inflight -= 1

    # -- request dispatch ------------------------------------------------------

    def handle_request(self, connection, body: bytes) -> None:
        """Dispatch one decoded frame from ``connection``."""
        arrived = time.monotonic()
        if self._faults is not None:
            self._faults.fire("dispatch")
        op, request_id, name, payload, trace_id, route_version = (
            protocol.decode_request(body)
        )
        decoded = time.monotonic()
        self.stage_hist["decode"].observe((decoded - arrived) * 1000.0)
        try:
            if (
                self._assigned is not None
                and op in (protocol.OP_QUERY, protocol.OP_BATCH, protocol.OP_MATRIX)
                and not self.owns(name)
            ):
                # routed requests (route-version suffix present) get a MOVED
                # hint pointing at the owner; legacy requests are served in
                # place through the lazy fallback open, counted as misroutes
                if route_version is not None and self._redirect(
                    connection, request_id, name
                ):
                    return
                self.misroutes += 1
            if op == protocol.OP_QUERY:
                member = self.member(name)
                u, v = payload
                trace = (trace_id, arrived, decoded) if trace_id is not None else None
                self.enqueue_query(member, connection, request_id, u, v, trace)
                return
            if op == protocol.OP_BATCH:
                member = self.member(name)
                batch_start = time.monotonic()
                answers = member.index.batch(payload, raw=True)
                batch_end = time.monotonic()
                self.batch_requests += 1
                self.batch_request_pairs += len(payload)
                self.stage_hist["batch"].observe((batch_end - batch_start) * 1000.0)
                encode_start = time.monotonic()
                frame = protocol.encode_result(
                    request_id, member.kind_code, answers, member.ratio_bound
                )
                encode_end = time.monotonic()
                connection.send(frame)
                write_end = time.monotonic()
                self.stage_hist["encode"].observe((encode_end - encode_start) * 1000.0)
                self.stage_hist["write"].observe((write_end - encode_end) * 1000.0)
                total_ms = (write_end - arrived) * 1000.0
                if self.tracer.slow_ms is not None:
                    self.tracer.maybe_slow(
                        total_ms,
                        {
                            "op": "batch",
                            "member": name,
                            "pairs": len(payload),
                            "trace_id": trace_id,
                        },
                    )
                if trace_id is not None:
                    record = Trace(
                        trace_id,
                        "batch",
                        name,
                        total_ms=total_ms,
                        attrs=self._trace_attrs(pairs=len(payload)),
                    )
                    record.add(Span.completed("decode", (decoded - arrived) * 1000.0))
                    record.add(Span.completed("batch", (batch_end - batch_start) * 1000.0))
                    record.add(Span.completed("encode", (encode_end - encode_start) * 1000.0))
                    record.add(Span.completed("write", (write_end - encode_end) * 1000.0))
                    self.tracer.record(record)
                return
            if op == protocol.OP_MATRIX:
                member = self.member(name)
                size = member.index.n if payload is None else len(payload)
                if size > self.max_matrix:
                    raise ValueError(
                        f"matrix over {size} nodes exceeds the server's limit "
                        f"of {self.max_matrix}; request fewer nodes per message"
                    )
                if self._matrix_inflight >= self.max_matrix_inflight:
                    self.busy_rejections += 1
                    connection.send(
                        protocol.encode_busy(request_id, self._retry_hint_ms())
                    )
                    return
                self._matrix_inflight += 1
                asyncio.get_running_loop().create_task(
                    self._run_matrix(member, connection, request_id, payload)
                )
                return
            if op == protocol.OP_STATS:
                connection.send(
                    protocol.encode_json_response(
                        protocol.OP_STATS_RESULT,
                        request_id,
                        self.stats(name, detail=payload is True),
                    )
                )
                return
            if op == protocol.OP_TRACE:
                limit, include_slow = payload
                snapshot = self.tracer.snapshot(limit, include_slow)
                snapshot.update(self._trace_attrs())
                connection.send(
                    protocol.encode_json_response(
                        protocol.OP_TRACE_RESULT, request_id, snapshot
                    )
                )
                return
            assert op == protocol.OP_INFO
            connection.send(
                protocol.encode_json_response(
                    protocol.OP_INFO_RESULT, request_id, self.info()
                )
            )
        except (CatalogError, StoreError, KeyError, ValueError) as error:
            self.errors += 1
            message = error.args[0] if error.args else str(error)
            connection.send(protocol.encode_error(request_id, str(message)))

    # -- graceful drain (used by the supervisor's worker shutdown path) --------

    async def drain(self, timeout: float = 5.0) -> bool:
        """Wait for queued queries and in-flight matrices to finish.

        Called after the listener is closed: nothing new can arrive, so once
        the coalescer queue and the matrix executor are empty every accepted
        request has been answered.  Returns ``False`` on timeout.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self.pending_total or self._matrix_inflight:
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    def close_connections(self) -> None:
        """Close every open client connection (pending writes are flushed).

        Clients see a clean EOF and reconnect — to a sibling worker or to
        this worker's replacement (reconnect-on-EOF is a retryable event in
        both clients).
        """
        for connection in list(self._connections):
            connection.close_gracefully()


class _Connection(asyncio.Protocol):
    """One client connection: frame splitting and response writing."""

    __slots__ = ("_core", "_decoder", "_transport", "closed")

    def __init__(self, core: ServingCore) -> None:
        self._core = core
        self._decoder = protocol.FrameDecoder()
        self._transport: asyncio.Transport | None = None
        self.closed = False

    # -- asyncio.Protocol hooks ----------------------------------------------

    def connection_made(self, transport) -> None:
        if self._core._faults is not None:
            self._core._faults.fire("accept")
        self._transport = transport
        self._core.connections_total += 1
        self._core.connections_open += 1
        self._core._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.closed = True
        self._core.connections_open -= 1
        self._core._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        try:
            self._decoder.feed(data)
            for body in self._decoder.frames():
                self._core.handle_request(self, body)
        except protocol.ProtocolError:
            # unparseable bytes: the stream cannot be resynchronised
            self.abort()

    # -- used by the server --------------------------------------------------

    def send(self, data: bytes) -> None:
        """Write a response unless the peer already went away."""
        if not self.closed and self._transport is not None:
            self._transport.write(data)

    def abort(self) -> None:
        if self._transport is not None:
            self._transport.close()
        self.closed = True

    def close_gracefully(self) -> None:
        """Close after flushing buffered responses (drain path)."""
        if self._transport is not None:
            self._transport.close()


class LabelServer(ServingCore):
    """A :class:`ServingCore` behind an asyncio TCP listener.

    Three ways to bind, one per deployment shape:

    * ``start(host, port)`` — a fresh private socket (the single-process
      default);
    * ``start(host, port, reuse_port=True)`` — a ``SO_REUSEPORT`` socket;
      every worker process binding the same address gets a kernel-balanced
      share of incoming connections;
    * ``start(sock=...)`` — serve an already-bound listening socket
      inherited from a supervisor (the pre-fork fallback where
      ``SO_REUSEPORT`` is unavailable).
    """

    def __init__(self, target: DistanceIndex | IndexCatalog, **kwargs) -> None:
        super().__init__(target, **kwargs)
        self._server: asyncio.AbstractServer | None = None
        self._direct_server: asyncio.AbstractServer | None = None

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        reuse_port: bool = False,
        sock=None,
    ) -> tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        loop = asyncio.get_running_loop()
        if sock is not None:
            self._server = await loop.create_server(
                lambda: _Connection(self), sock=sock
            )
        elif reuse_port:
            self._server = await loop.create_server(
                lambda: _Connection(self), host=host, port=port, reuse_port=True
            )
        else:
            self._server = await loop.create_server(
                lambda: _Connection(self), host=host, port=port
            )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def start_direct(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        reuse_port: bool = False,
        sock=None,
    ) -> tuple[str, int]:
        """Bind this worker's *direct* (per-slot) listener.

        A sharded worker serves two addresses: the fleet-shared
        ``SO_REUSEPORT`` address (kernel-balanced, the fallback path) and its
        own direct port that routed clients pin per-member connections to.
        Both feed the same :class:`ServingCore`.
        """
        loop = asyncio.get_running_loop()
        if sock is not None:
            self._direct_server = await loop.create_server(
                lambda: _Connection(self), sock=sock
            )
        elif reuse_port:
            self._direct_server = await loop.create_server(
                lambda: _Connection(self), host=host, port=port, reuse_port=True
            )
        else:
            self._direct_server = await loop.create_server(
                lambda: _Connection(self), host=host, port=port
            )
        sockname = self._direct_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or task cancellation)."""
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Stop accepting and close the listening socket(s)."""
        if self._direct_server is not None:
            self._direct_server.close()
            await self._direct_server.wait_closed()
            self._direct_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


async def serve(
    target: DistanceIndex | IndexCatalog,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: "asyncio.Event | None" = None,
    bound: "list | None" = None,
    **server_kwargs,
) -> LabelServer:
    """Start a :class:`LabelServer` and run it until cancelled.

    ``bound`` (a list) receives the actual ``(host, port)`` and ``ready`` is
    set once the socket is listening — the hooks the in-process tests and
    the thread-hosted test harness use to rendezvous with the server.
    Remaining keyword arguments go to the :class:`ServingCore` constructor.
    """
    server = LabelServer(target, **server_kwargs)
    address = await server.start(host, port)
    if bound is not None:
        bound.append(address)
    if ready is not None:
        ready.set()
    await server.serve_forever()
    return server
