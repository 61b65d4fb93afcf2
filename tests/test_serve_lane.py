"""The server's native QUERY lane against the Python protocol reference.

:class:`repro.kernels.native.QueryLane` decodes runs of plain QUERY
frames and encodes their RESULT frames in C, from bytes a client sent.
The Python decoder (:class:`FrameDecoder` + :func:`decode_request`) and
:func:`encode_result_block` are the reference:

- on valid streams of every request kind the lane takes exactly the
  leading run of plain QUERY frames for its member, with identical
  ``(request_id, u, v)``;
- on mutated streams (truncations, bit flips, odd varints, ``u``/``v`` at
  2^31, unknown opcodes) it takes a prefix of what the reference takes,
  ending on a frame boundary — never a frame the reference rejects;
- its RESULT frames are byte-identical to the reference encoder's;
- a live server on the native tier and one on ``REPRO_KERNELS=python``
  send byte-identical response streams for one pipelined mix.

CI also runs this file against an AddressSanitizer build of the kernels.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.api import DistanceIndex, IndexCatalog
from repro.generators.workloads import make_tree, random_pairs
from repro.kernels.native import QueryLane
from repro.serve import LabelServer, protocol
from repro.serve.server import ServingCore, _Connection

#: the member name the lane under test takes frames for
NAME = "exact"


@pytest.fixture(scope="module")
def native():
    backend = kernels.get_backend("native")
    if backend is None:
        pytest.skip("native tier not available in this environment")
    return backend


@pytest.fixture()
def select_tier(native, monkeypatch):
    """Select a kernel tier by name, whatever ``REPRO_KERNELS`` says."""

    def select(tier: str) -> None:
        monkeypatch.setenv(kernels.ENV_VAR, tier)
        kernels.reset()
        assert kernels.backend_name() == tier

    yield select
    monkeypatch.undo()
    kernels.reset()


def lane_run(native, stream: bytes, limit: int = 64, name: str = NAME):
    """The lane's run from the start of ``stream``: ``(frames, end)``."""
    lane = QueryLane(native, name, max(limit, 1))
    count, end = lane.take(bytearray(stream), 0, limit)
    return [lane.pair(index) for index in range(count)], end


def reference_run(stream: bytes, limit: int = 64, name: str = NAME):
    """The Python decoder's view of the lane's share of ``stream``: the
    leading plain QUERY frames for ``name`` whose ids fit 64 bits and
    whose nodes fit 31, as ``(frames, ends)`` — ``ends[i]`` is the offset
    after frame ``i``."""
    decoder = protocol.FrameDecoder()
    decoder.feed(stream)
    frames: list[tuple[int, int, int]] = []
    ends: list[int] = []
    pos = 0
    while len(frames) < limit:
        try:
            frame = decoder.frame_at(pos)
            if frame is None:
                break
            body, pos = frame
            op, request_id, got, payload, trace_id, route = protocol.decode_request(body)
        except protocol.ProtocolError:
            break
        if op != protocol.OP_QUERY or got != name or (trace_id, route) != (None, None):
            break
        u, v = payload
        if request_id >= 1 << 64 or u >= 1 << 31 or v >= 1 << 31:
            break
        frames.append((request_id, u, v))
        ends.append(pos)
    return frames, ends


# -- strategies ------------------------------------------------------------------

request_ids = st.integers(min_value=0, max_value=(1 << 64) - 1)
#: nodes straddling the lane's 2^31 ceiling
nodes = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=(1 << 31) - 2, max_value=(1 << 31) + 1),
)
names = st.sampled_from([NAME, "", "exacT", "bounded", "ex"])
small = st.integers(min_value=0, max_value=1 << 20)

plain_queries = st.builds(
    lambda rid, u, v: protocol.encode_query(rid, u, v, NAME), request_ids, nodes, nodes
)
any_request = st.one_of(
    plain_queries,
    st.builds(protocol.encode_query, request_ids, nodes, nodes, names),
    st.builds(
        lambda rid, u, v, trace: protocol.encode_query(rid, u, v, NAME, trace_id=trace),
        request_ids, nodes, nodes, small,
    ),
    st.builds(
        lambda rid, u, v, route: protocol.encode_query(rid, u, v, NAME, route_version=route),
        request_ids, nodes, nodes, small,
    ),
    st.builds(
        protocol.encode_batch,
        request_ids, st.lists(st.tuples(nodes, nodes), max_size=3), names,
    ),
    st.builds(protocol.encode_matrix, request_ids, st.lists(small, max_size=3), names),
    st.builds(lambda rid, name: protocol.encode_stats(rid, name), request_ids, names),
    st.builds(protocol.encode_info, request_ids),
    st.builds(lambda rid: protocol.encode_trace_request(rid), request_ids),
)
streams = st.tuples(
    st.lists(plain_queries, max_size=8), st.lists(any_request, max_size=6)
).map(lambda parts: b"".join(parts[0] + parts[1]))


def _varint(value: int, padding: int = 0) -> bytes:
    """LEB128 of ``value``, stretched by ``padding`` redundant bytes (a
    non-canonical encoding decode_uvarint still accepts — up to 10 bytes)."""
    out = bytearray(protocol.encode_uvarint(value))
    for _ in range(padding):
        out[-1] |= 0x80
        out.append(0)
    return bytes(out)


@st.composite
def odd_queries(draw):
    """A plain QUERY frame with hand-made fields: padded, over-long or
    beyond-64-bit varints, an unknown opcode, trailing bytes."""
    def field(value):
        choice = draw(st.integers(min_value=0, max_value=4))
        if choice == 1:
            return _varint(value, draw(st.integers(min_value=1, max_value=9)))
        if choice == 2:  # 11 bytes: decode_uvarint rejects it
            return b"\x80" * 10 + b"\x01"
        if choice == 3:  # 10 bytes holding a value >= 2^64
            return b"\xff" * 9 + bytes([draw(st.integers(min_value=2, max_value=0x7F))])
        return _varint(value)

    op = draw(st.sampled_from([protocol.OP_QUERY] * 4 + [0x00, 0x07, 0x81]))
    name = NAME.encode()
    body = (
        bytes([op])
        + field(draw(request_ids))
        + field(len(name))
        + name
        + field(draw(nodes))
        + field(draw(nodes))
        + draw(st.sampled_from([b"", b"", b"\x07", b"\x01"]))
    )
    return _varint(len(body)) + body


@st.composite
def mutated_streams(draw):
    frames = draw(st.lists(st.one_of(plain_queries, odd_queries(), any_request), max_size=8))
    stream = bytearray(b"".join(frames))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if not stream:
            break
        at = draw(st.integers(min_value=0, max_value=len(stream) - 1))
        if draw(st.booleans()):
            stream[at] ^= 1 << draw(st.integers(min_value=0, max_value=7))
        else:
            del stream[at:]
    return bytes(stream)


# -- decode ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(stream=streams, limit=st.integers(min_value=1, max_value=12))
def test_lane_takes_exactly_the_plain_query_prefix(native, stream, limit):
    frames, ends = reference_run(stream, limit)
    assert lane_run(native, stream, limit) == (frames, ends[-1] if ends else 0)


@settings(max_examples=200, deadline=None)
@given(stream=mutated_streams(), limit=st.integers(min_value=1, max_value=12))
def test_lane_never_takes_more_than_the_reference(native, stream, limit):
    taken, end = lane_run(native, stream, limit)
    frames, ends = reference_run(stream, limit)
    assert taken == frames[: len(taken)]
    assert end == (ends[len(taken) - 1] if taken else 0)  # on a frame boundary
    # a frame's fate never depends on the bytes after it
    assert lane_run(native, stream[:end], limit) == (taken, end)


def _query_body(request_id: bytes, u: bytes, v: bytes, tail: bytes = b"") -> bytes:
    name = NAME.encode()
    body = bytes([protocol.OP_QUERY]) + request_id + _varint(len(name)) + name + u + v + tail
    return _varint(len(body)) + body


@pytest.mark.parametrize(
    "frame, taken",
    [
        (_query_body(_varint((1 << 64) - 1), _varint(3), _varint(4)), True),
        (_query_body(b"\xff" * 9 + b"\x02", _varint(3), _varint(4)), False),  # id 2^64+
        (_query_body(b"\x80" * 10 + b"\x01", _varint(3), _varint(4)), False),  # 11 bytes
        (_query_body(_varint(5, 8), _varint(3, 2), _varint(4, 1)), True),  # padded
        (_query_body(_varint(5), _varint((1 << 31) - 1), _varint(0)), True),
        (_query_body(_varint(5), _varint(0), _varint(1 << 31)), False),
        (_query_body(_varint(5), _varint(3), _varint(4), b"\x01\x07"), False),  # trace
        (_query_body(_varint(5), _varint(3), _varint(4), b"\x09"), False),  # unknown tail
        (b"\x00", False),  # an empty body
    ],
    ids=[
        "id-max", "id-2^64", "id-11-bytes", "padded", "u-2^31-1", "v-2^31", "traced",
        "tail", "empty",
    ],
)
def test_lane_field_limits(native, frame, taken):
    stream = frame + protocol.encode_query(9, 1, 2, NAME)
    frames, ends = reference_run(stream)
    got, end = lane_run(native, stream)
    assert (len(got) == 2) is taken
    assert got == frames[: len(got)] and end == (ends[len(got) - 1] if got else 0)


def test_lane_resumes_mid_buffer_and_respects_its_limits(native):
    stream = b"".join(protocol.encode_query(rid, rid, rid + 1, NAME) for rid in range(10))
    partial = stream + protocol.encode_query(10, 1, 2, NAME)[:-1]
    lane = QueryLane(native, NAME, 6)
    count, end = lane.take(bytearray(partial), 0, 4)
    assert count == 4 and lane.fill == 4
    count, end = lane.take(bytearray(partial), end, 100)  # capacity caps it at 2
    assert count == 2 and lane.fill == 6 and lane.take(bytearray(partial), end, 9) == (0, end)
    lane.fill = 0
    count, end = lane.take(bytearray(partial), end, 6)  # stops before the partial frame
    assert count == 4 and end == len(stream)
    assert [lane.pair(index) for index in range(count)] == [(r, r, r + 1) for r in range(6, 10)]


# -- encode ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    bounded=st.booleans(),
    answered=st.lists(
        st.tuples(request_ids, st.integers(min_value=-1, max_value=(1 << 63) - 1)),
        max_size=20,
    ),
    skip=st.integers(min_value=0, max_value=3),
)
def test_lane_results_are_byte_identical_to_the_reference(native, bounded, answered, skip):
    kind = protocol.KIND_BOUNDED if bounded else protocol.KIND_EXACT
    if not bounded:
        answered = [(rid, max(value, 0)) for rid, value in answered]
    lane = QueryLane(native, NAME, skip + len(answered) + 1)
    values = native.ffi.new("int64_t[]", [0] * skip + [value for _, value in answered] + [0])
    for index, (rid, _) in enumerate(answered):
        lane.ids[skip + index] = rid
    expected = protocol.encode_result_block(
        [(rid, None if value == -1 else value) for rid, value in answered], kind
    )
    assert lane.encode(kind, values, skip, len(answered)) == expected


# -- live parity: native lane vs the python tier ------------------------------------------


@pytest.fixture(scope="module")
def catalog_bytes():
    tree = make_tree("random", 120, seed=5)
    catalog = IndexCatalog()
    catalog.add("exact", DistanceIndex.build(tree, "freedman"))
    catalog.add("bounded", DistanceIndex.build(tree, "k-distance:k=3"))
    catalog.add("hld", DistanceIndex.build(tree, "hld-fixed"))
    return catalog.to_bytes()


def _chunks(n: int) -> list[list[bytes]]:
    """Pipelined writes, each sent once the last one is answered.  Every
    chunk keeps one member's queries together and opens with its STATS, so
    the response order does not depend on how the server's reads split."""
    pairs = random_pairs(make_tree("random", n, seed=5), 200, seed=9)
    ids = iter(range(1, 10_000))

    def queries(name, chunk):
        return [protocol.encode_query(next(ids), u, v, name) for u, v in chunk]

    return [
        [protocol.encode_stats(next(ids), "exact")] + queries("exact", pairs[:30]),
        queries("exact", pairs[30:70]),  # the member the connection's lane holds
        [protocol.encode_stats(next(ids))]
        + queries("exact", pairs[70:80] + [(0, n + 3)] + pairs[80:90]),  # a decline
        queries("bounded", pairs[90:120]),
        queries("bounded", pairs[120:170]),  # answers beyond k
        [protocol.encode_stats(next(ids))]
        + queries("bounded", pairs[170:180])
        + queries("exact", pairs[180:190]),
        queries("hld", pairs[190:200]),
        queries("hld", pairs[:40]),
        [protocol.encode_stats(next(ids))],
    ]


async def _responses(catalog_bytes: bytes, chunks) -> list[list[bytes]]:
    """Each chunk's response bodies from a fresh server."""
    server = LabelServer(IndexCatalog.from_bytes(catalog_bytes))
    host, port = await server.start()
    try:
        reader, writer = await asyncio.open_connection(host, port)
        decoder = protocol.FrameDecoder()
        out = []
        for chunk in chunks:
            writer.write(b"".join(chunk))
            bodies: list[bytes] = []
            while len(bodies) < len(chunk):
                data = await asyncio.wait_for(reader.read(65536), 10)
                assert data, "server closed the connection"
                decoder.feed(data)
                bodies += decoder.frames()
            out.append(bodies)
        writer.close()
        await writer.wait_closed()
        return out
    finally:
        await server.stop()


def test_native_and_python_servers_send_identical_streams(select_tier, catalog_bytes):
    chunks = _chunks(120)
    select_tier("native")
    lane = asyncio.run(_responses(catalog_bytes, chunks))
    select_tier("python")
    floor = asyncio.run(_responses(catalog_bytes, chunks))
    catalog = IndexCatalog.from_bytes(catalog_bytes)
    errors = 0
    for requests, got, want in zip(chunks, lane, floor):
        assert len(got) == len(want) == len(requests)
        for request, body, reference in zip(requests, got, want):
            op, request_id, name, payload, _, _ = protocol.decode_request(request[1:])
            response = protocol.decode_response(body)
            assert response[:2] == protocol.decode_response(reference)[:2]
            if op == protocol.OP_STATS:
                continue  # timings and tier names differ
            assert body == reference
            if response[0] == protocol.OP_ERROR:
                errors += 1
                continue
            assert response[2][2] == [catalog.query(name, *payload, raw=True)]
    assert errors == 1  # only the out-of-range pair
    last = protocol.decode_response(lane[-1][0])[2]
    assert last["native_lane_pairs"] > 0
    assert protocol.decode_response(floor[-1][0])[2]["native_lane_pairs"] == 0


# -- the lane inside ServingCore --------------------------------------------------------


class _Transport:
    """Collects what a server connection writes."""

    def __init__(self) -> None:
        self.decoder = protocol.FrameDecoder()

    def write(self, data: bytes) -> None:
        self.decoder.feed(data)

    def close(self) -> None:
        pass


def _serve_reads(index, reads, **core_kwargs):
    """Feed ``reads`` to one server connection, letting the coalescer flush
    after each; returns the decoded responses and the final STATS."""
    async def main():
        core = ServingCore(index, **core_kwargs)
        connection = _Connection(core)
        transport = _Transport()
        connection.connection_made(transport)
        for data in reads:
            connection.data_received(data)
            await asyncio.sleep(0)
        connection.connection_lost(None)
        responses = [protocol.decode_response(body) for body in transport.decoder.frames()]
        return responses, core.stats()

    return asyncio.run(main())


@pytest.fixture(scope="module")
def freedman_index():
    return DistanceIndex.build(make_tree("random", 60, seed=3), "freedman")


@pytest.fixture()
def native_tier(select_tier):
    select_tier("native")


def _queries(first: int, count: int) -> bytes:
    return b"".join(
        protocol.encode_query(rid, rid % 60, (7 * rid) % 60) for rid in range(first, first + count)
    )


def test_lane_runs_stop_at_max_pending_and_the_rest_is_shed(native_tier, freedman_index):
    """A read of 50 frames against max_pending=8: the lane takes 8, the
    Python path sheds the other 42 with BUSY, as without the lane."""
    responses, stats = _serve_reads(
        freedman_index, [_queries(1, 1), _queries(2, 50)], max_pending=8
    )
    answered = {rid: payload for op, rid, payload in responses if op == protocol.OP_RESULT}
    shed = [rid for op, rid, _ in responses if op == protocol.OP_BUSY]
    assert sorted(answered) == list(range(1, 10)) and shed == list(range(10, 52))
    for rid, (_, _, values) in answered.items():
        assert values == [freedman_index.query(rid % 60, (7 * rid) % 60, raw=True)]
    assert stats["native_lane_pairs"] == 8 and stats["busy_rejections"] == 42
    assert stats["pending"] == 0
    assert stats["latency_ms"]["samples"] == 9  # one observation per answer


def test_lane_flushes_every_max_batch_frames(native_tier, freedman_index):
    responses, stats = _serve_reads(freedman_index, [_queries(1, 1), _queries(2, 50)], max_batch=8)
    assert [rid for _, rid, _ in responses] == list(range(1, 52))
    assert stats["native_lane_pairs"] == 50 and stats["flushes"] == 1 + 7


def test_lane_stays_off_under_fault_injection(native_tier, freedman_index, monkeypatch):
    """A fault plan fires once per dispatched request, so the lane is off."""
    monkeypatch.setenv("REPRO_FAULTS", "stall:ms=0")
    responses, stats = _serve_reads(freedman_index, [_queries(1, 1), _queries(2, 30)])
    assert len(responses) == 31 and stats["native_lane_pairs"] == 0
