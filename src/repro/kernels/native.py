"""The native tier: ``_kernels.c`` compiled and loaded through cffi.

The C side decodes and answers hld-fixed, Freedman and k-distance labels
straight from the store's buffers: a batch, a matrix, a parse checksum, or
one pair (the scalar ``repro_<kind>_pair`` entries behind
:meth:`NativeBackend.pair_query`, which ``QueryEngine.query`` calls first).
It also carries the server's QUERY lane (:class:`QueryLane`): an RSP/1
decoder for runs of plain QUERY frames and an encoder for their RESULT
frames, so a pipelined query never becomes a Python object on the server.

Loading follows the quisk pattern (SNIPPETS.md Snippet 1): the shared
library is a pure accelerator, never a dependency.  ``load()`` either
returns a working :class:`NativeBackend` or raises :class:`KernelError`
with the reason — missing cffi, no C compiler, a failed build, a corrupt
or ABI-incompatible library — and the dispatch layer degrades to the
packed-Python tier.

The library is compiled at first use (``cc -O2 -shared -fPIC``) into a
cache directory, named by a hash of the C source so stale builds are never
picked up after the source changes.  ``python setup.py build_py`` attempts
the same build at package-build time (see ``setup.py``), which simply
pre-populates the in-package cache.

Environment knobs:

- ``REPRO_KERNELS_LIB``: load exactly this shared library (testing hook —
  pointing it at a corrupt file exercises graceful degradation).
- ``REPRO_KERNELS_CACHE``: directory for compiled libraries (default: the
  package directory when writable, else a per-user temp directory).
- ``CC``: the compiler to use (default: ``cc``, then ``gcc``, ``clang``).
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from array import array

from repro.kernels.python_tier import _kind

#: bumped in ``_kernels.c`` whenever a signature changes; a library that
#: reports anything else is stale or foreign and is rejected
ABI_VERSION = 5

_CDEF = """
int repro_kernels_abi(void);
int repro_varint_many(const uint8_t *buf, uint64_t buf_len, uint64_t start,
                      uint64_t count, uint64_t *out, uint64_t *end_pos);
int repro_gamma_many(const uint8_t *buf, uint64_t bit_start, uint64_t bit_end,
                     uint64_t count, uint64_t *out, uint64_t *end_bit);
int repro_unary_many(const uint8_t *buf, uint64_t bit_start, uint64_t bit_end,
                     uint64_t count, uint64_t *out, uint64_t *end_bit);
int repro_hld_batch(const uint8_t *payload, const uint64_t *offs,
                    const uint64_t *lens, int64_t n_total, const int32_t *nodes,
                    int64_t n_nodes, const int32_t *ui, const int32_t *vi,
                    int64_t n_pairs, int64_t *out);
int repro_hld_matrix(const uint8_t *payload, const uint64_t *offs,
                     const uint64_t *lens, int64_t n_total,
                     const int32_t *nodes, int64_t n_nodes, int64_t *out);
int repro_hld_checksum(const uint8_t *payload, const uint64_t *offs,
                       const uint64_t *lens, int64_t n_total,
                       const int32_t *nodes, int64_t n_nodes, uint64_t *out);
int repro_freedman_batch(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total,
                         const int32_t *nodes, int64_t n_nodes,
                         const int32_t *ui, const int32_t *vi, int64_t n_pairs,
                         int64_t *out);
int repro_freedman_matrix(const uint8_t *payload, const uint64_t *offs,
                          const uint64_t *lens, int64_t n_total,
                          const int32_t *nodes, int64_t n_nodes, int64_t *out);
int repro_freedman_checksum(const uint8_t *payload, const uint64_t *offs,
                            const uint64_t *lens, int64_t n_total,
                            const int32_t *nodes, int64_t n_nodes,
                            uint64_t *out);
int repro_kdist_batch(const uint8_t *payload, const uint64_t *offs,
                      const uint64_t *lens, int64_t n_total,
                      const int32_t *nodes, int64_t n_nodes, const int32_t *ui,
                      const int32_t *vi, int64_t n_pairs, int64_t k,
                      int64_t *out);
int repro_kdist_matrix(const uint8_t *payload, const uint64_t *offs,
                       const uint64_t *lens, int64_t n_total,
                       const int32_t *nodes, int64_t n_nodes, int64_t k,
                       int64_t *out);
int repro_kdist_checksum(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total,
                         const int32_t *nodes, int64_t n_nodes,
                         uint64_t *out);
int64_t repro_hld_pair(const uint8_t *payload, const uint64_t *offs,
                       const uint64_t *lens, int64_t n_total, int64_t u,
                       int64_t v);
int64_t repro_freedman_pair(const uint8_t *payload, const uint64_t *offs,
                            const uint64_t *lens, int64_t n_total, int64_t u,
                            int64_t v);
int64_t repro_kdist_pair(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total, int64_t u,
                         int64_t v, int64_t k);
int64_t repro_rsp_queries(const uint8_t *buf, uint64_t len, uint64_t start,
                          const uint8_t *name, uint64_t name_len,
                          int64_t max_frames, uint64_t *ids, int32_t *nodes,
                          uint64_t *end_pos);
int64_t repro_rsp_results(int32_t kind, const uint64_t *ids,
                          const int64_t *values, int64_t n, uint8_t *out);
"""

#: guard against absurd matrices: m*m int64 results; above this the Python
#: path is just as memory-bound and the fused fill buys nothing
_MAX_MATRIX_SIDE = 8192
#: the k-distance kernels accept 1 <= k < 2**56 (``kd_k_ok`` in the C source)
_MAX_K = 1 << 56
#: pairs per C batch call: bounds the call's decode arena (about 0.4 MB
#: for Freedman at n=65536), and so the heap a batch leaves resident
_PAIRS_PER_CALL = 256
#: bytes of one single-value RESULT frame at most (``repro_rsp_results``)
_RESULT_FRAME_MAX = 25


class KernelError(RuntimeError):
    """The native tier could not be built or loaded."""


def source_path() -> str:
    """Path of the bundled C source."""
    return os.path.join(os.path.dirname(__file__), "_kernels.c")


def _source_digest() -> str:
    with open(source_path(), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def _compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _cache_dirs() -> list[str]:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return [override]
    return [
        os.path.join(os.path.dirname(__file__), "_build"),
        os.path.join(
            tempfile.gettempdir(), f"repro-kernels-{os.getuid() if hasattr(os, 'getuid') else 0}"
        ),
    ]


def _lib_suffix() -> str:
    return ".dll" if sys.platform.startswith("win") else ".so"


def ensure_built(verbose: bool = False) -> str:
    """Compile ``_kernels.c`` if needed; return the shared library path.

    Raises :class:`KernelError` when no compiler is available or the build
    fails.  Already-built libraries (matching the current source hash) are
    returned without invoking the compiler.
    """
    name = f"_repro_kernels_{_source_digest()}{_lib_suffix()}"
    candidates = _cache_dirs()
    for directory in candidates:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    compiler = _compiler()
    if compiler is None:
        raise KernelError("no C compiler found (tried $CC, cc, gcc, clang)")
    last_error: Exception | None = None
    for directory in candidates:
        path = os.path.join(directory, name)
        try:
            os.makedirs(directory, exist_ok=True)
            # compile to a temp name, then atomically rename: concurrent
            # builders race benignly
            scratch = path + f".tmp{os.getpid()}"
            command = [
                compiler,
                "-O2",
                "-shared",
                "-fPIC",
                "-o",
                scratch,
                source_path(),
            ]
            result = subprocess.run(
                command, capture_output=True, text=True, timeout=120
            )
            if result.returncode != 0:
                raise KernelError(
                    f"{compiler} failed ({result.returncode}): "
                    f"{result.stderr.strip()[:500]}"
                )
            os.replace(scratch, path)
            if verbose:
                print(f"built {path}")
            return path
        except KernelError:
            raise
        except OSError as error:
            last_error = error
            continue
    raise KernelError(f"no writable cache directory for the kernel build: {last_error}")


def load():
    """Build (if needed), dlopen and sanity-check the native library.

    Returns a ready :class:`NativeBackend`; raises :class:`KernelError` on
    any failure, leaving the caller free to degrade.
    """
    try:
        from cffi import FFI
    except ImportError as error:  # pragma: no cover - cffi is baked in
        raise KernelError(f"cffi unavailable: {error}") from error
    override = os.environ.get("REPRO_KERNELS_LIB")
    path = override if override else ensure_built()
    ffi = FFI()
    ffi.cdef(_CDEF)
    try:
        lib = ffi.dlopen(path)
    except OSError as error:
        raise KernelError(f"cannot load {path}: {error}") from error
    try:
        abi = lib.repro_kernels_abi()
    except Exception as error:  # pragma: no cover - symbol lookup failure
        raise KernelError(f"{path} has no usable ABI entry point: {error}") from error
    if abi != ABI_VERSION:
        raise KernelError(
            f"{path} reports kernel ABI {abi}, this build needs {ABI_VERSION}"
        )
    return NativeBackend(ffi, lib, path)


def _answers(kind: str, values: list) -> list:
    """Kernel results as query answers: k-distance's -1 means beyond k."""
    if kind == "kdist":
        return [None if value == -1 else value for value in values]
    return values


class NativeBackend:
    """Fused C kernels over ``LabelStore.buffers()`` data.

    Every public method returns ``None`` for anything the C side does not
    support (scheme family, value ranges, corrupt streams), and a one-pair
    function returns :data:`repro.kernels.DECLINED` — the caller falls back
    to the packed-Python path, which reproduces the reference behaviour
    exactly, exceptions included.
    """

    name = "native"

    def __init__(self, ffi, lib, path: str) -> None:
        self.ffi = ffi
        self.lib = lib
        self.path = path
        #: uncleared allocations: the lane's buffers are written before read
        self.alloc = ffi.new_allocator(should_clear_after_alloc=False)
        #: slot indexes of a lane chunk's pairs in its interleaved nodes
        self._even = ffi.new("int32_t[]", list(range(0, 2 * _PAIRS_PER_CALL, 2)))
        self._odd = ffi.new("int32_t[]", list(range(1, 2 * _PAIRS_PER_CALL, 2)))

    # -- scheme dispatch -----------------------------------------------------

    def tier_for(self, scheme) -> str:
        return "native" if _kind(scheme) else "python"

    @staticmethod
    def _family(store, scheme):
        """``(kind, extra)`` when the C side serves ``scheme`` on ``store``, else ``None``.

        ``extra`` holds the trailing scalar arguments of the family's entry
        points: ``(k,)`` for k-distance, nothing for the exact families.
        """
        kind = _kind(scheme)
        if kind is None or store.n >= 1 << 31:
            return None
        if kind != "kdist":
            return kind, ()
        k = scheme.k
        return (kind, (k,)) if 1 <= k < _MAX_K else None

    # -- store marshalling ---------------------------------------------------

    def _store_arrays(self, store):
        """Per-store C views of payload/offsets/lengths, built once.

        A real :class:`LabelStore` hands out ``array('Q')`` index sequences
        and a (possibly ``mmap``-backed) payload view — all three are mapped
        in place with ``ffi.from_buffer`` (the payload through
        :meth:`_payload_pointer`), so the native tier runs straight off the
        original storage.  Duck-typed stores returning plain lists
        fall back to a one-time ``ffi.new`` copy.
        """
        cached = getattr(store, "_repro_kernel_arrays", None)
        if cached is not None:
            return cached
        view, offsets, lengths = store.buffers()
        ffi = self.ffi
        payload = self._payload_pointer(view) if len(view) else ffi.new("uint8_t[]", 1)

        def index_array(sequence):
            if len(sequence):
                try:
                    return ffi.from_buffer("uint64_t[]", sequence)
                except TypeError:
                    return ffi.new("uint64_t[]", list(sequence))
            return ffi.new("uint64_t[]", 1)

        offs = index_array(offsets)
        lens = index_array(lengths)
        arrays = (payload, offs, lens, len(lengths))
        try:
            store._repro_kernel_arrays = arrays
        except AttributeError:  # a store type with __slots__: rebuild per call
            pass
        return arrays

    def _payload_pointer(self, view):
        """A ``uint8_t *`` to the first byte of ``view`` that keeps it alive.

        The buffer is taken from the object under a memoryview (``bytes`` or
        an ``mmap``), never from the memoryview itself: when a store holding
        an open cffi export of its memoryview becomes cyclic garbage, the
        collector may clear the view under the export (``BufferError``, then
        a crash when the export is released).  ``ffi.gc`` ties the owner's
        buffer to the offset pointer.
        """
        ffi = self.ffi
        owner = getattr(view, "obj", None)
        if owner is None:  # a plain bytes-like payload from a duck-typed store
            return ffi.from_buffer("uint8_t[]", view)
        base = ffi.from_buffer("uint8_t[]", owner)
        with ffi.from_buffer("uint8_t[]", view) as start:
            offset = int(ffi.cast("uintptr_t", start)) - int(ffi.cast("uintptr_t", base))
        return ffi.gc(base + offset, lambda _pointer, _base=base: None)

    # -- fused entry points --------------------------------------------------

    def batch_query(self, store, scheme, pairs):
        """Distances for ``pairs`` straight from the packed store, or ``None``.

        ``pairs`` is a sequence of ``(u, v)``, answered as a list, or a
        :class:`QueryLane`, answered as a C ``int64_t`` array of
        ``len(pairs)`` raw kernel values (k-distance's -1 means beyond k).
        The C side is called once per :data:`_PAIRS_PER_CALL` pairs, so its
        decode arena, and the heap that arena leaves behind, stay the same
        size whatever the batch length.
        """
        family = self._family(store, scheme)
        if family is None or not pairs:
            return None
        if isinstance(pairs, QueryLane):
            return self._lane_call(store, family, pairs)
        answers = []
        for start in range(0, len(pairs), _PAIRS_PER_CALL):
            part = self._batch_call(store, family, pairs[start : start + _PAIRS_PER_CALL])
            if part is None:
                return None
            answers += part
        return answers

    def _lane_call(self, store, family, lane):
        """The lane's pairs through the batch kernel, or ``None``."""
        kind, extra = family
        payload, offs, lens, n_total = self._store_arrays(store)
        count = lane.fill
        out = self.alloc("int64_t[]", count)
        nodes = lane.nodes
        fn = getattr(self.lib, f"repro_{kind}_batch")
        even, odd = self._even, self._odd
        for start in range(0, count, _PAIRS_PER_CALL):
            size = min(_PAIRS_PER_CALL, count - start)
            if fn(
                payload, offs, lens, n_total, nodes + 2 * start, 2 * size,
                even, odd, size, *extra, out + start,
            ):
                return None
        return out

    def _batch_call(self, store, family, pairs):
        """One C batch call: the answers for ``pairs``, or ``None``."""
        kind, extra = family
        n_total = store.n
        slots: dict[int, int] = {}
        nodes: list[int] = []
        for pair in pairs:
            for node in pair:
                if node not in slots:
                    if not isinstance(node, int) or not 0 <= node < n_total:
                        return None
                    slots[node] = len(nodes)
                    nodes.append(node)
        payload, offs, lens, _ = self._store_arrays(store)
        ffi = self.ffi
        node_arr = ffi.new("int32_t[]", nodes)
        ui = ffi.new("int32_t[]", [slots[u] for u, _ in pairs])
        vi = ffi.new("int32_t[]", [slots[v] for _, v in pairs])
        out = ffi.new("int64_t[]", len(pairs))
        fn = getattr(self.lib, f"repro_{kind}_batch")
        rc = fn(
            payload, offs, lens, n_total, node_arr, len(nodes), ui, vi, len(pairs),
            *extra, out,
        )
        if rc:
            return None
        return _answers(kind, ffi.unpack(out, len(pairs)))

    def matrix_flat(self, store, scheme, targets):
        """Flat row-major all-pairs matrix over ``targets``, or ``None``."""
        family = self._family(store, scheme)
        size = len(targets)
        if family is None or size == 0 or size > _MAX_MATRIX_SIDE:
            return None
        kind, extra = family
        n_total = store.n
        for node in targets:
            if not isinstance(node, int) or not 0 <= node < n_total:
                return None
        payload, offs, lens, _ = self._store_arrays(store)
        ffi = self.ffi
        node_arr = ffi.new("int32_t[]", list(targets))
        out = ffi.new("int64_t[]", size * size)
        fn = getattr(self.lib, f"repro_{kind}_matrix")
        rc = fn(payload, offs, lens, n_total, node_arr, size, *extra, out)
        if rc:
            return None
        return _answers(kind, ffi.unpack(out, size * size))

    def pair_query(self, store, scheme):
        """A one-pair query function over ``store``, or ``None``.

        The function takes ``(u, v)`` and returns the answer (``None`` for
        a k-distance pair beyond k) or :data:`repro.kernels.DECLINED`.  It
        calls one scalar C entry with no ``ffi.new`` and no shared buffer,
        so it is safe on any thread; a node that is not a C ``int64``
        raises ``TypeError``/``OverflowError`` from cffi.
        """
        family = self._family(store, scheme)
        if family is None:
            return None
        kind, extra = family
        payload, offs, lens, n_total = self._store_arrays(store)
        fn = getattr(self.lib, f"repro_{kind}_pair")
        if kind != "kdist":
            return functools.partial(fn, payload, offs, lens, n_total)
        (k,) = extra

        def pair(u, v):
            answer = fn(payload, offs, lens, n_total, u, v, k)
            return None if answer == -1 else answer

        return pair

    def query_lane(self, store, scheme, name: str, capacity: int):
        """A :class:`QueryLane` for member ``name`` over ``store``, or ``None``
        when the C side does not serve ``scheme`` there."""
        if self._family(store, scheme) is None:
            return None
        return QueryLane(self, name, capacity)

    def parse_checksum(self, store, scheme, nodes):
        """Field fold over the decoded labels of ``nodes``, or ``None``.

        Matches :func:`repro.kernels.python_tier.fold_checksum` bit for bit;
        equal checksums certify the C decoder read every field identically.
        """
        family = self._family(store, scheme)
        if family is None or not nodes:
            return None
        n_total = store.n
        for node in nodes:
            if not isinstance(node, int) or not 0 <= node < n_total:
                return None
        payload, offs, lens, _ = self._store_arrays(store)
        ffi = self.ffi
        node_arr = ffi.new("int32_t[]", list(nodes))
        out = ffi.new("uint64_t*")
        fn = getattr(self.lib, f"repro_{family[0]}_checksum")
        rc = fn(payload, offs, lens, n_total, node_arr, len(nodes), out)
        if rc:
            return None
        return int(out[0])

    # -- bulk codec primitives ----------------------------------------------

    def varint_many(self, data, start, count):
        """Decode ``count`` LEB128 varints; ``(values, end_offset)`` or ``None``.

        ``values`` is an ``array('Q')`` the C side fills in place: a store
        open holds one index allocation, not ``count`` Python ints.
        """
        if count >= 1 << 31:
            return None
        ffi = self.ffi
        buf = ffi.from_buffer("uint8_t[]", data) if len(data) else ffi.new("uint8_t[]", 1)
        values = array("Q", bytes(8 * count))
        out = ffi.from_buffer("uint64_t[]", values) if count else ffi.new("uint64_t[]", 1)
        end = ffi.new("uint64_t*")
        rc = self.lib.repro_varint_many(buf, len(data), start, count, out, end)
        if rc:
            return None
        return values, int(end[0])

    def gamma_many(self, data, bit_start, bit_end, count):
        """Decode ``count`` Elias gamma codes; ``(values, end_bit)`` or ``None``."""
        ffi = self.ffi
        buf = ffi.from_buffer("uint8_t[]", data) if len(data) else ffi.new("uint8_t[]", 1)
        out = ffi.new("uint64_t[]", max(count, 1))
        end = ffi.new("uint64_t*")
        rc = self.lib.repro_gamma_many(buf, bit_start, bit_end, count, out, end)
        if rc:
            return None
        return ffi.unpack(out, count), int(end[0])

    def unary_many(self, data, bit_start, bit_end, count):
        """Decode ``count`` unary codes; ``(values, end_bit)`` or ``None``."""
        ffi = self.ffi
        buf = ffi.from_buffer("uint8_t[]", data) if len(data) else ffi.new("uint8_t[]", 1)
        out = ffi.new("uint64_t[]", max(count, 1))
        end = ffi.new("uint64_t*")
        rc = self.lib.repro_unary_many(buf, bit_start, bit_end, count, out, end)
        if rc:
            return None
        return ffi.unpack(out, count), int(end[0])


class QueryLane:
    """Plain QUERY frames for one served member, decoded in C.

    The server's native lane: :meth:`take` decodes the leading run of
    plain QUERY frames (no trace or route suffix) for the member ``name``
    straight from a connection's receive buffer into C arrays — request ids
    in :attr:`ids`, pair ``i`` at ``nodes[2i]``/``nodes[2i + 1]``.
    :meth:`NativeBackend.batch_query` answers all :attr:`fill` of them, and
    :meth:`encode` renders a run's RESULT frames.  A frame the lane does
    not take stays in the buffer for the Python decoder.
    """

    __slots__ = (
        "_ffi", "_lib", "_alloc", "_name", "_name_len", "_end", "ids", "nodes", "fill",
        "capacity",
    )

    def __init__(self, backend: NativeBackend, name: str, capacity: int) -> None:
        ffi = backend.ffi
        self._ffi = ffi
        self._lib = backend.lib
        self._alloc = backend.alloc
        encoded = name.encode("utf-8")
        self._name = ffi.new("uint8_t[]", encoded or b"\0")
        self._name_len = len(encoded)
        self._end = ffi.new("uint64_t *")
        self.capacity = capacity
        self.ids = backend.alloc("uint64_t[]", capacity)
        self.nodes = backend.alloc("int32_t[]", 2 * capacity)
        self.fill = 0

    def __len__(self) -> int:
        return self.fill

    def take(self, buffer, pos: int, limit: int) -> tuple[int, int]:
        """Decode up to ``limit`` frames of ``buffer`` from ``pos`` on.

        Returns ``(count, end)``: the frames appended after the current
        :attr:`fill` (which grows by ``count``) and the offset after them.
        """
        fill = self.fill
        limit = min(limit, self.capacity - fill)
        if limit <= 0 or pos >= len(buffer):
            return 0, pos
        count = self._lib.repro_rsp_queries(
            self._ffi.from_buffer(buffer), len(buffer), pos, self._name,
            self._name_len, limit, self.ids + fill, self.nodes + 2 * fill, self._end,
        )
        self.fill = fill + count
        return count, self._end[0]

    def pair(self, index: int) -> tuple[int, int, int]:
        """``(request_id, u, v)`` of frame ``index``."""
        nodes = self.nodes
        return self.ids[index], nodes[2 * index], nodes[2 * index + 1]

    def encode(self, kind: int, values, start: int, count: int) -> bytes:
        """RESULT frames for frames ``start`` .. ``start + count - 1``, whose
        answers are ``values[start:]`` — byte for byte
        :func:`repro.serve.protocol.encode_result_block` (exact and bounded
        kinds only)."""
        out = self._alloc("uint8_t[]", _RESULT_FRAME_MAX * count)
        size = self._lib.repro_rsp_results(
            kind, self.ids + start, values + start, count, out
        )
        if size < 0:
            raise ValueError(f"the lane encodes exact and bounded results, not kind {kind}")
        return self._ffi.buffer(out, size)[:]
