"""Query serving on top of a :class:`repro.store.LabelStore`.

The engine is decoder-only: it sees packed bits, never the tree.  Single
queries, batches and matrices go to the active kernel backend
(:mod:`repro.kernels`) first; for hld-fixed, Freedman and k-distance the
native tier decodes and answers straight from :meth:`LabelStore.buffers`,
with no Python-side parse at all.  :meth:`QueryEngine.query` calls a
one-pair C entry that its first call resolves, once per engine.

Everything the kernel declines — other scheme families, the packed-Python
floor, out-of-range nodes, corrupt labels — runs through
the scheme's own ``parse_many``.  Parsing a label dominates CPython query
cost there, so the engine keeps a bounded LRU cache of parsed labels for
those declined :meth:`QueryEngine.query` calls and the Python batch path,
which parses each distinct endpoint exactly once.

The supply path is zero-string end to end: the store yields
``(node, packed_value, bit_length)`` words (:meth:`LabelStore.label_words`)
and the scheme's ``parse_many`` turns them into label objects — no
character-per-bit strings, and for schemes with a word-level parser no
intermediate :class:`~repro.encoding.bitio.Bits` either.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from repro import kernels
from repro.kernels import DECLINED
from repro.store.label_store import LabelStore

#: cache-miss sentinel: one ``dict.get`` resolves hit-or-miss without a
#: second ``in`` lookup (``None`` is not usable — it is a valid label value
#: only in theory, but the sentinel also guards against that)
_MISSING = object()
#: :attr:`QueryEngine._pair` before the first query resolves it
_UNRESOLVED = object()


class QueryEngine:
    """Answers queries from a packed store through ``scheme.query``.

    ``scheme`` may be omitted, in which case it is rebuilt from the spec the
    store carries.  The semantics of one query result follow the scheme's
    family (``scheme.kind``): an exact distance, a distance-or-``None``
    bounded answer, or a (1+eps)-approximation.
    """

    def __init__(
        self,
        store: LabelStore,
        scheme=None,
        cache_size: int = 4096,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        self.store = store
        self.scheme = scheme if scheme is not None else store.make_scheme()
        self._cache: OrderedDict[int, object] = OrderedDict()
        self._cache_size = cache_size
        #: parsed-label cache statistics, exposed for benchmarks and tuning
        self.cache_hits = 0
        self.cache_misses = 0
        #: the backend's one-pair function (``None``: no kernel for this
        #: scheme on this tier), resolved by the first :meth:`query`
        self._pair = _UNRESOLVED

    @classmethod
    def from_labels(cls, scheme, labels: dict[int, object], **kwargs) -> "QueryEngine":
        """Pack ``labels`` into a fresh store and serve it."""
        return cls(LabelStore.from_labels(scheme, labels), scheme=scheme, **kwargs)

    @classmethod
    def encode_tree(cls, scheme, tree, **kwargs) -> "QueryEngine":
        """Encode ``tree``, pack the labels and serve them."""
        return cls(LabelStore.encode_tree(scheme, tree), scheme=scheme, **kwargs)

    @property
    def n(self) -> int:
        """Number of queryable nodes."""
        return self.store.n

    # -- label parsing -------------------------------------------------------

    def parsed_label(self, node: int):
        """The parsed label of ``node``, LRU-cached.

        A miss goes through the scheme's word-level ``parse_many`` supply
        path, which raises :class:`~repro.store.StoreError` for a node out
        of range.
        """
        cache = self._cache
        label = cache.get(node, _MISSING)
        if label is not _MISSING:
            cache.move_to_end(node)
            self.cache_hits += 1
            return label
        self.cache_misses += 1
        label = self.scheme.parse_many(self.store, (node,))[node]
        cache[node] = label
        if len(cache) > self._cache_size:
            cache.popitem(last=False)
        return label

    def _parse_batch(self, nodes: Iterable[int]) -> dict[int, object]:
        """Parse each distinct node once, reusing (and warming) the cache.

        Per-node LRU bookkeeping is skipped: every requested node is being
        collected into the returned local dict anyway, so cache hits are
        plain lookups (no recency promotion) and freshly parsed labels are
        inserted in bulk, with a single eviction sweep at the end.
        """
        parsed: dict[int, object] = {}
        cache_get = self._cache.get
        hits = 0
        missing: list[int] = []
        for node in dict.fromkeys(nodes):  # C-speed, order-preserving dedup
            label = cache_get(node, _MISSING)
            if label is not _MISSING:
                hits += 1
                parsed[node] = label
            else:
                missing.append(node)
        self.cache_hits += hits
        if missing:
            self.cache_misses += len(missing)
            fresh = self.scheme.parse_many(self.store, missing)
            parsed.update(fresh)
            cache = self._cache
            cache.update(fresh)
            if len(cache) > self._cache_size:
                pop = cache.popitem
                for _ in range(len(cache) - self._cache_size):
                    pop(last=False)
        return parsed

    # -- queries -------------------------------------------------------------

    def query(self, u: int, v: int):
        """One query; result semantics follow ``scheme.kind``.

        The backend's one-pair kernel answers first, without touching the
        parse cache.  When it declines (or there is none) the two labels
        come from the LRU and ``scheme.query`` answers — which also raises
        the reference error for a bad node or a corrupt label.
        """
        pair = self._pair
        if pair is _UNRESOLVED:
            pair = self._pair = kernels.backend().pair_query(self.store, self.scheme)
        if pair is not None:
            try:
                answer = pair(u, v)
            except (TypeError, OverflowError):  # not a C integer
                answer = DECLINED
            if answer != DECLINED:
                return answer
        return self.scheme.query(self.parsed_label(u), self.parsed_label(v))

    def distance(self, u: int, v: int):
        """Alias of :meth:`query` for the common exact-scheme case."""
        return self.query(u, v)

    def batch_query(self, pairs: Sequence[tuple[int, int]]) -> list:
        """Answer many queries, parsing each distinct endpoint at most once.

        The active kernel backend answers first, whatever the batch size,
        straight from the packed store and without touching the parse
        cache.  A backend that declines
        (``None``: unsupported scheme, the Python floor, an out-of-range
        node) sends the batch down the Python path: one ``_parse_batch``
        through the LRU, then ``scheme.query`` per pair — which also raises
        the reference error for a bad node.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        fused = kernels.backend().batch_query(self.store, self.scheme, pairs)
        if fused is not None:
            return fused
        us, vs = zip(*pairs)
        parsed = self._parse_batch(us + vs)
        query = self.scheme.query
        return [query(parsed[u], parsed[v]) for u, v in pairs]

    def batch_distance(self, pairs: Sequence[tuple[int, int]]) -> list:
        """Alias of :meth:`batch_query` for the common exact-scheme case."""
        return self.batch_query(pairs)

    def distance_matrix(
        self,
        nodes: Sequence[int] | None = None,
        assume_symmetric: bool = True,
    ) -> list[list]:
        """All pairwise answers over ``nodes`` (default: every node).

        The row split of :meth:`matrix_into`, so it shares that method's
        contract: a fused kernel fill when the backend supports the scheme,
        otherwise each distinct label parsed once, and the engine (cache
        and counters) left untouched either way.
        """
        targets = list(range(self.store.n)) if nodes is None else list(nodes)
        flat = self.matrix_into(targets, assume_symmetric=assume_symmetric)
        size = len(targets)
        return [flat[row * size : (row + 1) * size] for row in range(size)]

    def matrix_into(
        self,
        nodes: Sequence[int] | None = None,
        out: list | None = None,
        assume_symmetric: bool = True,
    ) -> list:
        """All pairwise answers over ``nodes``, flat row-major, executor-safe.

        This is the entry point the network server offloads MATRIX requests
        to a worker thread through, so it **never mutates the engine**:
        parsed labels come from read-only cache lookups (no LRU promotion,
        no insertion, no counter updates) with misses parsed into a local
        dict, and the result is appended to ``out`` (or a fresh list) as one
        flat row-major sequence — exactly the shape the wire protocol
        carries.  Safe to run concurrently with event-loop queries on
        another thread; the trade-off is that a matrix never warms any
        cache.

        Every scheme in this library answers symmetrically, so by default
        only the upper triangle is computed and the lower triangle is
        mirrored.  Pass ``assume_symmetric=False`` to force the full
        entry-by-entry computation (e.g. for a custom scheme with
        asymmetric semantics).
        """
        targets = list(range(self.store.n)) if nodes is None else list(nodes)
        flat = [] if out is None else out
        if assume_symmetric and len(targets) >= 2:
            # fused kernel fill: reads only the immutable store (not even
            # the cache), so the never-mutates contract holds trivially; a
            # backend that declines falls through to the Python path (which
            # also raises the proper error for out-of-range targets)
            fused = kernels.backend().matrix_flat(self.store, self.scheme, targets)
            if fused is not None:
                flat.extend(fused)
                return flat
        cache_get = self._cache.get
        # one cache lookup per distinct node: the event loop may evict
        # entries concurrently, so a second lookup could miss where the
        # first hit — every label is captured at its first sighting
        by_node: dict[int, object] = {}
        missing: list[int] = []
        for node in dict.fromkeys(targets):
            label = cache_get(node, _MISSING)
            if label is _MISSING:
                missing.append(node)
            else:
                by_node[node] = label
        if missing:
            by_node.update(self.scheme.parse_many(self.store, missing))
        parsed = [by_node[node] for node in targets]
        query = self.scheme.query
        if not assume_symmetric:
            for label_i in parsed:
                for label_j in parsed:
                    flat.append(query(label_i, label_j))
            return flat
        # upper triangle once, mirrored through a local row matrix
        size = len(parsed)
        rows: list[list] = [[0] * size for _ in range(size)]
        for i in range(size):
            label_i = parsed[i]
            row = rows[i]
            row[i] = query(label_i, label_i)
            for j in range(i + 1, size):
                answer = query(label_i, parsed[j])
                row[j] = answer
                rows[j][i] = answer
        for row in rows:
            flat.extend(row)
        return flat

    # -- cache management ----------------------------------------------------

    def cache_info(self) -> dict:
        """Hit/miss counters and current occupancy of the parsed-label cache.

        The cache serves the Python paths only: a query or batch the
        kernel backend answers, and every matrix, leaves these counters
        untouched.  ``hit_rate`` is therefore the lifetime fraction
        of *those* lookups served from the cache (0.0 before any lookup).
        ``backend`` is the kernel tier answering this engine's queries
        (``native``/``python``; see :mod:`repro.kernels`) — per
        scheme, so an engine whose scheme has no native kernel honestly
        reports ``python`` even when the native tier is loaded.
        """
        lookups = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": round(self.cache_hits / lookups, 4) if lookups else 0.0,
            "size": len(self._cache),
            "max_size": self._cache_size,
            "backend": kernels.backend().tier_for(self.scheme),
        }

    def clear_cache(self) -> None:
        """Drop all parsed labels (counters included)."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
