"""Which public entry points belong to which layer, and what they yield.

:func:`install_library` and :func:`install_server` put timing wrappers
(see :mod:`perfbench.tracing`) around the calls into each layer;
:func:`layer_metrics` turns one window's per-name totals into the
per-layer metrics listed in :data:`PER_LAYER`.  A metric whose layer does
no work on a workload (the serve layer in-process, the fused kernel under
k-distance) reads 0.
"""

from __future__ import annotations

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("api.self_ns_per_pair", "ns", "lower"),
    ("store.engine_self_ns_per_pair", "ns", "lower"),
    ("store.labels_parsed_per_pair", "labels/pair", "lower"),
    ("store.cache_hit_rate", "ratio", "higher"),
    ("store.encode_s", "s", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.open_s", "s", "lower"),
    ("trees.generate_s", "s", "lower"),
    ("core.parse_ns_per_label", "ns", "lower"),
    ("core.parse_share", "ratio", "lower"),
    ("core.query_ns_per_pair", "ns", "lower"),
    ("kernels.fused_ns_per_pair", "ns", "lower"),
    ("kernels.fused_pair_share", "ratio", "higher"),
    ("serve.protocol.decode_ns_per_request", "ns", "lower"),
    ("serve.protocol.encode_ns_per_pair", "ns", "lower"),
    ("serve.server.dispatch_self_ns_per_request", "ns", "lower"),
    ("serve.server.mean_batch_size", "pairs", "higher"),
    ("serve.server.queue_wait_ms_p50", "ms", "lower"),
    ("serve.server.cpu_busy_share", "ratio", "lower"),
    ("serve.client.cpu_busy_share", "ratio", "lower"),
    ("serve.server.busy_rejections", "count", "lower"),
    ("serve.server.errors", "count", "lower"),
    ("serve.client.busy_retried", "count", "lower"),
    ("serve.client.reconnects", "count", "lower"),
    ("obs.observe_calls_per_pair", "calls/pair", "lower"),
    ("obs.observe_ns_per_pair", "ns", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

#: a mark with nothing recorded, to difference a trace's first window against
EMPTY_MARK = {"clock_ns": 0, "spans": 0, "folded": {}, "span_items": {}}


def _answered(result) -> int:
    """Pairs a fused kernel answered: all of them, or none when it declined."""
    return 0 if result is None else len(result)


def install_library(tracer, scheme_cls) -> None:
    """Wrap the api, store, core, kernels, trees and obs entry points.

    Per-pair entry points (``DistanceIndex.query`` and below, the parse of
    one label, ``Histogram.observe``) are folded; per-batch and set-up
    calls are spans.
    """
    from repro import kernels
    from repro.api import DistanceIndex
    from repro.generators import workloads
    from repro.obs.hist import Histogram
    from repro.store import LabelStore, QueryEngine

    tracer.patch(workloads, "make_tree", "trees.make_tree")
    tracer.patch(LabelStore, "encode_tree", "store.encode_tree")
    tracer.patch(LabelStore, "save", "store.save")
    tracer.patch(LabelStore, "open_mmap", "store.open_mmap")
    tracer.patch(DistanceIndex, "batch", "api.batch", count=len)
    tracer.patch(DistanceIndex, "query", "api.query", fold=True)
    tracer.patch(QueryEngine, "batch_query", "store.batch_query")
    tracer.patch(QueryEngine, "query", "store.query", fold=True)
    tracer.patch(scheme_cls, "parse_many", "core.parse_many", count=len)
    tracer.patch(scheme_cls, "parse", "core.parse", fold=True)
    tracer.patch(scheme_cls, "query", "core.query", fold=True)
    tracer.patch(
        type(kernels.backend()), "batch_query", "kernels.batch_query", count=_answered
    )
    tracer.patch(Histogram, "observe", "obs.observe", fold=True)


def install_server(tracer) -> None:
    """Wrap the serve layer's per-request entry points (all folded)."""
    from repro.serve import protocol
    from repro.serve.server import ServingCore

    tracer.patch(protocol, "decode_request", "serve.decode_request", fold=True)
    tracer.patch(
        protocol, "encode_result_block", "serve.encode_result_block", fold=True
    )
    tracer.patch(ServingCore, "handle_request", "serve.handle_request", fold=True)


def setup_metrics(totals: dict) -> dict:
    """Set-up layer times (seconds) from the totals of the set-up phase."""

    def seconds(name):
        return totals.get(name, {}).get("total_ns", 0) / 1e9

    return {
        "store.encode_s": seconds("store.encode_tree"),
        "store.save_s": seconds("store.save"),
        "store.open_s": seconds("store.open_mmap"),
        "trees.generate_s": seconds("trees.make_tree"),
    }


def layer_metrics(totals: dict, *, pairs: int, window_ns: int, cache: dict) -> dict:
    """Per-pair layer metrics of one traced window.

    ``totals`` comes from :func:`perfbench.tracing.window_totals`;
    ``cache`` holds the window's parsed-label cache ``hits`` and
    ``misses`` (deltas of ``cache_info()``).
    """

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    def per(value, count):
        return value / count if count else 0.0

    parse_ns = get("core.parse_many", "total_ns") + get("core.parse", "total_ns")
    labels = get("core.parse_many", "items") + get("core.parse", "calls")
    lookups = cache["hits"] + cache["misses"]
    return {
        "api.self_ns_per_pair": per(
            get("api.batch", "self_ns") + get("api.query", "self_ns"), pairs
        ),
        "store.engine_self_ns_per_pair": per(
            get("store.batch_query", "self_ns") + get("store.query", "self_ns"), pairs
        ),
        "store.labels_parsed_per_pair": per(cache["misses"], pairs),
        "store.cache_hit_rate": per(cache["hits"], lookups),
        "core.parse_ns_per_label": per(parse_ns, labels),
        "core.parse_share": per(parse_ns, window_ns),
        "core.query_ns_per_pair": per(get("core.query", "total_ns"), pairs),
        "kernels.fused_ns_per_pair": per(get("kernels.batch_query", "total_ns"), pairs),
        "kernels.fused_pair_share": per(get("kernels.batch_query", "items"), pairs),
        "serve.protocol.decode_ns_per_request": per(
            get("serve.decode_request", "total_ns"), get("serve.decode_request", "calls")
        ),
        "serve.protocol.encode_ns_per_pair": per(
            get("serve.encode_result_block", "total_ns"), pairs
        ),
        "serve.server.dispatch_self_ns_per_request": per(
            get("serve.handle_request", "self_ns"), get("serve.handle_request", "calls")
        ),
        "obs.observe_calls_per_pair": per(get("obs.observe", "calls"), pairs),
        "obs.observe_ns_per_pair": per(get("obs.observe", "total_ns"), pairs),
    }
