"""The always-available floor tier: the packed-Python paths themselves.

This backend accelerates nothing — every fused entry point returns ``None``
so callers use the existing word-level Python code — but it carries the
reference implementation of the parse checksum the differential suites and
the kernel benchmark compare the other tiers against.
"""

from __future__ import annotations

from repro.core.freedman import FreedmanScheme
from repro.core.hld import HLDScheme
from repro.core.kdistance import KDistanceScheme

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211


#: the families with a native decoder, by exact type: a subclass may
#: override ``distance``/``query`` semantics, which the C side knows nothing
#: about
_KINDS = {HLDScheme: "hld", FreedmanScheme: "freedman", KDistanceScheme: "kdist"}


def _kind(scheme) -> str | None:
    """``"hld"``/``"freedman"``/``"kdist"`` for a family with a native decoder, else ``None``."""
    return _KINDS.get(type(scheme))


def fold_checksum(scheme, labels) -> int | None:
    """FNV-1a-style fold over every decoded field of ``labels`` (in order).

    The C kernels compute the identical fold over their own decode
    (``repro_<kind>_checksum``), so an equal checksum certifies
    field-for-field agreement between the decoders.  Returns ``None`` for
    scheme families without a native decoder.
    """
    kind = _kind(scheme)
    if kind is None:
        return None
    h = _FNV_OFFSET
    if kind == "kdist":
        for label in labels:
            fields = [
                label.pre,
                label.light_depth,
                int(label.has_extension),
                int(label.compact),
                label.alpha,
                label.position_mod,
            ]
            for sequence in (
                label.heights,
                label.child_heights,
                label.distances,
                label.forward,
                label.backward,
            ):
                fields.append(len(sequence))
                fields.extend(sequence)
            for value in fields:
                h = ((h ^ value) * _FNV_PRIME) & _MASK64
        return h
    if kind == "hld":
        for label in labels:
            h = ((h ^ label.root_distance) * _FNV_PRIME) & _MASK64
            h = ((h ^ label._count) * _FNV_PRIME) & _MASK64
            for path_id, exit_distance in zip(label.path_ids, label.exits):
                h = ((h ^ path_id) * _FNV_PRIME) & _MASK64
                h = ((h ^ exit_distance) * _FNV_PRIME) & _MASK64
        return h
    for label in labels:
        h = ((h ^ label.node_id) * _FNV_PRIME) & _MASK64
        h = ((h ^ label.root_distance) * _FNV_PRIME) & _MASK64
        h = ((h ^ label.domination) * _FNV_PRIME) & _MASK64
        h = ((h ^ label.light_depth) * _FNV_PRIME) & _MASK64
        for level in range(label.light_depth):
            h = ((h ^ len(label.codewords[level])) * _FNV_PRIME) & _MASK64
            h = ((h ^ label.codewords[level].to_int()) * _FNV_PRIME) & _MASK64
            h = ((h ^ label.light_weights[level]) * _FNV_PRIME) & _MASK64
            h = ((h ^ int(label.entry_skip[level])) * _FNV_PRIME) & _MASK64
            h = ((h ^ len(label.entry_kept[level])) * _FNV_PRIME) & _MASK64
            h = ((h ^ label.entry_kept[level].to_int()) * _FNV_PRIME) & _MASK64
            h = ((h ^ label.entry_pushed[level]) * _FNV_PRIME) & _MASK64
        for value in label.fragment_refs:
            h = ((h ^ value) * _FNV_PRIME) & _MASK64
        for value in label.fragment_distances:
            h = ((h ^ value) * _FNV_PRIME) & _MASK64
        for level in range(label.light_depth):
            accumulator = label.accumulators[level]
            h = ((h ^ len(accumulator)) * _FNV_PRIME) & _MASK64
            h = ((h ^ (accumulator.to_int() & _MASK64)) * _FNV_PRIME) & _MASK64
    return h


class PythonBackend:
    """The packed-Python floor: fused entry points decline, callers fall back."""

    name = "python"
    #: effectively infinite — the engine never routes through this backend
    min_batch = 1 << 62

    def tier_for(self, scheme) -> str:
        return "python"

    def batch_query(self, store, scheme, pairs):
        return None

    def matrix_flat(self, store, scheme, targets):
        return None

    def pair_query(self, store, scheme):
        return None

    def varint_many(self, data, start, count):
        return None

    def parse_checksum(self, store, scheme, nodes):
        """The reference checksum, from the packed-Python ``parse_many``."""
        if not nodes:
            return None
        labels = scheme.parse_many(store, list(dict.fromkeys(nodes)))
        return fold_checksum(scheme, [labels[node] for node in nodes])
