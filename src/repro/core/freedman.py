"""The paper's main contribution: 1/4 log² n + o(log² n) distance labels.

Section 3 structure, mirrored here:

1. **Transform** (Section 2): attach a 0-weight pendant leaf to every node
   and binarize; queries are asked on the pendant leaves, whose pairwise
   distances equal the original distances.
2. **Heavy path decomposition + collapsed tree** (Section 2/Fig. 1) with the
   paper's ``>= |T|/2`` descent rule.
3. **Modified distance arrays** (Section 3.2): for every light edge on a
   node's root path the label stores a *truncated distance* (the most
   significant bits of the edge's head-to-head distance) plus an
   *accumulator* holding the least significant bits pushed over from the
   edges of *dominating* sibling subtrees.  Thin subtrees store their entry
   in full; the exceptional (last-ordered) subtree stores nothing.
4. **Fragment distance arrays** (Section 3.3): entries are stored relative
   to O(sqrt(log n)) fragment heads whose absolute root distances the label
   keeps explicitly, so a single entry (not a prefix sum) suffices to answer
   a query.
5. **Query** (Lemma 3.1 / Section 3.4): compute ``lightdepth(u, v)`` from the
   light codes, decide who dominates via the collapsed-tree postorder
   number, reconstruct the dominating side's critical entry from its
   truncated bits and the dominated side's accumulator, and finish with
   ``rd(u) + rd(v) - 2 rd(NCA)``.

Ablation switches (`use_fragments`, `use_accumulators`, `binarize`) let the
benchmarks quantify each ingredient's contribution to the label size
(DESIGN.md, "Ablations").
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.base import DistanceLabelingScheme
from repro.encoding.alphabetic import common_codeword_prefix
from repro.encoding.bitio import BitError, BitReader, BitWriter, Bits
from repro.encoding.elias import decode_delta, decode_gamma, encode_delta, encode_gamma
from repro.encoding.monotone import MonotoneSequence
from repro.nca.labels import LightDepthLabeling
from repro.trees.collapsed import CollapsedTree
from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.transform import prepare_for_leaf_queries
from repro.trees.tree import RootedTree

#: a hanging subtree is *thin* when it is at most 1/2^8 of the subtree rooted
#: at its branch node (Lemma 3.4)
THIN_FACTOR = 256

_EMPTY_BITS = Bits("")


class _Entries(NamedTuple):
    """Packed Section 3.2 entry rows, indexed by collapsed path id.

    ``accumulator[p]`` is the *full* accumulator of parent path ``p``; a
    child's prefix (what its dominating siblings pushed before its turn) is
    ``accumulator[parent][:prefix_length[child]]``.
    """

    skip: bytearray
    kept_value: array
    kept_length: array
    pushed: array
    prefix_length: array
    accumulator: list


@dataclass
class FreedmanLabel:
    """Label of one (original) node.

    All per-level lists are indexed by the light-edge index ``0 .. L-1``
    where ``L`` is the light depth of the node's pendant leaf in the
    transformed tree.
    """

    node_id: int
    root_distance: int
    domination: int
    codewords: list[Bits]
    light_weights: list[int]
    fragment_refs: list[int]
    fragment_distances: list[int]
    entry_skip: list[bool]
    entry_kept: list[Bits]
    entry_pushed: list[int]
    accumulators: list[Bits] = field(default_factory=list)

    @property
    def light_depth(self) -> int:
        """Number of light edges on the pendant leaf's root path."""
        return len(self.codewords)

    # -- serialisation ------------------------------------------------------

    def to_bits(self) -> Bits:
        """Serialise the label as a self-contained bit string."""
        writer = BitWriter()
        encode_delta(writer, self.node_id)
        encode_delta(writer, self.root_distance)
        encode_delta(writer, self.domination)
        encode_gamma(writer, self.light_depth)
        for word in self.codewords:
            encode_gamma(writer, len(word))
            writer.write_bits(word)
        for weight in self.light_weights:
            encode_gamma(writer, weight)
        MonotoneSequence(self.fragment_refs).write(writer)
        MonotoneSequence(self.fragment_distances).write(writer)
        for level in range(self.light_depth):
            writer.write_bit(1 if self.entry_skip[level] else 0)
            if not self.entry_skip[level]:
                encode_gamma(writer, len(self.entry_kept[level]))
                writer.write_bits(self.entry_kept[level])
                encode_gamma(writer, self.entry_pushed[level])
        for level in range(self.light_depth):
            encode_gamma(writer, len(self.accumulators[level]))
            writer.write_bits(self.accumulators[level])
        return writer.getvalue()

    @classmethod
    def from_bits(cls, bits: Bits) -> "FreedmanLabel":
        """Parse a serialised label."""
        reader = BitReader(bits)
        node_id = decode_delta(reader)
        root_distance = decode_delta(reader)
        domination = decode_delta(reader)
        depth = decode_gamma(reader)
        codewords = []
        for _ in range(depth):
            length = decode_gamma(reader)
            codewords.append(reader.read_bits(length))
        light_weights = [decode_gamma(reader) for _ in range(depth)]
        fragment_refs = MonotoneSequence.read(reader).to_list()
        fragment_distances = MonotoneSequence.read(reader).to_list()
        entry_skip, entry_kept, entry_pushed = [], [], []
        for _ in range(depth):
            skip = reader.read_bit() == 1
            entry_skip.append(skip)
            if skip:
                entry_kept.append(Bits(""))
                entry_pushed.append(0)
            else:
                length = decode_gamma(reader)
                entry_kept.append(reader.read_bits(length))
                entry_pushed.append(decode_gamma(reader))
        accumulators = []
        for _ in range(depth):
            length = decode_gamma(reader)
            accumulators.append(reader.read_bits(length))
        return cls(
            node_id=node_id,
            root_distance=root_distance,
            domination=domination,
            codewords=codewords,
            light_weights=light_weights,
            fragment_refs=fragment_refs,
            fragment_distances=fragment_distances,
            entry_skip=entry_skip,
            entry_kept=entry_kept,
            entry_pushed=entry_pushed,
            accumulators=accumulators,
        )

    def bit_length(self) -> int:
        """Size of the serialised label in bits."""
        return len(self.to_bits())

    def distance_array_bits(self) -> int:
        """Bits of the *modified distance array* (Section 3.2 core term).

        This is the quantity whose leading term the paper reduces from
        ``1/2 log² n`` to ``1/4 log² n``: the truncated distances plus the
        accumulators a label carries.  The benchmarks report it alongside
        the full label size because at practical ``n`` the lower-order terms
        (fragment arrays, light codes, length headers) dominate the total.
        """
        kept = sum(len(bits) for bits in self.entry_kept)
        accumulated = sum(len(bits) for bits in self.accumulators)
        return kept + accumulated

    def field_breakdown(self) -> dict[str, int]:
        """Bits used by each label component (label-size diagnostics)."""
        from repro.encoding.elias import delta_length, gamma_length

        codeword_bits = sum(len(word) for word in self.codewords)
        codeword_headers = sum(gamma_length(len(word)) for word in self.codewords)
        kept = sum(len(bits) for bits in self.entry_kept)
        accumulated = sum(len(bits) for bits in self.accumulators)
        fragments = (
            MonotoneSequence(self.fragment_refs).bit_length()
            + MonotoneSequence(self.fragment_distances).bit_length()
        )
        return {
            "identity": delta_length(self.node_id)
            + delta_length(self.root_distance)
            + delta_length(self.domination),
            "light_code": codeword_bits + codeword_headers,
            "light_weights": sum(gamma_length(w) for w in self.light_weights),
            "fragments": fragments,
            "truncated_distances": kept,
            "accumulators": accumulated,
            "entry_headers": self.bit_length()
            - delta_length(self.node_id)
            - delta_length(self.root_distance)
            - delta_length(self.domination)
            - codeword_bits
            - codeword_headers
            - sum(gamma_length(w) for w in self.light_weights)
            - fragments
            - kept
            - accumulated,
        }


def _parse_word(value: int, total: int) -> FreedmanLabel:
    """Decode one serialised label straight from its packed integer.

    The word-level twin of :meth:`FreedmanLabel.from_bits`: the same field
    grammar (delta/gamma headers, light codewords, two monotone sequences,
    entry triples, accumulators) decoded with shifts and masks on the packed
    word — no :class:`BitReader`, and crucially no
    :class:`~repro.encoding.monotone.MonotoneSequence` reconstruction (the
    generic path re-encodes both sequences and builds predecessor structures
    that a parsed-label consumer never touches).
    """
    rem = total
    pack = Bits._pack

    def gamma() -> int:
        # single-call gamma: the code's value is the top ``zeros + 1`` bits
        # starting at the leading one (same arithmetic as the HLD parser)
        nonlocal rem
        suffix = value & ((1 << rem) - 1)
        if not suffix:
            raise BitError("bit stream exhausted")
        significant = suffix.bit_length()
        width = rem - significant + 1  # zeros + 1
        if width > significant:
            raise BitError("bit stream exhausted")
        rem -= 2 * width - 1
        return (suffix >> (significant - width)) - 1

    def delta() -> int:
        nonlocal rem
        width = gamma() + 1
        if width == 1:
            return 0
        if width - 1 > rem:
            raise BitError("bit stream exhausted")
        rem -= width - 1
        return ((1 << (width - 1)) | ((value >> rem) & ((1 << (width - 1)) - 1))) - 1

    def gamma_bits() -> Bits:
        # gamma-coded length followed by that many payload bits
        nonlocal rem
        count = gamma()
        if count > rem:
            raise BitError("bit stream exhausted")
        rem -= count
        return pack((value >> rem) & ((1 << count) - 1), count)

    def monotone_values() -> list[int]:
        # the value list of one MonotoneSequence (Lemma 2.2 layout: count,
        # low width, packed low parts, unary-coded high-part differences)
        nonlocal rem
        count = gamma()
        if count == 0:
            return []
        low_width = gamma()
        if low_width:
            if count * low_width > rem:
                raise BitError("bit stream exhausted")
            lows = []
            mask = (1 << low_width) - 1
            for _ in range(count):
                rem -= low_width
                lows.append((value >> rem) & mask)
        else:
            lows = [0] * count
        values: list[int] = []
        high = 0
        suffix = value & ((1 << rem) - 1)
        for index in range(count):
            if not suffix:
                raise BitError("bit stream exhausted")
            zeros = rem - suffix.bit_length()
            rem -= zeros + 1
            suffix &= (1 << rem) - 1
            high += zeros
            values.append((high << low_width) | lows[index])
        return values

    node_id = delta()
    root_distance = delta()
    domination = delta()
    depth = gamma()
    codewords = [gamma_bits() for _ in range(depth)]
    light_weights = [gamma() for _ in range(depth)]
    fragment_refs = monotone_values()
    fragment_distances = monotone_values()
    entry_skip: list[bool] = []
    entry_kept: list[Bits] = []
    entry_pushed: list[int] = []
    empty = pack(0, 0)
    for _ in range(depth):
        if not rem:
            raise BitError("bit stream exhausted")
        rem -= 1
        if (value >> rem) & 1:
            entry_skip.append(True)
            entry_kept.append(empty)
            entry_pushed.append(0)
        else:
            entry_skip.append(False)
            entry_kept.append(gamma_bits())
            entry_pushed.append(gamma())
    accumulators = [gamma_bits() for _ in range(depth)]
    return FreedmanLabel(
        node_id=node_id,
        root_distance=root_distance,
        domination=domination,
        codewords=codewords,
        light_weights=light_weights,
        fragment_refs=fragment_refs,
        fragment_distances=fragment_distances,
        entry_skip=entry_skip,
        entry_kept=entry_kept,
        entry_pushed=entry_pushed,
        accumulators=accumulators,
    )


class FreedmanScheme(DistanceLabelingScheme):
    """The 1/4 log² n + o(log² n) exact distance labeling scheme."""

    name = "freedman"

    def __init__(
        self,
        binarize: bool = True,
        use_fragments: bool = True,
        use_accumulators: bool = True,
    ) -> None:
        self._binarize = binarize
        self._use_fragments = use_fragments
        self._use_accumulators = use_accumulators
        #: statistics of the most recent :meth:`encode` call (for ablations)
        self.encoding_stats: dict[str, int] = {}

    def params(self) -> dict:
        return {
            "binarize": self._binarize,
            "use_fragments": self._use_fragments,
            "use_accumulators": self._use_accumulators,
        }

    # -- encoding ------------------------------------------------------------

    def encode(self, tree: RootedTree) -> dict[int, FreedmanLabel]:
        return dict(enumerate(self.encode_stream(tree)))

    def encode_stream(self, tree: RootedTree):
        """Yield each original node's label in node order, one at a time.

        All of Section 3's shared structure (transform, decomposition,
        collapsed tree, light codes, fragments, entries) is computed once;
        each label is then an independent :meth:`_assemble_label` over the
        node's pendant leaf, so a streaming consumer
        (:mod:`repro.scale.build`) never materialises the full label dict.
        """
        transform = prepare_for_leaf_queries(tree, binarize_tree=self._binarize)
        working = transform.tree
        decomposition = HeavyPathDecomposition(working, variant="paper")
        collapsed = CollapsedTree(decomposition)
        light = LightDepthLabeling(working, collapsed)

        boundaries, fragment_ref, entry_value = self._compute_fragments(
            working, collapsed
        )
        entries = self._compute_entries(working, collapsed, entry_value)

        query_node = transform.query_node
        for original in range(tree.n):
            yield self._assemble_label(
                original,
                query_node[original],
                working,
                collapsed,
                light,
                boundaries,
                fragment_ref,
                entries,
            )

    def _compute_fragments(
        self, working: RootedTree, collapsed: CollapsedTree
    ) -> tuple[list, "array", "array"]:
        """Fragment boundaries along every collapsed root path (Section 3.3).

        Rows are indexed by collapsed path id: ``boundaries`` is a list of
        (widely shared) boundary tuples, ``fragment_ref`` and
        ``entry_value`` are packed arrays — a dict entry per path costs an
        order of magnitude more, which the 10⁷-node streaming builds of
        :mod:`repro.scale` cannot afford.
        """
        n = working.n
        block = max(1, math.ceil(math.sqrt(max(1.0, math.log2(max(n, 2))))))

        path_count = len(collapsed)
        boundaries: list = [None] * path_count
        fragment_ref = array("i", bytes(4 * path_count))
        entry_value = array("q", bytes(8 * path_count))

        root_path = collapsed.root
        boundaries[root_path] = (working.root_distance(collapsed.head(root_path)),)

        order = [root_path]
        stack = list(collapsed.children(root_path))
        while stack:
            path = stack.pop()
            order.append(path)
            stack.extend(collapsed.children(path))

        for path in order[1:]:
            parent = collapsed.parent(path)
            assert parent is not None
            blist = boundaries[parent]
            head = collapsed.head(path)
            head_distance = working.root_distance(head)
            head_size = working.subtree_size(head)
            if self._use_fragments:
                while head_size * (2 ** (len(blist) * block)) <= n:
                    blist = blist + (head_distance,)
            boundaries[path] = blist
            fragment_ref[path] = len(blist) - 1
            entry_value[path] = head_distance - blist[-1]
        return boundaries, fragment_ref, entry_value

    def _compute_entries(
        self,
        working: RootedTree,
        collapsed: CollapsedTree,
        entry_value,
    ) -> "_Entries":
        """Per hanging subtree: (skip, kept bits, pushed count, accumulator prefix).

        Stored as packed per-path rows plus one *full* accumulator per
        parent path; a child's prefix is the accumulator's first
        ``prefix_length`` bits, sliced on demand during label assembly
        instead of materialising a ``Bits`` snapshot per sibling.
        """
        path_count = len(collapsed)
        skip = bytearray(path_count)
        kept_value = array("q", bytes(8 * path_count))
        kept_length = array("h", bytes(2 * path_count))
        pushed_row = array("i", bytes(4 * path_count))
        prefix_length = array("i", bytes(4 * path_count))
        accumulator: list = [None] * path_count
        total_pushed = 0
        fat = 0
        thin = 0
        skipped = 0

        for parent_path in range(path_count):
            children = collapsed.children(parent_path)
            if not children:
                continue
            accumulated = BitWriter()
            accumulated_bits = 0
            last_index = len(children) - 1
            for index, child in enumerate(children):
                prefix_length[child] = accumulated_bits
                if index == last_index:
                    skip[child] = 1
                    skipped += 1
                    continue
                value = entry_value[child]
                full_bits = value.bit_length()
                head = collapsed.head(child)
                branch = collapsed.branch_node(child)
                assert branch is not None
                hanging_size = working.subtree_size(head)
                branch_size = working.subtree_size(branch)
                is_thin = hanging_size * THIN_FACTOR <= branch_size
                if is_thin or not self._use_accumulators:
                    length = full_bits
                    thin += 1 if is_thin else 0
                else:
                    fat += 1
                    slack = 0.5 * math.log2(branch_size / hanging_size) * math.log2(
                        max(branch_size, 2)
                    )
                    length = min(full_bits, int(math.ceil(slack)) + 1)
                pushed = full_bits - length
                kept_value[child] = value >> pushed
                kept_length[child] = length
                pushed_row[child] = pushed
                if pushed:
                    accumulated.write_int(value & ((1 << pushed) - 1), pushed)
                    accumulated_bits += pushed
                    total_pushed += pushed
            accumulator[parent_path] = accumulated.getvalue()

        self.encoding_stats = {
            "pushed_bits": total_pushed,
            "fat_subtrees": fat,
            "thin_subtrees": thin,
            "skipped_entries": skipped,
        }
        return _Entries(
            skip, kept_value, kept_length, pushed_row, prefix_length, accumulator
        )

    def _assemble_label(
        self,
        original: int,
        leaf: int,
        working: RootedTree,
        collapsed: CollapsedTree,
        light: LightDepthLabeling,
        boundaries: list,
        fragment_ref,
        entries: _Entries,
    ) -> FreedmanLabel:
        sequence = collapsed.root_path_sequence(leaf)
        own_path = sequence[-1]
        codewords = light.codewords_for(leaf)

        light_weights: list[int] = []
        fragment_refs: list[int] = []
        entry_skip: list[bool] = []
        entry_kept: list[Bits] = []
        entry_pushed: list[int] = []
        accumulators: list[Bits] = []

        for level, path in enumerate(sequence[1:]):
            parent_path = sequence[level]
            skip = bool(entries.skip[path])
            prefix = entries.accumulator[parent_path][: entries.prefix_length[path]]
            if skip:
                kept = _EMPTY_BITS
                pushed = 0
            else:
                length = entries.kept_length[path]
                kept = (
                    Bits.from_int(entries.kept_value[path], length)
                    if length
                    else _EMPTY_BITS
                )
                pushed = entries.pushed[path]
            light_weights.append(collapsed.light_edge_weight(path))
            fragment_refs.append(fragment_ref[path])
            entry_skip.append(skip)
            entry_kept.append(kept)
            entry_pushed.append(pushed)
            accumulators.append(prefix)

        return FreedmanLabel(
            node_id=original,
            root_distance=working.root_distance(leaf),
            domination=collapsed.domination_number(own_path),
            codewords=codewords,
            light_weights=light_weights,
            fragment_refs=fragment_refs,
            fragment_distances=list(boundaries[own_path]),
            entry_skip=entry_skip,
            entry_kept=entry_kept,
            entry_pushed=entry_pushed,
            accumulators=accumulators,
        )

    # -- decoding ------------------------------------------------------------

    def distance(self, label_u: FreedmanLabel, label_v: FreedmanLabel) -> int:
        if label_u.node_id == label_v.node_id:
            return 0
        level = common_codeword_prefix(label_u.codewords, label_v.codewords)
        if label_u.domination < label_v.domination:
            dominating, dominated = label_u, label_v
        else:
            dominating, dominated = label_v, label_u
        if level >= dominating.light_depth or level >= dominated.light_depth:
            raise ValueError(
                "labels are inconsistent: the critical level is missing "
                "(were they produced by the same encoding?)"
            )
        if dominating.entry_skip[level]:
            raise ValueError(
                "labels are inconsistent: the dominating side's entry was skipped"
            )
        value = dominating.entry_kept[level].to_int()
        pushed = dominating.entry_pushed[level]
        if pushed:
            start = len(dominating.accumulators[level])
            segment = dominated.accumulators[level][start : start + pushed]
            if len(segment) != pushed:
                raise ValueError(
                    "labels are inconsistent: accumulator is shorter than expected"
                )
            value = (value << pushed) | segment.to_int()
        reference = dominating.fragment_distances[dominating.fragment_refs[level]]
        nca_distance = reference + value - dominating.light_weights[level]
        return (
            label_u.root_distance + label_v.root_distance - 2 * nca_distance
        )

    def parse(self, bits: Bits) -> FreedmanLabel:
        return FreedmanLabel.from_bits(bits)

    def parse_many(self, store, nodes) -> dict[int, FreedmanLabel]:
        """Word-level bulk parse: packed store words straight into labels.

        Each ``label_words`` word is decoded by :func:`_parse_word` with no
        reader objects, no intermediate :class:`Bits` and no
        ``MonotoneSequence`` reconstruction (unlike HLD there is no shared
        header to specialise on, so the store's own word supply loop is
        used as-is); ``tests/test_freedman_parse_many.py`` checks this path
        field-for-field against the generic ``parse`` route.
        """
        return {
            node: _parse_word(value, bits)
            for node, value, bits in store.label_words(nodes)
        }
