"""The Section 2 transform: leaf attachment and binarization.

The paper reduces distance labeling of an arbitrary unweighted tree to
labeling the *leaves* of a *binary* tree whose edges have weights in
``{0, 1}``:

* every node ``u`` receives a pendant leaf ``u+`` attached by a 0-weight
  edge (queries are asked on the pendant leaves),
* nodes with more than two children are replaced by a chain of intermediate
  nodes connected by 0-weight edges.

Both operations preserve all pairwise distances between the pendant leaves,
so a scheme that labels the leaves of the transformed tree labels every node
of the original tree.

Deviation from the paper: we attach a pendant
leaf to *every* original node, not only to internal ones.  This guarantees
that every queried node hangs off its ancestor heavy paths via light edges,
which the accumulator reconstruction of Property 3.2 relies on.

The node maps are compact ``array('i')`` rows rather than dicts (4 bytes
per node instead of ~100 per dict entry): ``query_node[original]`` indexes
exactly like the old mapping, and ``origin`` uses ``-1`` for transformed
nodes that represent no original node.  At the 10⁷-node scale of
:mod:`repro.scale` the dict versions alone cost gigabytes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.trees.tree import RootedTree


@dataclass
class TransformResult:
    """Outcome of a tree transform.

    Attributes:
        tree: the transformed tree.
        query_node: row indexed by original node giving the node of ``tree``
            on which queries about the original node should be asked.
        origin: inverse row indexed by transformed node (``-1`` where the
            transformed node represents no original node).
    """

    tree: RootedTree
    query_node: array
    origin: array


def attach_leaves(tree: RootedTree, only_internal: bool = False) -> TransformResult:
    """Attach a 0-weight pendant leaf to (internal or all) nodes.

    Returns a transform whose ``query_node`` maps every original node to its
    pendant leaf (or to itself if no leaf was attached).
    """
    n = tree.n
    parents = array("i", (-1 if tree.parent(v) is None else tree.parent(v) for v in tree.nodes()))
    weights = array("q", (tree.edge_weight(v) for v in tree.nodes()))
    query_node = array("i", range(n))

    next_node = n
    for node in tree.nodes():
        if only_internal and tree.is_leaf(node):
            continue
        parents.append(node)
        weights.append(0)
        query_node[node] = next_node
        next_node += 1

    transformed = RootedTree(parents, weights)
    origin = array("i", bytes(4 * next_node))
    for node in range(n, next_node):
        origin[node] = -1
    return TransformResult(transformed, query_node, origin)


def binarize(tree: RootedTree) -> TransformResult:
    """Make every node have at most two children.

    A node with children ``c1 .. ck`` (k > 2) keeps ``c1`` and delegates the
    rest to a chain of fresh internal nodes connected by 0-weight edges, so
    all original pairwise distances are preserved.
    """
    n = tree.n
    parents = array("i", [-1]) * n
    weights = array("q", bytes(8 * n))

    next_node = n
    extra_parents = array("i")
    extra_weights = array("q")

    for node in tree.nodes():
        children = tree.children(node)
        if len(children) <= 2:
            for child in children:
                parents[child] = node
                weights[child] = tree.edge_weight(child)
            continue
        # first child stays attached to the original node
        first = children[0]
        parents[first] = node
        weights[first] = tree.edge_weight(first)
        anchor = node
        remaining = children[1:]
        # chain of dummies; each dummy holds one child, the last holds two
        while len(remaining) > 2:
            dummy = next_node
            next_node += 1
            extra_parents.append(anchor)
            extra_weights.append(0)
            child = remaining.pop(0)
            parents[child] = dummy
            weights[child] = tree.edge_weight(child)
            anchor = dummy
        dummy = next_node
        next_node += 1
        extra_parents.append(anchor)
        extra_weights.append(0)
        for child in remaining:
            parents[child] = dummy
            weights[child] = tree.edge_weight(child)

    transformed = RootedTree(parents + extra_parents, weights + extra_weights)
    query_node = array("i", range(n))
    origin = array("i", range(n)) + array("i", [-1]) * (next_node - n)
    return TransformResult(transformed, query_node, origin)


def prepare_for_leaf_queries(
    tree: RootedTree, binarize_tree: bool = True
) -> TransformResult:
    """Full Section 2 pipeline: attach pendant leaves, then binarize.

    The result's ``query_node`` maps each original node to a *leaf* of the
    transformed tree, and all leaf-to-leaf distances in the transformed tree
    equal the corresponding original distances.
    """
    attached = attach_leaves(tree)
    if not binarize_tree:
        return attached
    binarized = binarize(attached.tree)
    bin_query = binarized.query_node
    query_node = array("i", (bin_query[leaf] for leaf in attached.query_node))
    origin = array("i", [-1]) * binarized.tree.n
    for original in range(tree.n):
        origin[query_node[original]] = original
    return TransformResult(binarized.tree, query_node, origin)
