"""The collapsed tree C(T) (Section 2, Fig. 1 right).

Every heavy path of a heavy path decomposition becomes one node of the
collapsed tree.  The light edges hanging off a heavy path become the edges to
its children.  The collapsed tree has height at most ``log2 n`` and drives
all the distance-array machinery of Section 3:

* children are ordered "top-to-bottom": a subtree branching at a shallower
  node of the heavy path comes before one branching deeper; among subtrees
  branching at the same node the largest subtree comes last (the
  *exceptional* edge),
* the **domination order** of Lemma 3.1 is realised as the postorder number
  of a node's collapsed node under this child ordering.
"""

from __future__ import annotations

from array import array

from repro.trees.heavy_path import HeavyPathDecomposition
from repro.trees.tree import RootedTree


class CollapsedTree:
    """Collapsed tree over a heavy path decomposition."""

    def __init__(self, decomposition: HeavyPathDecomposition) -> None:
        self._hpd = decomposition
        self._tree = decomposition.tree
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        hpd = self._hpd
        tree = self._tree
        path_count = hpd.path_count()
        zeros = bytes(4 * path_count)

        # like RootedTree, everything is array('i') rows with -1 sentinels
        # and a CSR children adjacency — a few dozen bytes per heavy path
        # instead of nested Python lists
        self._parent = array("i", zeros)
        self._branch_node = array("i", zeros)
        counts = array("i", bytes(4 * (path_count + 1)))

        for path_id in range(path_count):
            head = hpd.head(path_id)
            branch = tree.parent(head)
            if branch is None:
                self._root_path = path_id
                self._parent[path_id] = -1
                self._branch_node[path_id] = -1
                continue
            parent_path = hpd.path_of(branch)
            self._parent[path_id] = parent_path
            self._branch_node[path_id] = branch
            counts[parent_path + 1] += 1

        for path_id in range(path_count):
            counts[path_id + 1] += counts[path_id]
        self._child_start = counts
        child_data = array("i", zeros[: 4 * (path_count - 1)])
        cursor = array("i", counts[:path_count])
        for path_id in range(path_count):
            parent_path = self._parent[path_id]
            if parent_path >= 0:
                child_data[cursor[parent_path]] = path_id
                cursor[parent_path] += 1

        # order children: branch position on the parent path ascending,
        # then subtree size ascending (largest / exceptional last), then id
        for path_id in range(path_count):
            row = slice(counts[path_id], counts[path_id + 1])
            siblings = child_data[row].tolist()
            if len(siblings) > 1:
                siblings.sort(
                    key=lambda child: (
                        hpd.position_on_path(self._branch_node[child]),
                        tree.subtree_size(hpd.head(child)),
                        child,
                    )
                )
                child_data[row] = array("i", siblings)
        self._child_data = child_data

        self._child_index = array("i", zeros)
        for path_id in range(path_count):
            for index in range(counts[path_id], counts[path_id + 1]):
                self._child_index[child_data[index]] = index - counts[path_id]

        self._depth = array("i", zeros)
        preorder = array("i", zeros)
        pre_cursor = 0
        stack = [self._root_path]
        while stack:
            node = stack.pop()
            preorder[pre_cursor] = node
            pre_cursor += 1
            for index in range(counts[node], counts[node + 1]):
                child = child_data[index]
                self._depth[child] = self._depth[node] + 1
                stack.append(child)
        self._preorder = preorder

        # postorder (domination) numbering; ~node encodes the exit visit
        self._postorder_number = array("i", zeros)
        counter = 0
        stack2 = [self._root_path]
        while stack2:
            node = stack2.pop()
            if node < 0:
                self._postorder_number[~node] = counter
                counter += 1
                continue
            stack2.append(~node)
            for index in range(counts[node + 1] - 1, counts[node] - 1, -1):
                stack2.append(child_data[index])

    # -- accessors ---------------------------------------------------------

    @property
    def decomposition(self) -> HeavyPathDecomposition:
        """The underlying heavy path decomposition."""
        return self._hpd

    @property
    def tree(self) -> RootedTree:
        """The original (decomposed) tree."""
        return self._tree

    def __len__(self) -> int:
        return self._hpd.path_count()

    @property
    def root(self) -> int:
        """Collapsed node corresponding to the root heavy path."""
        return self._root_path

    def parent(self, collapsed_node: int) -> int | None:
        """Parent collapsed node (``None`` for the root)."""
        parent = self._parent[collapsed_node]
        return None if parent < 0 else parent

    def children(self, collapsed_node: int) -> list[int]:
        """Ordered children of a collapsed node."""
        return self._child_data[
            self._child_start[collapsed_node] : self._child_start[collapsed_node + 1]
        ].tolist()

    def child_index(self, collapsed_node: int) -> int:
        """Index of a collapsed node among its parent's ordered children."""
        return self._child_index[collapsed_node]

    def branch_node(self, collapsed_node: int) -> int | None:
        """Tree node on the parent heavy path from which this path hangs."""
        branch = self._branch_node[collapsed_node]
        return None if branch < 0 else branch

    def head(self, collapsed_node: int) -> int:
        """Head (in T) of the heavy path behind a collapsed node."""
        return self._hpd.head(collapsed_node)

    def light_edge_weight(self, collapsed_node: int) -> int:
        """Weight of the light edge connecting this path to its parent path."""
        return self._tree.edge_weight(self._hpd.head(collapsed_node))

    def depth(self, collapsed_node: int) -> int:
        """Depth of a collapsed node (= light depth of its heavy path)."""
        return self._depth[collapsed_node]

    def height(self) -> int:
        """Height of the collapsed tree (at most log2 n)."""
        return max(self._depth)

    def domination_number(self, collapsed_node: int) -> int:
        """Postorder number implementing the domination order of Lemma 3.1."""
        return self._postorder_number[collapsed_node]

    def is_exceptional(self, collapsed_node: int) -> bool:
        """Whether the light edge to this collapsed node is the exceptional one."""
        parent = self._parent[collapsed_node]
        if parent < 0:
            return False
        return self._child_data[self._child_start[parent + 1] - 1] == collapsed_node

    def collapsed_node_of(self, tree_node: int) -> int:
        """Collapsed node (heavy path id) containing a tree node."""
        return self._hpd.path_of(tree_node)

    def root_path_sequence(self, tree_node: int) -> list[int]:
        """Collapsed nodes on the path from the collapsed root to ``tree_node``'s path."""
        sequence = []
        current = self._hpd.path_of(tree_node)
        while current >= 0:
            sequence.append(current)
            current = self._parent[current]
        sequence.reverse()
        return sequence

    def dominates(self, tree_node_a: int, tree_node_b: int) -> bool:
        """Whether ``tree_node_a`` dominates ``tree_node_b`` (Lemma 3.1 sense)."""
        a = self.domination_number(self._hpd.path_of(tree_node_a))
        b = self.domination_number(self._hpd.path_of(tree_node_b))
        return a < b
