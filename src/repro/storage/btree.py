"""In-memory B+Tree mapping integer keys to arbitrary values.

Hermes replaced Neo4j's offset-based record addressing with "a tree-based
indexing scheme (B+Tree) rather than an offset-based indexing scheme since
record IDs can no longer be allocated in small increments.  In addition,
data migration would make offset based indexing impossible" (Section 4).
Every record store in this engine resolves record ID -> storage slot
through one of these trees.

The implementation is a textbook B+Tree: values only in leaves, leaves
doubly linked for range scans, deletion with borrow-from-sibling and merge
so the occupancy invariants hold after any operation sequence (verified by
property-based tests via :meth:`check_invariants`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Tuple

from repro.exceptions import StorageError

#: ``__contains__``'s "absent" marker (any value, ``None`` included, may be stored)
_MISSING = object()


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "prev_leaf")

    def __init__(self, leaf: bool):
        self.keys: List[int] = []
        if leaf:
            self.values: List[Any] = []
            self.children = None
            self.next_leaf: Optional[_Node] = None
            self.prev_leaf: Optional[_Node] = None
        else:
            self.values = None
            self.children: List[_Node] = []
            self.next_leaf = None
            self.prev_leaf = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class BPlusTree:
    """B+Tree with configurable branching ``order`` (max children)."""

    def __init__(self, order: int = 32):
        if order < 4:
            raise StorageError(f"order must be >= 4, got {order}")
        self.order = order
        self._root = _Node(leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _find_leaf(self, key: int) -> _Node:
        node = self._root
        children = node.children
        while children is not None:
            node = children[bisect_right(node.keys, key)]
            children = node.children
        return node

    def get(self, key: int, default: Any = None) -> Any:
        """One probe: root-to-leaf descent plus one leaf search."""
        leaf = self._find_leaf(key)
        keys = leaf.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return leaf.values[index]
        return default

    def __contains__(self, key: int) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insert / update
    # ------------------------------------------------------------------
    def insert(self, key: int, value: Any) -> None:
        """Insert a key or overwrite its value if present."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value
            return
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value)
        self._size += 1
        if len(leaf.keys) >= self.order:
            self._split_up(leaf)

    def _split_up(self, node: _Node) -> None:
        """Split an over-full node, propagating to the root if needed."""
        path = self._path_to(node)
        while len(node.keys) >= self.order:
            mid = len(node.keys) // 2
            if node.is_leaf:
                right = _Node(leaf=True)
                right.keys = node.keys[mid:]
                right.values = node.values[mid:]
                node.keys = node.keys[:mid]
                node.values = node.values[:mid]
                right.next_leaf = node.next_leaf
                if right.next_leaf is not None:
                    right.next_leaf.prev_leaf = right
                right.prev_leaf = node
                node.next_leaf = right
                separator = right.keys[0]
            else:
                right = _Node(leaf=False)
                separator = node.keys[mid]
                right.keys = node.keys[mid + 1 :]
                right.children = node.children[mid + 1 :]
                node.keys = node.keys[:mid]
                node.children = node.children[: mid + 1]
            if path:
                parent = path.pop()
                index = bisect_right(parent.keys, separator)
                parent.keys.insert(index, separator)
                parent.children.insert(index + 1, right)
                node = parent
            else:
                new_root = _Node(leaf=False)
                new_root.keys = [separator]
                new_root.children = [node, right]
                self._root = new_root
                return

    def _path_to(self, target: _Node) -> List[_Node]:
        """Root-to-parent path for ``target`` (excludes target itself)."""
        path: List[_Node] = []
        node = self._root
        if node is target:
            return path
        key = target.keys[0] if target.keys else None
        while not node.is_leaf:
            path.append(node)
            if key is None:
                # Empty target can only be the root mid-delete; not expected.
                raise StorageError("cannot locate empty interior node")
            index = bisect_right(node.keys, key)
            child = node.children[index]
            if child is target:
                return path
            node = child
        raise StorageError("node not found on its key path")

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, key: int) -> Any:
        """Remove a key, returning its value; raises KeyError if absent."""
        value = self._delete(self._root, key)
        if not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        return value

    def _delete(self, node: _Node, key: int) -> Any:
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                raise KeyError(key)
            node.keys.pop(index)
            self._size -= 1
            return node.values.pop(index)
        index = bisect_right(node.keys, key)
        child = node.children[index]
        value = self._delete(child, key)
        if self._underfull(child):
            self._rebalance(node, index)
        return value

    def _min_keys(self, node: _Node) -> int:
        if node is self._root:
            return 1 if node.is_leaf else 1
        if node.is_leaf:
            return (self.order - 1) // 2
        return (self.order - 1) // 2

    def _underfull(self, node: _Node) -> bool:
        if node is self._root:
            return False
        return len(node.keys) < self._min_keys(node)

    def _rebalance(self, parent: _Node, index: int) -> None:
        """Fix parent's underfull child at ``index`` by borrow or merge."""
        child = parent.children[index]
        left = parent.children[index - 1] if index > 0 else None
        right = parent.children[index + 1] if index + 1 < len(parent.children) else None

        if left is not None and len(left.keys) > self._min_keys(left):
            self._borrow_from_left(parent, index, left, child)
        elif right is not None and len(right.keys) > self._min_keys(right):
            self._borrow_from_right(parent, index, child, right)
        elif left is not None:
            self._merge(parent, index - 1, left, child)
        else:
            self._merge(parent, index, child, right)

    @staticmethod
    def _borrow_from_left(parent: _Node, index: int, left: _Node, child: _Node) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    @staticmethod
    def _borrow_from_right(parent: _Node, index: int, child: _Node, right: _Node) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    @staticmethod
    def _merge(parent: _Node, left_index: int, left: _Node, right: _Node) -> None:
        """Fold ``right`` into ``left``; drop the separator at left_index."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
            if right.next_leaf is not None:
                right.next_leaf.prev_leaf = left
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def _first_leaf(self) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    def items(self) -> Iterator[Tuple[int, Any]]:
        """All (key, value) pairs in ascending key order."""
        leaf: Optional[_Node] = self._first_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next_leaf

    def keys(self) -> Iterator[int]:
        for key, _ in self.items():
            yield key

    def range(self, low: int, high: int) -> Iterator[Tuple[int, Any]]:
        """(key, value) pairs with ``low <= key <= high``, ascending."""
        leaf: Optional[_Node] = self._find_leaf(low)
        start = bisect_left(leaf.keys, low)
        while leaf is not None:
            for index in range(start, len(leaf.keys)):
                key = leaf.keys[index]
                if key > high:
                    return
                yield key, leaf.values[index]
            leaf = leaf.next_leaf
            start = 0

    def max_key(self) -> Optional[int]:
        """Largest key, or None when empty (O(height))."""
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1] if node.keys else None

    # ------------------------------------------------------------------
    # Invariant checking (used by property-based tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise StorageError if any B+Tree invariant is violated."""
        leaf_depths = set()
        self._check_node(self._root, None, None, 0, leaf_depths)
        if len(leaf_depths) > 1:
            raise StorageError(f"leaves at multiple depths: {leaf_depths}")
        # Leaf chain must enumerate exactly the tree's keys, sorted.
        chained = [key for key, _ in self.items()]
        if chained != sorted(chained):
            raise StorageError("leaf chain out of order")
        if len(chained) != self._size:
            raise StorageError(
                f"size mismatch: chained {len(chained)} vs recorded {self._size}"
            )

    def _check_node(
        self,
        node: _Node,
        low: Optional[int],
        high: Optional[int],
        depth: int,
        leaf_depths: set,
    ) -> None:
        if node.keys != sorted(node.keys):
            raise StorageError("unsorted keys in node")
        for key in node.keys:
            if low is not None and key < low:
                raise StorageError(f"key {key} below bound {low}")
            if high is not None and key >= high:
                raise StorageError(f"key {key} above bound {high}")
        if node is not self._root and len(node.keys) < self._min_keys(node):
            raise StorageError("underfull node")
        if len(node.keys) >= self.order:
            raise StorageError("overfull node")
        if node.is_leaf:
            leaf_depths.add(depth)
            return
        if len(node.children) != len(node.keys) + 1:
            raise StorageError("child/key count mismatch")
        bounds = [low] + list(node.keys) + [high]
        for i, child in enumerate(node.children):
            self._check_node(child, bounds[i], bounds[i + 1], depth + 1, leaf_depths)
