"""Self-balancing (AVL) search tree over integer keys.

Supports the dictionary operations the threshold set needs: insert,
delete, membership (by successor), max, successor and predecessor,
each one descent of O(log size) nodes.  Keys are unique; satellite
data is out of scope.
"""

from __future__ import annotations

__all__ = ["AvlTree"]


class _Node:
    __slots__ = ("key", "left", "right", "height")

    def __init__(self, key: int):
        self.key = key
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.height = 1


def _h(node: _Node | None) -> int:
    return node.height if node is not None else 0


def _fix(node: _Node) -> None:
    node.height = 1 + max(_h(node.left), _h(node.right))


def _rot_right(y: _Node) -> _Node:
    x = y.left
    y.left = x.right
    x.right = y
    _fix(y)
    _fix(x)
    return x


def _rot_left(x: _Node) -> _Node:
    y = x.right
    x.right = y.left
    y.left = x
    _fix(x)
    _fix(y)
    return y


def _balance(node: _Node) -> _Node:
    _fix(node)
    bf = _h(node.left) - _h(node.right)
    if bf > 1:
        if _h(node.left.left) < _h(node.left.right):
            node.left = _rot_left(node.left)
        return _rot_right(node)
    if bf < -1:
        if _h(node.right.right) < _h(node.right.left):
            node.right = _rot_right(node.right)
        return _rot_left(node)
    return node


def _pop_min(node: _Node) -> tuple[_Node | None, int]:
    """The subtree without its smallest key, rebalanced, and that key."""
    if node.left is None:
        return node.right, node.key
    node.left, key = _pop_min(node.left)
    return _balance(node), key


class AvlTree:
    def __init__(self):
        self._root: _Node | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return _h(self._root)

    def __contains__(self, key: int) -> bool:
        return self.successor(key - 1) == key

    def insert(self, key: int) -> bool:
        """Insert key; returns True if it was absent."""
        size = self._size
        self._root = self._insert(self._root, key)
        return self._size != size

    def _insert(self, node: _Node | None, key: int) -> _Node:
        if node is None:
            self._size += 1
            return _Node(key)
        if key < node.key:
            node.left = self._insert(node.left, key)
        elif key > node.key:
            node.right = self._insert(node.right, key)
        return _balance(node)  # a node that holds key comes back unchanged

    def delete(self, key: int) -> bool:
        """Delete key; no-op returning False when absent."""
        size = self._size
        self._root = self._delete(self._root, key)
        return self._size != size

    def _delete(self, node: _Node | None, key: int) -> _Node | None:
        if node is None:
            return None
        if key < node.key:
            node.left = self._delete(node.left, key)
        elif key > node.key:
            node.right = self._delete(node.right, key)
        else:
            self._size -= 1
            if node.left is None:
                return node.right
            if node.right is None:
                return node.left
            node.right, node.key = _pop_min(node.right)
        return _balance(node)

    @property
    def max(self) -> int | None:
        """Largest stored key, or None (an attribute, as on VebTree)."""
        node = self._root
        if node is None:
            return None
        while node.right is not None:
            node = node.right
        return node.key

    def successor(self, key: int) -> int | None:
        """Smallest stored key strictly greater than key, or None."""
        best = None
        node = self._root
        while node is not None:
            if node.key > key:
                best = node.key
                node = node.left
            else:
                node = node.right
        return best

    def predecessor(self, key: int) -> int | None:
        """Largest stored key strictly less than key, or None."""
        best = None
        node = self._root
        while node is not None:
            if node.key < key:
                best = node.key
                node = node.right
            else:
                node = node.left
        return best

    def __iter__(self):
        stack: list[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key
            node = node.right
