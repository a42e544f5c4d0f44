"""ModelMap: the daemon's in-DRAM red-black tree over model names.

The paper keeps the persistent ModelTable as a sorted array on PMem and
mirrors it into a red-black tree in main memory for O(log n) lookups
(Fig. 4).  This is a textbook left-leaning-free CLRS red-black tree with
insert, delete, exact lookup, and sorted iteration; values are opaque
(the daemon stores its per-model entry objects).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import ModelAlreadyRegistered

RED = True
BLACK = False


class _Node:
    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key: str, value: Any, color: bool,
                 nil: "_Node") -> None:
        self.key = key
        self.value = value
        self.color = color
        self.left = nil
        self.right = nil
        self.parent = nil


class ModelMap:
    """Ordered map: model name -> daemon entry."""

    def __init__(self) -> None:
        self._nil = _Node("", None, BLACK, None)  # type: ignore[arg-type]
        self._nil.left = self._nil.right = self._nil.parent = self._nil
        self._root = self._nil
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: str) -> bool:
        return self._find(key) is not None

    # -- lookup -----------------------------------------------------------------

    def _find(self, key: str) -> Optional[_Node]:
        node = self._root
        while node is not self._nil:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    def get(self, key: str, default: Any = None) -> Any:
        node = self._find(key)
        return default if node is None else node.value

    def __getitem__(self, key: str) -> Any:
        node = self._find(key)
        if node is None:
            raise KeyError(key)
        return node.value

    # -- insert ------------------------------------------------------------------

    def insert(self, key: str, value: Any) -> None:
        """Insert a new key; an existing one is refused, never replaced."""
        parent = self._nil
        node = self._root
        while node is not self._nil:
            parent = node
            if key == node.key:
                raise ModelAlreadyRegistered(key)
            node = node.left if key < node.key else node.right
        fresh = _Node(key, value, RED, self._nil)
        fresh.parent = parent
        if parent is self._nil:
            self._root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._count += 1
        self._insert_fixup(fresh)

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent.color is RED:
            grand = z.parent.parent
            if z.parent is grand.left:
                uncle = grand.right
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = grand.left
                if uncle.color is RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    z = grand
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self._root.color = BLACK

    # -- delete --------------------------------------------------------------------

    def delete(self, key: str) -> Any:
        """Remove and return the value; KeyError if absent."""
        z = self._find(key)
        if z is None:
            raise KeyError(key)
        value = z.value
        self._count -= 1
        y = z
        y_color = y.color
        if z.left is self._nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self._nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_color is BLACK:
            self._delete_fixup(x)
        return value

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _minimum(self, node: _Node) -> _Node:
        while node.left is not self._nil:
            node = node.left
        return node

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self._root and x.color is BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color is BLACK and w.right.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color is BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self._root
            else:
                w = x.parent.left
                if w.color is RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color is BLACK and w.left.color is BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color is BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self._root
        x.color = BLACK

    # -- iteration --------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[str, Any]]:
        """In-order (sorted by model name)."""
        stack: List[_Node] = []
        node = self._root
        while stack or node is not self._nil:
            while node is not self._nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> List[str]:
        return [key for key, _value in self.items()]

    # -- invariant checking (used by property tests) -------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any red-black property is violated."""
        assert self._root.color is BLACK, "root must be black"

        def walk(node: _Node) -> int:
            if node is self._nil:
                return 1
            if node.color is RED:
                assert node.left.color is BLACK, "red node with red child"
                assert node.right.color is BLACK, "red node with red child"
            if node.left is not self._nil:
                assert node.left.key < node.key, "BST order violated"
            if node.right is not self._nil:
                assert node.right.key > node.key, "BST order violated"
            left_black = walk(node.left)
            right_black = walk(node.right)
            assert left_black == right_black, "black heights differ"
            return left_black + (0 if node.color is RED else 1)

        walk(self._root)
