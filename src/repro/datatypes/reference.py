"""Sequential reference implementations.

These are the "small, fast reference implementations" the paper recommends
for computing observation sets (Section 3.2, Fig. 11a "refset").  Each class
exposes one method per operation; methods return the observable results in
the same order the C-side harness observes them (C return value first, then
out-parameters).  The reference miner's walk steps a ``copy()`` of each
state and recognizes a state it has already expanded by its ``key()``, the
exact contents.

Conventions shared with the C sources:

* values are drawn from {0, 1};
* a queue ``dequeue`` returns ``(ok, value)`` with ``value = 0`` when the
  queue is empty (the out-parameter cell is zero-initialized and not written
  in that case);
* a deque ``remove_*`` returns :data:`EMPTY` (2) when the deque is empty.
"""

from __future__ import annotations

from collections import deque

#: Value returned by deque removals when the deque is empty.
EMPTY = 2


class _Reference:
    """A reference whose whole state is its ``_items`` container."""

    _items: deque[int] | set[int]

    def copy(self):
        """An independent reference with the same contents."""
        clone = type(self)()
        clone._items = self._items.copy()
        return clone


class ReferenceQueue(_Reference):
    """FIFO queue (reference for both ms2 and msn)."""

    def __init__(self) -> None:
        self._items: deque[int] = deque()

    def key(self) -> tuple[int, ...]:
        return tuple(self._items)

    def init(self) -> None:
        self._items.clear()

    def enqueue(self, value: int) -> None:
        self._items.append(value)

    def dequeue(self) -> tuple[int, int]:
        if not self._items:
            return (0, 0)
        return (1, self._items.popleft())


class ReferenceSet(_Reference):
    """Sorted-set semantics (reference for lazylist and harris)."""

    def __init__(self) -> None:
        self._items: set[int] = set()

    def key(self) -> frozenset[int]:
        return frozenset(self._items)

    def init(self) -> None:
        self._items.clear()

    def add(self, value: int) -> int:
        if value in self._items:
            return 0
        self._items.add(value)
        return 1

    def remove(self, value: int) -> int:
        if value in self._items:
            self._items.remove(value)
            return 1
        return 0

    def contains(self, value: int) -> int:
        return int(value in self._items)


class ReferenceDeque(_Reference):
    """Double-ended queue (reference for the snark-style deque)."""

    def __init__(self) -> None:
        self._items: deque[int] = deque()

    def key(self) -> tuple[int, ...]:
        return tuple(self._items)

    def init(self) -> None:
        self._items.clear()

    def add_left(self, value: int) -> None:
        self._items.appendleft(value)

    def add_right(self, value: int) -> None:
        self._items.append(value)

    def remove_left(self) -> int:
        if not self._items:
            return EMPTY
        return self._items.popleft()

    def remove_right(self) -> int:
        if not self._items:
            return EMPTY
        return self._items.pop()
