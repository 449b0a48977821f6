"""Bounded deterministic memo store for the incremental evaluators.

Every incremental-evaluation cache (pairwise curve composition, subtree
annotations, budgeted sub-layouts, whole-expression transposition
tables) is or wraps this store.  It is a plain dict with one policy: when
``max_entries`` is reached the store is cleared wholesale.  Unlike LRU
eviction, a full clear cannot make results depend on lookup order, so
cached and uncached runs stay bit-identical — the property the whole
incremental engine rests on.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

#: Default capacity shared by all incremental-eval caches.
DEFAULT_MAX_ENTRIES = 1 << 17


class BoundedStore:
    """A dict bounded by clearing wholesale when full."""

    __slots__ = ("max_entries", "_store")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        self._store: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: Hashable) -> Optional[Any]:
        return self._store.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        if len(self._store) >= self.max_entries:
            self._store.clear()
        self._store[key] = value

    def clear(self) -> None:
        self._store.clear()
