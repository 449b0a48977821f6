"""Bounded deterministic memo store for the incremental evaluators.

Every incremental-evaluation cache (pairwise curve composition, subtree
annotations, whole-expression transposition tables) is or wraps this
store.  It is a ``dict`` subclass — lookups
are the builtin ``dict.get``, the annealer's hottest call — with one
policy on insertion: :meth:`BoundedStore.put` clears the store wholesale
once ``max_entries`` is reached.  Unlike LRU eviction, a full clear
cannot make results depend on lookup order, so cached and uncached runs
stay bit-identical — the property the whole incremental engine rests
on.  Insert through :meth:`~BoundedStore.put` only; item assignment
bypasses the bound.
"""

from __future__ import annotations

from typing import Any, Hashable

#: Default capacity shared by all incremental-eval caches.
DEFAULT_MAX_ENTRIES = 1 << 17


class BoundedStore(dict):
    """A dict bounded by clearing wholesale when full."""

    __slots__ = ("max_entries",)

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        super().__init__()
        self.max_entries = max_entries

    def put(self, key: Hashable, value: Any) -> None:
        if len(self) >= self.max_entries:
            self.clear()
        self[key] = value
