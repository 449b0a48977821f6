"""Zero-copy handoff of compiled designs through shared memory.

One :class:`ShmHandoff` describes one design's compiled state copied
into a single ``multiprocessing.shared_memory`` segment: the store
entry's file image, verbatim (pickle blob, then every out-of-band
array buffer at a 64-byte-aligned offset; the layout is
:mod:`repro.service.store`'s).  The descriptor itself is tiny and
picklable — it travels to pool workers as a task argument; the array
bytes travel exactly once, through the kernel's shared mapping, never
through the pickle channel.

Worker side, :meth:`ShmHandoff.materialize` attaches the segment,
wraps each buffer span as a **read-only** uint8 view (REP008 proves
the kernels never write compiled arrays, so sharing pages is safe) and
unpickles the blob over them: every compiled array is adopted
zero-copy, and the design evaluates placements without a single
``prepare.*`` compile span.

Python 3.11 note: ``SharedMemory`` attach registers the segment with
the resource tracker (no ``track=`` parameter until 3.13), which
would make worker exits unlink segments the parent still owns — and
under the fork start method every worker shares the *parent's*
tracker, so attach/unregister pairs from concurrent workers race on
one shared cache.  :func:`_attach` therefore suppresses the
registration entirely for the duration of the attach; only the owning
process ever talks to the tracker, and it remains responsible for
``unlink``.  Attachments are additionally pinned in a module-level
registry (:data:`_ATTACHED`): numpy views over ``shm.buf`` keep the
underlying ``mmap`` as their base *without* a buffer export, so an
unpinned ``SharedMemory`` would be garbage-collected and closed —
unmapping the pages under every view a cached prepared design still
holds.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.prepared import PreparedDesign
from repro.obs import current_tracer

#: Process-lifetime pin of every attached segment, keyed by name.
#: A numpy view built over ``shm.buf`` keeps the underlying ``mmap``
#: as its *base* without holding a buffer export, so nothing stops
#: ``SharedMemory.__del__`` from closing the mapping out from under
#: views that cached prepared designs still reference — a silent
#: use-after-unmap.  Pinning the attachment here makes the mapping
#: live as long as the process (matching the worker-local prepared
#: cache it feeds); :meth:`ShmHandoff.close` releases it explicitly.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting tracker ownership.

    Registering and then unregistering would race against sibling
    workers sharing the forked tracker; swallowing the registration
    up front keeps attaches invisible to the tracker altogether.
    """
    shm = _ATTACHED.get(name)
    if shm is not None:
        return shm
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
    _ATTACHED[name] = shm
    return shm


@dataclass
class ShmHandoff:
    """Picklable descriptor of one design's shared compiled state.

    The segment holds a store entry's file image: ``blob_size`` bytes
    of pickle blob at offset 0, then one out-of-band buffer per
    ``(offset, size)`` row of ``spans``.
    """

    design: str
    segment: str
    blob_size: int
    spans: Tuple[Tuple[int, int], ...]
    #: Worker-local attachment handle (never pickled to another
    #: process: the descriptor re-attaches by name).
    _shm: Optional[shared_memory.SharedMemory] = field(
        default=None, repr=False, compare=False)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_shm"] = None
        return state

    def buffers(self, shm: shared_memory.SharedMemory
                ) -> List[np.ndarray]:
        """Read-only uint8 views of each buffer span in the segment."""
        views = []
        for offset, size in self.spans:
            view = np.ndarray((size,), dtype=np.uint8, buffer=shm.buf,
                              offset=offset)
            view.flags.writeable = False
            views.append(view)
        return views

    def materialize(self) -> PreparedDesign:
        """Attach and rebuild a fully warm prepared design (worker side).

        The attachment handle is kept on the descriptor instance so the
        views stay valid for the life of the returned object; repeated
        calls reuse it.  Emits a ``store.attach`` span — never a
        ``prepare.*`` one.
        """
        with current_tracer().span("store.attach", design=self.design,
                                   segment=self.segment):
            if self._shm is None:
                self._shm = _attach(self.segment)
            shm = self._shm
            blob = bytes(shm.buf[:self.blob_size])
            return pickle.loads(blob, buffers=self.buffers(shm))

    def close(self) -> None:
        """Drop this process's attachment (does not unlink).

        Only call once every view handed out by :meth:`materialize`
        is dead — closing unmaps the pages under them.
        """
        if self._shm is not None:
            _ATTACHED.pop(self.segment, None)
            self._shm.close()
            self._shm = None


class SegmentOwner:
    """The creating process's handle pair: handoff + unlink duty."""

    def __init__(self, handoff: ShmHandoff,
                 shm: shared_memory.SharedMemory):
        self.handoff = handoff
        self.shm = shm

    def unlink(self) -> None:
        """Release the segment (close + unlink; idempotent)."""
        if self.shm is not None:
            self.shm.close()
            # Re-register (idempotent: the tracker cache is a set) so
            # the unregister inside ``unlink`` always finds the name,
            # even if some other path dropped our registration.
            try:
                resource_tracker.register(self.shm._name,
                                          "shared_memory")
            except Exception:  # pragma: no cover - tracker API drift
                pass
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self.shm = None


def export_entry(entry) -> SegmentOwner:
    """Copy a store entry's file image into one shared-memory segment.

    Returns the owner handle whose ``handoff`` field is the picklable
    worker descriptor.
    """
    image = entry.image
    shm = shared_memory.SharedMemory(create=True,
                                     size=max(1, image.nbytes))
    try:
        shm.buf[:image.nbytes] = image
    except BaseException:  # pragma: no cover - partial export
        shm.close()
        shm.unlink()
        raise
    handoff = ShmHandoff(design=entry.design_name, segment=shm.name,
                         blob_size=entry.blob_size, spans=entry.spans)
    return SegmentOwner(handoff, shm)
