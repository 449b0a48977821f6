"""Zero-copy handoff of compiled designs to pool workers.

One :class:`ShmHandoff` names one store entry: its design, its entry
directory (whose name is the key) and the ``meta.json`` layout the
parent validated when it loaded the entry (blob length and buffer
spans).  The descriptor is tiny and picklable — it travels to pool
workers as a task argument, and no array byte ever goes through the
pickle channel.

Worker side, :meth:`ShmHandoff.materialize` maps the entry file
read-only and unpickles the blob over it, through the same two steps
as an inline :meth:`~repro.service.store.StoreEntry.materialize`
(:func:`~repro.service.store.map_entry_file`,
:func:`~repro.service.store.unpickle_entry`): every compiled array is
adopted zero-copy and read-only (REP008 proves the kernels never write
compiled arrays, so sharing pages is safe), and the design evaluates
placements without a single ``prepare.*`` compile span.

The shared memory is the page cache's shared mapping of the entry
file: every worker that maps it reads the same physical pages.  Each
view keeps its ``mmap`` alive, so nothing needs pinning, and the file
outlives every worker, so nothing needs unlinking.  The module and
class keep their shared-memory names until the handoff and the
no-store rebuild are folded into one path (ROADMAP direction 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

from repro.api.prepared import PreparedDesign
from repro.obs import current_tracer
from repro.service.store import StoreEntry, map_entry_file, unpickle_entry


@dataclass(frozen=True)
class ShmHandoff:
    """Picklable name of one store entry, for pool workers.

    ``path`` is the entry directory; ``blob_size`` and ``spans`` are the
    ``meta.json`` layout of its data file, as the parent loaded it.
    """

    design: str
    path: str
    blob_size: int
    spans: Tuple[Tuple[int, int], ...]

    @property
    def key(self) -> str:
        """The entry's store key (the name of its directory)."""
        return Path(self.path).name

    def materialize(self) -> PreparedDesign:
        """Map the entry file and rebuild a warm prepared design.

        Emits a ``store.attach`` span — never a ``prepare.*`` one.
        Raises :class:`OSError` naming the key when the file no longer
        matches the layout the parent validated, so only this job
        fails.
        """
        with current_tracer().span("store.attach", design=self.design,
                                   key=self.key[:12]):
            try:
                image = map_entry_file(Path(self.path), self.blob_size,
                                       self.spans)
            except OSError as exc:
                raise OSError(f"store entry {self.key} no longer "
                              f"matches its meta.json: {exc}") from exc
            return unpickle_entry(image, self.blob_size, self.spans)


def export_entry(entry: StoreEntry) -> ShmHandoff:
    """The worker handoff naming ``entry`` (no bytes are copied)."""
    return ShmHandoff(design=entry.design_name, path=str(entry.path),
                      blob_size=entry.blob_size, spans=entry.spans)
