"""Persistent compiled-design store: compile once, memory-map forever.

A :class:`CompiledDesignStore` caches everything that is expensive to
rebuild per process and placement-independent for a design:

* the three compiled referee array records
  (:class:`~repro.metrics.netarrays.NetArrays`,
  :class:`~repro.metrics.stdcell_kernel.StdcellArrays`,
  :class:`~repro.metrics.timing_kernel.TimingArrays`), persisted one
  ``.npy`` file per array field and loaded back with
  ``np.load(mmap_mode="r")`` — warm loads touch no compile code and
  share pages across processes;
* the prepared object graph (the
  :class:`~repro.api.prepared.PreparedDesign` with its cached
  ``flat``/``gnet``/``gseq``/``tree`` and clustered netlist), as one
  pickle blob, so a warm process skips design generation, flattening
  and graph construction entirely.

Keying and versioning
---------------------
Entries are keyed by content hash: the SHA-256 of a suite design's
canonical :class:`~repro.gen.spec.DesignSpec` JSON (the spec fully
determines the generated netlist) — the
:func:`repro.metrics.netarrays._fingerprint` seam then re-validates
the cheap (cells, nets, rows) shape at install time.  Every key is
salted with :func:`store_version`, a digest of the compiler/generator
sources, so changing any compile-relevant module silently invalidates
old entries (they become unreachable keys, never wrong answers).

Writes are atomic (temp directory + ``os.replace``), so concurrent
writers of the same key are safe: last-write-wins with both writes
being bit-identical by the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.api.prepared import (
    DEFAULT_MIN_BITS,
    PreparedDesign,
    prepare_design,
)
from repro.gen.spec import DesignSpec
from repro.obs import current_tracer, wall_seconds

#: Array-group prefixes inside one store entry.
GROUPS = ("net", "std", "tim")

#: Source modules whose digest salts every store key.  Anything that
#: changes the generated netlist, the derived graphs or the compiled
#: arrays must be listed — a stale entry must become unreachable, not
#: wrong.
_VERSION_SOURCES = (
    "repro/gen/designs.py",
    "repro/gen/macros.py",
    "repro/gen/patterns.py",
    "repro/gen/spec.py",
    "repro/hiergraph/gnet.py",
    "repro/hiergraph/gseq.py",
    "repro/hiergraph/hierarchy.py",
    "repro/metrics/netarrays.py",
    "repro/metrics/stdcell_kernel.py",
    "repro/metrics/timing_kernel.py",
    "repro/netlist/builder.py",
    "repro/netlist/cells.py",
    "repro/netlist/core.py",
    "repro/netlist/flatten.py",
    "repro/placement/cluster.py",
    "repro/api/prepared.py",
    "repro/service/store.py",
)

_STORE_VERSION_CACHE: Optional[str] = None


def store_version() -> str:
    """Digest of the compiler/generator sources salting every key.

    Computed once per process from the installed source bytes of
    ``_VERSION_SOURCES`` — editing any of those modules changes the
    digest and therefore every key, which is how stale store entries
    self-invalidate.
    """
    global _STORE_VERSION_CACHE
    if _STORE_VERSION_CACHE is not None:
        return _STORE_VERSION_CACHE
    src_root = Path(__file__).resolve().parent.parent.parent
    digest = hashlib.sha256()
    for relpath in _VERSION_SOURCES:
        digest.update(relpath.encode())
        path = src_root / relpath
        if path.exists():
            digest.update(path.read_bytes())
    # One cached digest per process: the sources cannot change under a
    # running interpreter in a way this cache could observe anyway.
    _STORE_VERSION_CACHE = digest.hexdigest()
    return _STORE_VERSION_CACHE


def _strip_compile_caches(prepared: PreparedDesign) -> Dict[str, object]:
    """Detach the array-compile caches before pickling the graph blob.

    The compiled arrays persist separately as ``.npy`` files; pickling
    them again inside the blob would double the entry size and defeat
    the memory-mapped load.  Returns the detached values so
    :func:`_restore_compile_caches` can put them back on the live
    objects (saving must not perturb the caller's caches).
    """
    stripped: Dict[str, object] = {}
    flat = prepared._flat
    if flat is not None:
        stripped["net"] = flat.__dict__.pop("_net_arrays", None)
        clustered = getattr(flat, "_clustered", None)
        if clustered is not None:
            stripped["std"] = clustered[1].__dict__.pop(
                "_stdcell_arrays", None)
    gseq = prepared._gseq
    if gseq is not None:
        stripped["tim"] = gseq.__dict__.pop("_timing_arrays", None)
    return stripped


def _restore_compile_caches(prepared: PreparedDesign,
                            stripped: Dict[str, object]) -> None:
    """Reattach the caches detached by :func:`_strip_compile_caches`."""
    flat = prepared._flat
    if flat is not None:
        if stripped.get("net") is not None:
            flat._net_arrays = stripped["net"]
        clustered = getattr(flat, "_clustered", None)
        if clustered is not None and stripped.get("std") is not None:
            clustered[1]._stdcell_arrays = stripped["std"]
    gseq = prepared._gseq
    if gseq is not None and stripped.get("tim") is not None:
        gseq._timing_arrays = stripped["tim"]


def compile_prepared(prepared: PreparedDesign) -> None:
    """Force every derived structure and compiled array to exist.

    After this, ``prepared`` carries ``flat``/``gnet``/``gseq``/
    ``tree``, the clustered netlist, and all three compiled array
    records in their caches — the complete state a store entry
    persists.
    """
    prepared.tree
    prepared.net_arrays
    prepared.stdcell_arrays
    prepared.timing_arrays


def _array_parts(prepared: PreparedDesign):
    """``(buffers, meta)`` per group plus the validation fingerprints."""
    from repro.metrics import (
        net_arrays_to_buffers,
        stdcell_arrays_to_buffers,
        timing_arrays_to_buffers,
    )
    from repro.metrics.netarrays import _fingerprint as net_fingerprint
    from repro.placement.cluster import clustered_for

    flat = prepared.flat
    clustered = clustered_for(flat)
    gseq = prepared.gseq
    parts = {
        "net": net_arrays_to_buffers(prepared.net_arrays),
        "std": stdcell_arrays_to_buffers(prepared.stdcell_arrays),
        "tim": timing_arrays_to_buffers(prepared.timing_arrays),
    }
    fingerprints = {
        "net": list(net_fingerprint(flat)),
        "std": len(clustered.nets),
        "tim": [gseq.n_nodes, gseq.n_edges, len(flat.cells)],
    }
    return parts, fingerprints


def install_arrays(prepared: PreparedDesign,
                   arrays: Dict[str, Tuple[Dict[str, np.ndarray], Dict]],
                   fingerprints: Dict) -> bool:
    """Seed ``prepared``'s compile caches from store/shm buffers.

    Validates each group's fingerprint against the live graphs first;
    on any mismatch nothing is installed and ``False`` is returned (the
    caller falls back to compiling).  Buffer adoption is zero-copy.
    """
    from repro.metrics import (
        install_net_arrays,
        install_stdcell_arrays,
        install_timing_arrays,
        net_arrays_from_buffers,
        stdcell_arrays_from_buffers,
        timing_arrays_from_buffers,
    )
    from repro.metrics.netarrays import _fingerprint as net_fingerprint
    from repro.placement.cluster import clustered_for

    flat = prepared.flat
    clustered = clustered_for(flat)
    gseq = prepared.gseq
    if (list(net_fingerprint(flat)) != list(fingerprints["net"])
            or len(clustered.nets) != fingerprints["std"]
            or [gseq.n_nodes, gseq.n_edges, len(flat.cells)]
            != list(fingerprints["tim"])):
        return False
    install_net_arrays(flat, net_arrays_from_buffers(*arrays["net"]))
    install_stdcell_arrays(
        clustered, stdcell_arrays_from_buffers(*arrays["std"]))
    install_timing_arrays(
        gseq, flat, timing_arrays_from_buffers(*arrays["tim"]))
    return True


@dataclass
class StoreEntry:
    """One loaded (or freshly saved) compiled-design entry.

    ``arrays`` maps each group to its ``(buffers, meta)`` pair — on a
    warm load the buffers are read-only ``np.memmap`` views of the
    entry's ``.npy`` files.  ``meta`` is the entry's ``meta.json``
    contents (fingerprints, version, design name, creation wall time).
    """

    key: str
    path: Path
    meta: Dict
    arrays: Dict[str, Tuple[Dict[str, np.ndarray], Dict]]

    @property
    def design_name(self) -> str:
        return self.meta.get("design", "?")

    @property
    def fingerprints(self) -> Dict:
        return self.meta["fingerprints"]

    def blob(self) -> bytes:
        """The pickled prepared-graph blob (read fresh from disk)."""
        return (self.path / "prepared.pkl").read_bytes()

    def materialize(self) -> PreparedDesign:
        """Rebuild a fully warm :class:`PreparedDesign` from this entry.

        Unpickles the graph blob and installs the memory-mapped arrays
        into its compile caches; the result evaluates placements with
        zero ``prepare.*`` compile spans.
        """
        prepared = pickle.loads(self.blob())
        install_arrays(prepared, self.arrays, self.fingerprints)
        return prepared


class CompiledDesignStore:
    """On-disk compiled-design cache (see module docstring).

    ``root`` is created lazily on first save.  The same directory can
    back any number of processes and services; entries are immutable
    once written (rewrites are atomic and bit-identical).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"CompiledDesignStore({str(self.root)!r})"

    # -- keys ---------------------------------------------------------------

    def key_for_spec(self, spec: DesignSpec,
                     min_bits: int = DEFAULT_MIN_BITS) -> str:
        """Content key for a generated suite design (spec-determined)."""
        canon = json.dumps(asdict(spec), sort_keys=True,
                           separators=(",", ":"))
        digest = hashlib.sha256()
        digest.update(store_version().encode())
        digest.update(f"|spec|min_bits={min_bits}|".encode())
        digest.update(canon.encode())
        return digest.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / key

    # -- load / save --------------------------------------------------------

    def load(self, key: str) -> Optional[StoreEntry]:
        """Load entry ``key``, or ``None`` on a miss / stale entry."""
        path = self._entry_path(key)
        meta_path = path / "meta.json"
        if not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("version") != store_version():
                return None
            arrays = {}
            for group in GROUPS:
                manifest = meta["arrays"][group]
                buffers = {
                    name: np.load(path / filename, mmap_mode="r")
                    for name, filename in manifest.items()}
                arrays[group] = (buffers, meta["array_meta"][group])
        except (OSError, KeyError, ValueError):
            return None
        return StoreEntry(key=key, path=path, meta=meta, arrays=arrays)

    def save(self, key: str, prepared: PreparedDesign) -> StoreEntry:
        """Persist a fully compiled ``prepared`` under ``key``.

        The caller's live caches are untouched: the graph blob is
        pickled with the array caches temporarily detached, then they
        are reattached.  The write is atomic.
        """
        with current_tracer().span("store.save", key=key[:12],
                                   design=prepared.name):
            compile_prepared(prepared)
            parts, fingerprints = _array_parts(prepared)
            path = self._entry_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = Path(tempfile.mkdtemp(prefix=f".tmp-{key[:8]}-",
                                        dir=path.parent))
            try:
                manifest = {}
                array_meta = {}
                for group, (buffers, meta) in parts.items():
                    manifest[group] = {}
                    array_meta[group] = meta
                    for name, array in buffers.items():
                        filename = f"{group}__{name}.npy"
                        np.save(tmp / filename,
                                np.ascontiguousarray(array))
                        manifest[group][name] = filename
                stripped = _strip_compile_caches(prepared)
                try:
                    (tmp / "prepared.pkl").write_bytes(
                        pickle.dumps(prepared,
                                     protocol=pickle.HIGHEST_PROTOCOL))
                finally:
                    _restore_compile_caches(prepared, stripped)
                meta = {
                    "key": key,
                    "version": store_version(),
                    "design": prepared.name,
                    "min_bits": prepared.min_bits,
                    "fingerprints": fingerprints,
                    "arrays": manifest,
                    "array_meta": array_meta,
                    "created_wall": wall_seconds(),
                }
                (tmp / "meta.json").write_text(
                    json.dumps(meta, indent=1, sort_keys=True))
                if path.exists():
                    # Concurrent writer won the race with bit-identical
                    # content; keep theirs.
                    import shutil
                    shutil.rmtree(tmp, ignore_errors=True)
                else:
                    os.replace(tmp, path)
            except BaseException:
                import shutil
                shutil.rmtree(tmp, ignore_errors=True)
                raise
        entry = self.load(key)
        if entry is None:  # pragma: no cover - racing deleter
            raise OSError(f"store entry {key} vanished after save")
        return entry

    # -- the one-call front door -------------------------------------------

    def ensure_spec(self, spec: DesignSpec,
                    min_bits: int = DEFAULT_MIN_BITS) -> StoreEntry:
        """Load the entry for ``spec``, compiling and saving on a miss.

        Emits ``store.hit`` / ``store.miss`` + ``store.compile`` spans;
        this is the primary seam the suite runner and the service use.
        """
        key = self.key_for_spec(spec, min_bits)
        tracer = current_tracer()
        entry = self.load(key)
        if entry is not None:
            with tracer.span("store.hit", key=key[:12],
                             design=spec.name):
                pass
            return entry
        with tracer.span("store.miss", key=key[:12], design=spec.name):
            pass
        with tracer.span("store.compile", key=key[:12],
                         design=spec.name):
            prepared = prepare_design(spec)
            compile_prepared(prepared)
        return self.save(key, prepared)
