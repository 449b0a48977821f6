"""Persistent compiled-design store: compile once, memory-map forever.

A :class:`CompiledDesignStore` caches everything that is expensive to
rebuild per process and placement-independent for a design: the
:class:`~repro.api.prepared.PreparedDesign` with its cached
``flat``/``gnet``/``gseq``/``tree``, the clustered netlist, and the
three compiled referee array records
(:class:`~repro.metrics.netarrays.NetArrays`,
:class:`~repro.metrics.stdcell_kernel.StdcellArrays`,
:class:`~repro.metrics.timing_kernel.TimingArrays`) in their
``*_arrays_for`` caches.  A warm process skips design generation,
flattening, graph construction and array compilation entirely.

Entry format
------------
This module is the only one that knows it.  An entry is a directory
holding ``meta.json`` and one data file, ``prepared.pkl``: the
prepared design pickled with protocol 5, every compiled ndarray
leaving the pickle as an out-of-band buffer.  The file is the pickle
blob followed by each buffer at a 64-byte-aligned offset;
``meta.json`` records the blob length and each buffer's
``[offset, size]``.  A load maps the file read-only (``np.memmap``)
and unpickles the blob over uint8 views of the mapping, so every
compiled array comes back read-only, aligned and zero-copy.  Pool
workers map the same file (:mod:`repro.service.shm`), through the same
two steps: :func:`map_entry_file` and :func:`unpickle_entry`.

Keying and versioning
---------------------
Entries are keyed by content hash: the SHA-256 of a suite design's
canonical :class:`~repro.gen.spec.DesignSpec` JSON (the spec fully
determines the generated netlist).  Every key is salted with
:func:`store_version`, a digest of the sources of every module the
pickle references plus the generator and compiler modules, so
changing any of them silently invalidates old entries (they become
unreachable keys, never wrong answers).  The ``*_arrays_for`` caches
re-check their cheap shape fingerprints on first use.

Compiling
---------
A miss compiles the design once: :func:`~repro.api.prepared.prepare_design`
generates it, flattens it once (the flat also sizes the die) and
:func:`compile_prepared` builds every graph and array from that flat.
The compile and the save run with the cyclic garbage collector paused
(:func:`_gc_paused`): they only build long-lived graphs, which every
collection of the oldest generation would otherwise rescan for
nothing.  The caller's collector state comes back afterwards, also
when the compile raises.

:meth:`CompiledDesignStore.ensure_specs` ensures many designs at once.
With ``workers`` > 1 and more than one miss it compiles the misses in
a dedicated pool of ``min(workers, misses)`` short-lived processes,
each saving its entry through the same atomic write, and shuts that
pool down before it returns; the caller then loads every entry as a
hit.  A child is handed the parent's :func:`store_version` salt and
the entry key, so it computes neither.  When the caller's tracer
records, each child returns its own span payload (``store.compile``,
``store.save``, ``prepare.*``), and a warning raised in a child is
raised again in the caller.  One miss, or ``workers`` <= 1, compiles
in the calling process; a warm store starts no process.

Writes are atomic (temp directory + ``os.replace``), so concurrent
writers of the same key are safe: the first complete write wins and
later ones, bit-identical by the determinism contract, are dropped.
An existing entry that does not load (a truncated or missing file, or
a data file whose size disagrees with ``meta.json``) is replaced by
the fresh write with a ``RuntimeWarning``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.api.prepared import PreparedDesign, prepare_design
from repro.gen.spec import DesignSpec
from repro.obs import (NULL_TRACER, Tracer, current_tracer, use_tracer,
                       wall_seconds)

#: The entry's one data file: pickle blob, then out-of-band buffers.
ENTRY_FILE = "prepared.pkl"

#: Buffer offsets inside the entry file are rounded up to this many
#: bytes so every adopted array starts cache-line- (and dtype-)
#: aligned.
_ALIGN = 64

#: Source modules whose digest salts every store key.  Anything that
#: changes the generated netlist, the derived graphs or the compiled
#: arrays must be listed, and so must every module whose classes the
#: entry's pickle references — a stale entry must become unreachable,
#: not wrong.
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


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block.

    Restores the caller's state in ``finally``: a collector that was
    off stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass
class StoreEntry:
    """One loaded (or freshly saved) compiled-design entry.

    ``image`` is the entry file mapped read-only (a uint8
    ``np.memmap``); ``meta`` is the entry's ``meta.json`` contents
    (version, design name, blob length, buffer spans, creation wall
    time).
    """

    key: str
    path: Path
    meta: Dict
    image: np.ndarray

    @property
    def design_name(self) -> str:
        return self.meta.get("design", "?")

    @property
    def blob_size(self) -> int:
        """Length of the pickle blob at the start of :attr:`image`."""
        return int(self.meta["blob_size"])

    @property
    def spans(self) -> Tuple[Tuple[int, int], ...]:
        """``(offset, size)`` of each out-of-band buffer in
        :attr:`image`, in pickle order."""
        return tuple((int(offset), int(size))
                     for offset, size in self.meta["buffers"])

    def blob(self) -> bytes:
        """The pickled prepared-design blob."""
        return self.image[:self.blob_size].tobytes()

    def materialize(self) -> PreparedDesign:
        """Rebuild a fully warm :class:`PreparedDesign` from this entry.

        Every compiled array is adopted zero-copy (see
        :func:`unpickle_entry`), and the result evaluates placements
        with zero ``prepare.*`` compile spans.
        """
        return unpickle_entry(self.image, self.blob_size, self.spans)


def map_entry_file(path: Path, blob_size: int,
                   spans: Sequence[Sequence[int]]) -> np.ndarray:
    """Map entry directory ``path``'s data file read-only.

    ``blob_size`` and ``spans`` are the entry's ``meta.json`` layout.
    Raises :class:`OSError` when the file is not exactly as long as
    that layout says (the last buffer's end, or the blob length when
    there is no buffer): a truncated file would unpickle garbage.
    """
    size = spans[-1][0] + spans[-1][1] if spans else blob_size
    data = path / ENTRY_FILE
    actual = data.stat().st_size
    if actual != size:
        raise OSError(f"{data} holds {actual} bytes; its meta.json "
                      f"layout says {size}")
    return np.memmap(data, mode="r")


def unpickle_entry(image: np.ndarray, blob_size: int,
                   spans: Sequence[Sequence[int]]) -> PreparedDesign:
    """Unpickle an entry's blob over read-only views of its buffers.

    ``image`` is the mapped data file (:func:`map_entry_file`); every
    compiled array comes back read-only, aligned and zero-copy.
    """
    buffers = [image[offset:offset + size] for offset, size in spans]
    return pickle.loads(image[:blob_size], buffers=buffers)


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

    def key_for_spec(self, spec: DesignSpec) -> str:
        """Content key for a generated suite design (spec-determined)."""
        canon = json.dumps(asdict(spec), sort_keys=True,
                           separators=(",", ":"))
        digest = hashlib.sha256()
        digest.update(store_version().encode())
        digest.update(b"|spec|")
        digest.update(canon.encode())
        return digest.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / key

    # -- load / save --------------------------------------------------------

    def load(self, key: str) -> Optional[StoreEntry]:
        """Load entry ``key``, or ``None`` on a miss / stale entry.

        An entry whose data file does not match ``meta.json``
        (:func:`map_entry_file`) does not load either, so a truncated
        entry is a miss that :meth:`save` replaces.
        """
        return self._load(key, store_version())

    def _load(self, key: str, version: str) -> Optional[StoreEntry]:
        """:meth:`load` against the salt ``version``."""
        path = self._entry_path(key)
        meta_path = path / "meta.json"
        if not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("version") != version:
                return None
            image = map_entry_file(path, meta["blob_size"],
                                   meta["buffers"])
        except (OSError, KeyError, ValueError):
            return None
        return StoreEntry(key=key, path=path, meta=meta, image=image)

    def save(self, key: str, prepared: PreparedDesign) -> StoreEntry:
        """Persist a fully compiled ``prepared`` under ``key``.

        Pickling leaves the caller's live caches untouched.  The write
        is atomic.
        """
        return self._save(key, prepared, store_version())

    def _save(self, key: str, prepared: PreparedDesign,
              version: str) -> StoreEntry:
        """:meth:`save` under the salt ``version``."""
        with current_tracer().span("store.save", key=key[:12],
                                   design=prepared.name):
            compile_prepared(prepared)
            buffers: List[pickle.PickleBuffer] = []
            blob = pickle.dumps(prepared, protocol=5,
                                buffer_callback=buffers.append)
            path = self._entry_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = Path(tempfile.mkdtemp(prefix=f".tmp-{key[:8]}-",
                                        dir=path.parent))
            try:
                spans = []
                with open(tmp / ENTRY_FILE, "wb") as handle:
                    handle.write(blob)
                    end = len(blob)
                    for buffer in buffers:
                        raw = buffer.raw()
                        offset = _aligned(end)
                        handle.write(bytes(offset - end))
                        handle.write(raw)
                        spans.append([offset, raw.nbytes])
                        end = offset + raw.nbytes
                meta = {
                    "key": key,
                    "version": version,
                    "design": prepared.name,
                    "blob_size": len(blob),
                    "buffers": spans,
                    "created_wall": wall_seconds(),
                }
                (tmp / "meta.json").write_text(
                    json.dumps(meta, indent=1, sort_keys=True))
                try:
                    # Fails when ``path`` is a directory with files in
                    # it: an entry is already there.
                    os.replace(tmp, path)
                except OSError:
                    if self._load(key, version) is not None:
                        # A concurrent writer won the race with
                        # bit-identical content; keep theirs.
                        shutil.rmtree(tmp, ignore_errors=True)
                    else:
                        # A corrupted entry (truncated or missing
                        # file): move it aside, install the fresh one,
                        # drop it.
                        warnings.warn(
                            f"store entry {key} does not load; "
                            "replacing it with a fresh compile",
                            RuntimeWarning, stacklevel=2)
                        stale = tmp.with_name(tmp.name + "-stale")
                        os.replace(path, stale)
                        os.replace(tmp, path)
                        shutil.rmtree(stale, ignore_errors=True)
            except BaseException:
                shutil.rmtree(tmp, ignore_errors=True)
                raise
        entry = self._load(key, version)
        if entry is None:
            raise OSError(f"store entry {key} does not load after save")
        return entry

    # -- the front doors ----------------------------------------------------

    def ensure_spec(self, spec: DesignSpec) -> StoreEntry:
        """Load the entry for ``spec``, compiling and saving on a miss.

        Emits ``store.hit`` / ``store.miss`` + ``store.compile`` spans;
        this is the primary seam the suite runner and the service use.
        A miss compiles and saves with the collector paused
        (:func:`_gc_paused`).
        """
        key = self.key_for_spec(spec)
        tracer = current_tracer()
        entry = self.load(key)
        if entry is not None:
            with tracer.span("store.hit", key=key[:12],
                             design=spec.name):
                pass
            return entry
        with tracer.span("store.miss", key=key[:12], design=spec.name):
            pass
        return self._compile(spec, key, store_version())

    def _compile(self, spec: DesignSpec, key: str,
                 version: str) -> StoreEntry:
        """Compile ``spec`` and save it as ``key`` under ``version``."""
        with _gc_paused():
            with current_tracer().span("store.compile", key=key[:12],
                                       design=spec.name):
                prepared = prepare_design(spec)
                compile_prepared(prepared)
            return self._save(key, prepared, version)

    def ensure_specs(self, specs: Sequence[DesignSpec], workers: int = 1
                     ) -> Tuple[Dict[str, StoreEntry],
                                List[Dict[str, Any]]]:
        """:meth:`ensure_spec` every spec, compiling misses in parallel.

        With ``workers`` > 1 and more than one miss, the misses are
        compiled first in a pool of ``min(workers, misses)`` processes
        (``store.miss`` spans here, the compile spans in the children),
        which is shut down before this returns; every spec then loads
        as a hit.  Otherwise this is :meth:`ensure_spec` in a loop.
        Returns the entries by design name and, when the current
        tracer records, one span payload per compiled miss (empty
        otherwise).  An error raised in a child is raised here.
        """
        payloads: List[Dict[str, Any]] = []
        if workers > 1:
            version = store_version()
            keys = [(spec, self.key_for_spec(spec)) for spec in specs]
            missing = [(spec, key) for spec, key in keys
                       if self._load(key, version) is None]
            if len(missing) > 1:
                tracer = current_tracer()
                for spec, key in missing:
                    with tracer.span("store.miss", key=key[:12],
                                     design=spec.name):
                        pass
                payloads = self._compile_in_children(
                    missing, version, workers, tracer.enabled)
        return {spec.name: self.ensure_spec(spec) for spec in specs}, \
            payloads

    def _compile_in_children(self, missing: Sequence[Tuple[DesignSpec,
                                                           str]],
                             version: str, workers: int, trace: bool
                             ) -> List[Dict[str, Any]]:
        """Compile ``(spec, key)`` pairs in a dedicated process pool.

        The pool starts its processes the way the job pool does (the
        platform's default start method), and everything a child needs
        travels as an argument, so a fresh interpreter works as well as
        a forked one.  A failed compile cancels the compiles not yet
        started.
        """
        with ProcessPoolExecutor(min(workers, len(missing))) as pool:
            futures = [pool.submit(_compile_in_child, str(self.root),
                                   spec, key, version, trace)
                       for spec, key in missing]
            try:
                results = [future.result() for future in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
        payloads = []
        for payload, caught in results:
            for category, message in caught:
                warnings.warn(message, category, stacklevel=3)
            if payload is not None:
                payloads.append(payload)
        return payloads


def _compile_in_child(root: str, spec: DesignSpec, key: str,
                      version: str, trace: bool
                      ) -> Tuple[Optional[Dict[str, Any]],
                                 List[Tuple[type, str]]]:
    """One compile process's job: compile ``spec``, save it as ``key``.

    Returns this process's span payload (``None`` unless ``trace``)
    and the warnings the compile raised, as ``(category, message)``.
    """
    tracer = Tracer(f"compile-{os.getpid()}") if trace else NULL_TRACER
    with use_tracer(tracer), warnings.catch_warnings(record=True) \
            as caught:
        warnings.simplefilter("always")
        CompiledDesignStore(root)._compile(spec, key, version)
    return (tracer.payload() if trace else None,
            [(w.category, str(w.message)) for w in caught])
