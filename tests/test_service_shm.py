"""Failure-path coverage for the shared-memory handoff layer.

The happy path — serial vs pooled row identity through a warm store —
lives in ``test_service_jobs.py``.  These tests pin down the edges the
analyzer's REP010-REP012 rules reason about statically:

* ``ShmHandoff.close()`` and ``SegmentOwner.unlink()`` are idempotent
  (double release must not raise or double-free);
* attaching a missing/renamed segment raises cleanly *and* leaves the
  monkeypatched ``resource_tracker.register`` restored and the pin
  registry untouched (the ``finally`` in ``_attach`` is load-bearing);
* double-attach of one segment reuses the pinned handle — exactly one
  ``_ATTACHED`` entry, same object back.
"""

import pickle

import numpy as np
import pytest

from multiprocessing import resource_tracker

from repro.service import shm as shm_mod
from repro.service.shm import SegmentOwner, ShmHandoff, _attach, export_entry


class FakeEntry:
    """Minimal stand-in for a CompiledDesignStore entry: a pickle blob
    plus one out-of-band buffer, laid out as the store lays it out."""

    design_name = "fake-design"

    def __init__(self):
        buffers = []
        blob = pickle.dumps(
            {"design": self.design_name,
             "vals": np.arange(6, dtype=np.float64)},
            protocol=5, buffer_callback=buffers.append)
        (raw,) = (buffer.raw() for buffer in buffers)
        offset = -(-len(blob) // 64) * 64
        self.image = np.zeros(offset + raw.nbytes, dtype=np.uint8)
        self.image[:len(blob)] = np.frombuffer(blob, dtype=np.uint8)
        self.image[offset:] = np.frombuffer(raw, dtype=np.uint8)
        self.blob_size = len(blob)
        self.spans = ((offset, raw.nbytes),)


@pytest.fixture
def owner():
    owner = export_entry(FakeEntry())
    try:
        yield owner
    finally:
        # Drop any attachment this process made before unlinking.
        pinned = shm_mod._ATTACHED.pop(owner.handoff.segment, None)
        if pinned is not None:
            pinned.close()
        owner.unlink()


def test_export_round_trips_arrays_readonly(owner):
    handoff = owner.handoff
    shm = _attach(handoff.segment)
    (view,) = handoff.buffers(shm)
    assert not view.flags.writeable
    blob = bytes(shm.buf[:handoff.blob_size])
    payload = pickle.loads(blob, buffers=[view])
    vals = payload["vals"]
    assert payload["design"] == "fake-design"
    assert np.array_equal(vals, np.arange(6, dtype=np.float64))
    assert not vals.flags.writeable
    assert np.shares_memory(vals, view)
    with pytest.raises((ValueError, RuntimeError)):
        vals[0] = 99.0


def test_handoff_close_is_idempotent(owner):
    handoff = owner.handoff
    handoff._shm = _attach(handoff.segment)
    assert handoff.segment in shm_mod._ATTACHED
    handoff.close()
    assert handoff._shm is None
    assert handoff.segment not in shm_mod._ATTACHED
    # Second close is a no-op, not a double-free.
    handoff.close()
    assert handoff._shm is None


def test_owner_unlink_is_idempotent():
    owner = export_entry(FakeEntry())
    segment = owner.handoff.segment
    owner.unlink()
    assert owner.shm is None
    owner.unlink()  # must not raise
    # The segment is really gone: re-attach fails cleanly.
    with pytest.raises(FileNotFoundError):
        _attach(segment)
    assert segment not in shm_mod._ATTACHED


def test_missing_segment_attach_restores_tracker():
    original = resource_tracker.register
    name = "repro-test-no-such-segment"
    with pytest.raises(FileNotFoundError):
        _attach(name)
    # The finally in _attach must have put the real register back —
    # identity, not just equivalent behavior.
    assert resource_tracker.register is original
    # A failed attach must not leave a dangling pin.
    assert name not in shm_mod._ATTACHED


def test_double_attach_reuses_single_pin(owner):
    segment = owner.handoff.segment
    first = _attach(segment)
    before = len(shm_mod._ATTACHED)
    second = _attach(segment)
    assert second is first
    assert len(shm_mod._ATTACHED) == before
    assert shm_mod._ATTACHED[segment] is first


def test_handoff_pickles_without_attachment(owner):
    handoff = owner.handoff
    handoff._shm = _attach(handoff.segment)
    clone = pickle.loads(pickle.dumps(handoff))
    assert clone._shm is None
    assert clone.segment == handoff.segment
    assert clone.spans == handoff.spans
    assert clone.blob_size == handoff.blob_size
    assert isinstance(clone, ShmHandoff)


def test_owner_pairs_handoff_with_unlink_duty(owner):
    assert isinstance(owner, SegmentOwner)
    assert owner.shm.name == owner.handoff.segment
