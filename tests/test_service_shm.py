"""The store-entry handoff layer on its own.

The pooled happy path — serial vs pooled row identity through a warm
store — lives in ``test_service_jobs.py``.  This file pins down the
handoff's contract with the entry file: what :func:`export_entry`
names is exactly what the parent loaded, and the arrays a worker
rebuilds from it are zero-copy, read-only views of that file.
"""

import pickle

import numpy as np
import pytest

from repro.gen.designs import suite_specs
from repro.service import CompiledDesignStore
from repro.service.shm import export_entry
from repro.service.store import map_entry_file, unpickle_entry


@pytest.fixture(scope="module")
def entry(tmp_path_factory):
    store = CompiledDesignStore(tmp_path_factory.mktemp("shm-store"))
    return store.ensure_spec(suite_specs("tiny")[0])


def test_export_round_trips_arrays_readonly(entry):
    handoff = pickle.loads(pickle.dumps(export_entry(entry)))
    assert (handoff.design, handoff.blob_size, handoff.spans) \
        == (entry.design_name, entry.blob_size, entry.spans)
    image = map_entry_file(entry.path, handoff.blob_size, handoff.spans)
    assert not image.flags.writeable
    assert bytes(image[:handoff.blob_size]) == entry.blob()
    prepared = unpickle_entry(image, handoff.blob_size, handoff.spans)
    assert prepared.spec.name == entry.design_name
    vals = prepared.net_arrays.pin_dx
    expected = entry.materialize().net_arrays.pin_dx
    np.testing.assert_array_equal(vals, expected)
    assert not vals.flags.writeable
    assert np.shares_memory(vals, image)
    with pytest.raises((ValueError, RuntimeError)):
        vals[0] = 99.0
