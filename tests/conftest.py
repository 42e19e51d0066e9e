import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from muscletract.formats import load_streamlines, save_streamlines
from muscletract.tracking import reconstruct_batches

# The acceptance suite runs `python -m muscletract` in subprocesses; give them
# the same source tree that pytest's `pythonpath` setting gives this process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args, **kwargs) calls fn and returns its result and
    the peak of the memory the call allocated through Python's allocators,
    numpy arrays included, in bytes (tracemalloc). Memory held before the
    call does not count; the result does."""
    return _traced_peak


def _reconstructed(field, mask, seeds, cfg=None):
    """The streamlines the `track` command writes, as the set that
    load_streamlines reads back: reconstruct_batches streamed through the
    STRL writer, the one place that rounds them to float32."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tracks.strl"
        save_streamlines(path, reconstruct_batches(field, mask, seeds, cfg))
        return load_streamlines(path)


@pytest.fixture(scope="session")
def reconstructed():
    """reconstructed(field, mask, seeds, cfg=None): the candidate set that
    every test of the tracker's output reads, so that each sees the values
    a STRL file of the `track` command holds."""
    return _reconstructed
