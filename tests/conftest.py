import os
import tracemalloc
from pathlib import Path

import pytest

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
