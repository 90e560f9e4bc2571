import tracemalloc

import pytest


def _traced_peak(fn, *args, **kwargs) -> int:
    """Bytes of the tracemalloc peak of one call fn(*args, **kwargs).

    Only what the call allocates counts: arrays made before it, and the
    imports a first call pays, are outside the trace, so warm a function up
    before measuring it.
    """
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
