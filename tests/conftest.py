import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """A function that runs ``run()`` under tracemalloc and returns the peak
    bytes traced during the call."""
    def measure(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
