"""Suite-wide guards.

Evaluation runs its GRU blocks on a thread pool created per call
(``numeric.run_row_blocks``), which must join every thread it starts.  A
test that leaves a thread running fails here, so a leaked pool shows up
as the test that leaked it instead of as a slow or hung suite later.
"""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads still running after the test: {leaked}")
