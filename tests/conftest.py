"""Suite-wide guards and fixtures.

Evaluation runs its GRU blocks, and training its GRU, on threads created
per call (``numeric.run_row_blocks``, ``numeric.run_pipelined``), which
must join every thread they start.  A test that leaves a thread running
fails here, so a leaked pool shows up as the test that leaked it instead
of as a slow or hung suite later.
"""

import ctypes
import threading

import pytest

from hgrc import numeric


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads still running after the test: {leaked}")


@pytest.fixture
def one_blas_thread():
    """Run the test with numpy's bundled OpenBLAS on one thread.

    The package starts threads only when BLAS runs one (``numeric._workers``).
    A test that forces a worker count must keep that condition: a
    multi-threaded BLAS splits a large product over its own threads, and the
    rows of a block then need not round like the whole batch's.
    """
    for lib in numeric._openblas_libs():
        for getter in numeric._BLAS_THREAD_SYMBOLS:
            get = getattr(lib, getter, None)
            set_ = getattr(lib, getter.replace("_get_", "_set_"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                threads = get()
                set_(1)
                try:
                    yield
                finally:
                    set_(threads)
                return
    pytest.skip("numpy does not bundle OpenBLAS here")
