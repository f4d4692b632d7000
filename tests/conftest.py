import pytest

from dickelattice import _blas


@pytest.fixture
def two_blas_threads():
    """numpy's bundled OpenBLAS at 2 threads; the old count after."""
    before = _blas.thread_count()
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    _blas.set_thread_count(2)
    yield 2
    _blas.set_thread_count(before)
