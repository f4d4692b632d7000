import pytest

from dickelattice import _blas


@pytest.fixture
def two_blas_threads():
    """numpy's bundled OpenBLAS at 2 threads; the old count after."""
    before = _blas.thread_counts()
    if not before:
        pytest.skip("numpy bundles no OpenBLAS here")
    _blas.set_thread_counts([2] * len(before))
    yield [2] * len(before)
    _blas.set_thread_counts(before)
