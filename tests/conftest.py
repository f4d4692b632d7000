import pytest

from dickelattice import _blas


@pytest.fixture
def two_blas_threads():
    """Both bundled OpenBLAS libraries at 2 threads; the old counts after."""
    before = _blas.thread_counts()
    if len(before) < 2:
        pytest.skip("numpy and scipy do not both bundle OpenBLAS here")
    _blas.set_thread_counts([2] * len(before))
    yield [2] * len(before)
    _blas.set_thread_counts(before)
