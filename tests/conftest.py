import pytest

from tsplab import bench


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of each process pool ``tsplab.bench`` constructs, in order."""
    real, sizes = bench.ProcessPoolExecutor, []

    def pool(*args, **kwargs):
        sizes.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", pool)
    return sizes


@pytest.fixture
def pool_chunks(monkeypatch):
    """``(solves, chunksize)`` of each batch sent to a process pool that
    ``tsplab.bench`` constructs, in order."""
    calls = []

    class Pool(bench.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            calls.append((len(iterables[0]), chunksize))
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", Pool)
    return calls
