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
