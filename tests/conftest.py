"""Fixtures shared by the test modules."""
import pytest

from fair_topk import ranker


@pytest.fixture(params=[1, 2, 3], ids=lambda rows: f"blocks-{rows}")
def blocks(request, monkeypatch):
    """Pools walked in blocks of 1, 2 or 3 rows, so that a pool of a few
    dozen rows crosses many block boundaries."""
    monkeypatch.setattr(ranker, "_BLOCK_ROWS", request.param)
    return request.param
