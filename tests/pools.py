"""Hypothesis strategy for small pools with heavy score ties and varied ids.

Scores take 1 to 5 distinct values, so ties decide most orders.  Ids come in
four kinds: a dense 1..n, a range that crosses zero, sparse integers up to
10^11 (too sparse for numpy to tabulate in np.isin), and strings whose order
is not the numeric one.  Rows are in random order.

A property run per id kind under the ``blocks`` fixture uses
``ACROSS_BLOCKS``: the fixture's patch holds for every example of a run.
"""
import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from fair_topk.candidates import CandidatePool

ID_KINDS = ("dense", "negative", "sparse", "string")


def draw_ids(rng, kind, n):
    if kind == "dense":
        return rng.permutation(n) + 1
    if kind == "negative":
        return rng.choice(np.arange(-3 * n, n), size=n, replace=False)
    if kind == "sparse":
        return rng.choice(10**11, size=n, replace=False)
    return np.array([f"c{i}" for i in rng.choice(10 * n, size=n, replace=False)])


ACROSS_BLOCKS = settings(
    max_examples=75, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def tied_pools(draw, max_size=40, both_groups=False, kind=None):
    """(pool, rng) with the rng seeded from the draw, for follow-up choices.
    Ids are of the given kind, or of a drawn one."""
    if kind is None:
        kind = draw(st.sampled_from(ID_KINDS))
    n = draw(st.integers(2 if both_groups else 1, max_size))
    levels = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(-40, 40, size=levels) / 8.0
    scores = values[rng.integers(0, levels, size=n)]
    protected = rng.random(n) < rng.random()
    if both_groups:
        protected[rng.choice(n, size=2, replace=False)] = [True, False]
    return CandidatePool(draw_ids(rng, kind, n), scores, protected), rng
