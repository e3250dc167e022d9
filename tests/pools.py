"""Hypothesis strategy for small pools with heavy score ties and varied ids.

Scores take 1 to 5 distinct values, so ties decide most orders.  Ids come in
four kinds: a dense 1..n, a range that crosses zero, sparse integers up to
10^11 (too sparse for numpy to tabulate in np.isin), and strings whose order
is not the numeric one.  Rows are in random order.  ``near_tie_pools`` draws
scores that are distinct but next to each other instead, and can also draw
uint64 ids.

A property run per id kind under the ``blocks`` fixture uses
``ACROSS_BLOCKS``: the fixture's patch holds for every example of a run.
"""
import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from fair_topk.candidates import CandidatePool
from fair_topk.output import write

ID_KINDS = ("dense", "negative", "sparse", "string")


def write_pool(pool, path):
    """Write a pool as an id,score,protected CSV in the CLI's output format,
    which load_candidates reads back exactly: each score as its repr."""
    fields = (("id", "text"), ("score", "score"), ("protected", "flag"))
    rows = zip(pool.ids.tolist(), pool.scores.tolist(), pool.protected.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write(fh, fields, rows, False)


def draw_ids(rng, kind, n):
    if kind == "dense":
        return rng.permutation(n) + 1
    if kind == "negative":
        return rng.choice(np.arange(-3 * n, n), size=n, replace=False)
    if kind == "sparse":
        return rng.choice(10**11, size=n, replace=False)
    if kind == "uint64":  # dense across 2**63, or anywhere below 2**64
        if rng.random() < 0.5:
            return rng.permutation(n).astype(np.uint64) + np.uint64(2**63 - n // 2)
        return rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
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


# Scores a key of few bits cannot tell apart: signed zeros, subnormals and
# the extremes of the double range, beside values from many binades.
_SPECIAL_SCORES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                   1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308)


@st.composite
def near_tie_pools(draw, kind):
    """A pool with both groups whose scores are special values, values
    spread over binades up to +-1e308, and np.nextafter neighbours of them,
    so that distinct scores lie a few ulps apart."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = rng.choice([-1.0, 1.0], size=8) * 10.0 ** rng.uniform(-308, 308, size=8)
    levels = np.concatenate([_SPECIAL_SCORES, spread])
    levels = rng.choice(levels, size=int(rng.integers(1, 6)), replace=False)
    near = [levels]  # each level with its neighbours one and two ulps either way
    with np.errstate(over="ignore"):  # past the largest double is inf, dropped below
        for toward in (-np.inf, np.inf):
            one = np.nextafter(levels, toward)
            near += [one, np.nextafter(one, toward)]
    levels = np.concatenate(near)
    levels = levels[np.isfinite(levels)]
    scores = levels[rng.integers(0, levels.shape[0], size=n)]
    protected = rng.random(n) < rng.random()
    protected[rng.choice(n, size=2, replace=False)] = [True, False]
    return CandidatePool(draw_ids(rng, kind, n), scores, protected)
