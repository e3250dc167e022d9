"""Spans around the program's layers, recorded from outside the package.

install() wraps each layer's public function everywhere the fair_topk
package binds its name, and the constructors of the two column containers.
Each call becomes a span (name, start, end, parent) kept in memory; counts
are taken at the same boundaries.  Only the traced run installs it, so the
end-to-end figures come from unwrapped code.
"""
from __future__ import annotations

import csv
import functools
import sys
import time
from collections import Counter, defaultdict

# (layer name, module, attribute)
LAYERS = (
    ("cli.main", "fair_topk.cli", "main"),
    ("experiment.load_candidates", "fair_topk.experiment", "load_candidates"),
    ("experiment.run_experiment", "fair_topk.experiment", "run_experiment"),
    ("store.cached_adjustment", "fair_topk.store", "cached_adjustment"),
    ("adjustment.adjust_significance", "fair_topk.adjustment", "adjust_significance"),
    ("adjustment.rejection_probability", "fair_topk.adjustment", "rejection_probability"),
    ("adjustment.simulate_rejection_rate", "fair_topk.adjustment", "simulate_rejection_rate"),
    ("binomial.minimum_counts", "fair_topk.binomial", "minimum_counts"),
    ("binomial.cdf", "fair_topk.binomial", "cdf"),
    ("baselines.yang_stoyanovich_generate", "fair_topk.baselines", "yang_stoyanovich_generate"),
    ("baselines.feldman_repair", "fair_topk.baselines", "feldman_repair"),
    ("fairness.compute_mtable", "fair_topk.fairness", "compute_mtable"),
    ("fairness.verify_ranked_group_fairness", "fair_topk.fairness", "verify_ranked_group_fairness"),
    ("fairness.ranked_group_fairness_measure", "fair_topk.fairness", "ranked_group_fairness_measure"),
    ("ranker.fair_topk", "fair_topk.ranker", "fair_topk"),
    ("ranker.color_blind_topk", "fair_topk.ranker", "color_blind_topk"),
    ("metrics.evaluate_ranking", "fair_topk.metrics", "evaluate_ranking"),
    ("metrics.ordering_utility", "fair_topk.metrics", "ordering_utility"),
    ("metrics.ndcg", "fair_topk.metrics", "ndcg"),
)
CONSTRUCT = "candidates.construct"
CONTAINERS = ("CandidatePool", "RankedSequence")  # classes in fair_topk.candidates
# Layers whose spans also count rows: those of the result they return.
ROWS_OF_RESULT = {"experiment.load_candidates", "ranker.color_blind_topk"}


def package_modules():
    return [
        module for name, module in list(sys.modules.items())
        if name == "fair_topk" or name.startswith("fair_topk.")
    ]


def clear_package_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has them."""
    for module in package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Recorder:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.rows = Counter()
        self.startup = []  # wall seconds of each fresh `import fair_topk.cli`
        self._open = []

    def wrap(self, name, fn, rows=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._open.pop()
            if rows is not None:
                self.rows[name] += rows(result, args)
            return result

        return traced

    def install(self) -> None:
        import fair_topk.cli  # noqa: F401  (loads every module of the package)

        modules = package_modules()
        for name, module_name, attribute in LAYERS:
            original = getattr(sys.modules[module_name], attribute)
            rows = (lambda result, args: len(result)) if name in ROWS_OF_RESULT else None
            traced = self.wrap(name, original, rows)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        candidates = sys.modules["fair_topk.candidates"]
        for class_name in CONTAINERS:
            cls = getattr(candidates, class_name)
            cls.__post_init__ = self.wrap(
                CONSTRUCT, cls.__post_init__, lambda result, args: len(args[0])
            )

    def per_operation(self, metric_names, operations: int) -> dict:
        """Each named per-layer metric, summed over the spans and divided by
        the operations run.  A name is <layer>.<statistic>, the statistic one
        of s (inclusive time), self_s (time less direct children), calls,
        rows, hits and misses (store lookups answered without or with a
        calibration), or startup_s (fresh interpreter plus package import)."""
        inclusive = defaultdict(float)
        children = defaultdict(float)
        calls = Counter()
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            inclusive[name] += duration
            calls[name] += 1
            if self.parents[index] >= 0:
                children[self.parents[index]] += duration
        own = defaultdict(float)
        for index, name in enumerate(self.names):
            own[name] += self.ends[index] - self.starts[index] - children[index]
        misses = self._store_misses()
        totals = {
            "s": inclusive,
            "self_s": own,
            "calls": calls,
            "rows": self.rows,
        }
        out = {}
        for metric in metric_names:
            layer, statistic = metric.rsplit(".", 1)
            if statistic == "startup_s":
                value = sum(self.startup)
            elif statistic == "hits":
                value = calls[layer] - misses
            elif statistic == "misses":
                value = misses
            else:
                value = totals[statistic][layer]
            out[metric] = value / operations
        return out

    def _store_misses(self) -> int:
        """Store lookups with a calibration somewhere beneath them."""
        missed = set()
        for index, name in enumerate(self.names):
            if name != "adjustment.adjust_significance":
                continue
            parent = self.parents[index]
            while parent >= 0:
                if self.names[parent] == "store.cached_adjustment":
                    missed.add(parent)
                    break
                parent = self.parents[parent]
        return len(missed)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("span", "parent", "name", "start_s", "end_s"))
            for index, name in enumerate(self.names):
                writer.writerow(
                    (index, self.parents[index], name,
                     f"{self.starts[index]:.6f}", f"{self.ends[index]:.6f}")
                )
