"""The four workloads: set-up, one operation, and the check of its output.

An operation returns what the program produced; checks run after the timed
loop, against the oracles.  A check returns one problem string per fault.
Problems that start with OVER_ALPHA are the known calibration fault (the
table used has an exact rejection probability above alpha); any other
problem means a wrong output.
"""
from __future__ import annotations

import compileall
import contextlib
import csv
import io
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
from tracing import clear_package_caches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
OVER_ALPHA = "over-alpha"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv, stdout_path) -> tuple:
    """Run a python child to its end: (exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable] + list(argv), stdout=out, env=child_env(), cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def fair_topk_cli(argv) -> list:
    return ["-m", "fair_topk.cli"] + list(argv)


def warm_bytecode() -> None:
    """Compile the package once, as an installed copy would be."""
    compileall.compile_dir(str(SRC / "fair_topk"), quiet=1)


def parse_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


class Output:
    """What one operation produced."""

    def __init__(self, value, peak_rss_mb=None, failure=None):
        self.value = value
        self.peak_rss_mb = peak_rss_mb
        self.failure = failure  # set when the program itself did not finish


class CliWorkload:
    """Runs fair-topk as a child process per invocation (untraced), or
    fair_topk.cli.main in-process with the same argv (traced)."""

    in_process = False
    round_size = 1

    def invocations(self, state, step, index) -> list:
        raise NotImplementedError

    def run(self, state, step, index, recorder):
        texts, rss = [], 0.0
        for argv in self.invocations(state, step, index):
            if recorder is None:
                path = state["dir"] / f"stdout-{index}-{len(texts)}.csv"
                code, peak = run_child(fair_topk_cli(argv), path)
                rss = max(rss, peak)
                text = path.read_text()
                path.unlink()
            else:
                code, text = self._traced(argv, recorder)
            if code != 0:
                return Output(None, rss, f"fair-topk {argv[0]} exited {code}")
            texts.append(text)
        return Output(texts, rss)

    @staticmethod
    def _traced(argv, recorder):
        started = time.perf_counter()
        code, _ = run_child(["-c", "import fair_topk.cli"], os.devnull)
        recorder.startup.append(time.perf_counter() - started)
        if code != 0:
            return code, ""
        clear_package_caches()
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = sys.modules["fair_topk.cli"].main(list(argv))
        return code, buffer.getvalue()


class RankCsv(CliWorkload):
    """fair-topk rank on a 10^6-row id,score,protected CSV, no cache dir."""

    tag = 1
    k, p, alpha = 1500, 0.5, 0.1

    def setup(self, seed, directory):
        pool, units = inputs.million_pool(seed, self.tag)
        path = directory / "pool.csv"
        inputs.write_million_csv(path, pool, units)
        warm_bytecode()
        return {"dir": directory, "csv": path, "pool": pool}

    def invocations(self, state, step, index):
        return [["rank", str(state["csv"]), "--k", str(self.k),
                 "--p", str(self.p), "--alpha", str(self.alpha)]]

    def check(self, state, outputs):
        import oracles

        adjust_out = state["dir"] / "adjust.csv"
        code, _ = run_child(
            fair_topk_cli(["adjust", "--k", str(self.k), "--p", str(self.p),
                           "--alpha", str(self.alpha)]),
            adjust_out,
        )
        if code != 0:
            return [[f"fair-topk adjust exited {code}"]] * len(outputs)
        alpha_adj = float(parse_csv(adjust_out.read_text())[0]["alpha_adj"])
        pool = state["pool"]
        minima = oracles.minimum_counts(self.k, self.p, alpha_adj)
        table_problems = []
        rejection = oracles.rejection_probability(minima, self.p)
        if rejection > self.alpha:
            table_problems.append(
                f"{OVER_ALPHA}: table for alpha_adj={alpha_adj} rejects {rejection:.7f}"
            )
        rows = oracles.merge_topk(pool.ids, pool.scores, pool.protected, minima)
        places = oracles.color_blind_positions(pool.ids, pool.scores, rows)
        expected = [
            (position, int(pool.ids[row]), float(pool.scores[row]),
             int(pool.protected[row]), int(place))
            for position, (row, place) in enumerate(zip(rows, places), start=1)
        ]
        problems = []
        for output in outputs:
            found = list(table_problems)
            got = [
                (int(r["position"]), int(r["id"]), float(r["score"]),
                 int(r["protected"]), int(r["color_blind_position"]))
                for r in parse_csv(output.value[0])
            ]
            if got != expected:
                first = next(
                    (i for i, (g, e) in enumerate(zip(got, expected)) if g != e),
                    min(len(got), len(expected)),
                )
                found.append(
                    f"rank rows differ from the oracle merge at row {first + 1} "
                    f"({len(got)} rows, {len(expected)} expected)"
                )
            problems.append(found)
        return problems


class Experiment(CliWorkload):
    """fair-topk experiment on the credit and recidivism configs, sharing one
    fresh cache dir per operation."""

    tag = 2

    def setup(self, seed, directory):
        configs = inputs.write_experiment_inputs(directory, seed, self.tag)
        warm_bytecode()
        return {"dir": directory, "configs": configs}

    def invocations(self, state, step, index):
        cache = state["dir"] / f"cache-{index}"
        return [["experiment", str(path), "--cache-dir", str(cache)]
                for path, _ in state["configs"].values()]

    def check(self, state, outputs):
        import oracles

        expected = {}
        for name, (_, pool) in state["configs"].items():
            config = inputs.EXPERIMENT_CONFIGS[name]
            k = config["k"]
            blind = pool.ids[oracles.topk_rows(pool.ids, pool.scores, k)]
            repaired = oracles.quantile_repair(pool.ids, pool.scores, pool.protected)
            feldman = pool.ids[oracles.topk_rows(pool.ids, repaired, k)]
            expected[name] = {
                "color-blind": oracles.utility_report(pool.ids, pool.scores, pool.protected, blind),
                "feldman": oracles.utility_report(pool.ids, pool.scores, pool.protected, feldman),
            }
        problems = []
        for output in outputs:
            found = []
            for (name, config), text in zip(inputs.EXPERIMENT_CONFIGS.items(), output.value):
                found += self._check_report(name, config, parse_csv(text), expected[name])
            problems.append(found)
        return problems

    @staticmethod
    def _check_report(name, config, rows, expected):
        found = []
        grid = config["p_grid"]
        methods = [(m, p) for p in grid for m in ("color-blind", "fair", "feldman")]
        got = [(r["method"], float(r["p"])) for r in rows]
        if got != methods or any(r["dataset"] != name for r in rows):
            return [f"{name}: rows are not one per (method, p) of the grid"]
        fair_shares = []
        for row in rows:
            share = float(row["pct_protected_output"])
            ndcg = float(row["ndcg"])
            ordering = float(row["ordering_utility_loss"])
            selection = float(row["selection_utility_loss"])
            where = f"{name} {row['method']} p={row['p']}"
            if row["method"] == "fair":
                fair_shares.append(share)
                if ndcg > 1.0 or ordering < 0.0 or selection < 0.0:
                    found.append(f"{where}: ndcg above 1 or a negative loss")
                continue
            report = expected[row["method"]]
            for column, key in (("pct_protected_output", "protected_share"),
                                ("ndcg", "ndcg"),
                                ("ordering_utility_loss", "ordering_utility_loss"),
                                ("selection_utility_loss", "selection_utility_loss")):
                # printed with six decimals
                printed = float(row[column])
                if not math.isclose(printed, report[key], rel_tol=0, abs_tol=1e-6):
                    found.append(f"{where}: {column} {row[column]} != {report[key]:.6f}")
            if int(row["rank_drop"]) != report["max_rank_drop"]:
                found.append(f"{where}: rank_drop {row['rank_drop']} != {report['max_rank_drop']}")
        blind_share = expected["color-blind"]["protected_share"]
        if any(share < blind_share - 1e-6 for share in fair_shares):
            found.append(f"{name}: a fair row holds fewer protected than color-blind")
        if any(b < a for a, b in zip(fair_shares, fair_shares[1:])):
            found.append(f"{name}: fair protected share falls as p rises")
        return found


class Library1m:
    """A long-lived integrator: fair_topk, evaluate_ranking and the repaired
    color-blind top k on an in-memory 10^6-candidate pool."""

    in_process = True
    round_size = 1
    tag = 3
    k, p, alpha = 1500, 0.5, 0.1

    def setup(self, seed, directory):
        from fair_topk import adjustment, candidates, fairness

        pool, _ = inputs.million_pool(seed, self.tag)
        program_pool = candidates.CandidatePool(pool.ids, pool.scores, pool.protected)
        alpha_adj = adjustment.adjust_significance(self.k, self.p, self.alpha).alpha_adj
        fairness.compute_mtable(self.k, self.p, alpha_adj)
        return {"pool": pool, "program_pool": program_pool, "alpha_adj": alpha_adj}

    def run(self, state, step, index, recorder):
        from fair_topk import baselines, metrics, ranker

        pool = state["program_pool"]
        ranking = ranker.fair_topk(pool, self.k, self.p, state["alpha_adj"])
        report = metrics.evaluate_ranking(pool, ranking.entries)
        repaired = ranker.color_blind_topk(baselines.feldman_repair(pool).pool, self.k)
        return Output((ranking, report, repaired))

    def check(self, state, outputs):
        import oracles

        pool = state["pool"]
        repaired_scores = oracles.quantile_repair(pool.ids, pool.scores, pool.protected)
        repaired_rows = oracles.topk_rows(pool.ids, repaired_scores, self.k)
        merged_of, report_of = {}, {}  # operations repeat one input: compute once
        problems = []
        for output in outputs:
            ranking, report, repaired = output.value
            found = []
            minima = np.asarray(ranking.mtable_used.minima)
            if minima.tobytes() not in merged_of:
                rows = oracles.merge_topk(pool.ids, pool.scores, pool.protected, minima)
                merged_of[minima.tobytes()] = (
                    oracles.rejection_probability(minima, self.p), pool.ids[rows]
                )
            rejection, merged_ids = merged_of[minima.tobytes()]
            if rejection > self.alpha:
                found.append(f"{OVER_ALPHA}: table used rejects {rejection:.7f}")
            entries = np.asarray(ranking.entries.ids)
            if not np.array_equal(entries, merged_ids):
                found.append("fair_topk entries differ from the oracle merge")
            if entries.tobytes() not in report_of:
                report_of[entries.tobytes()] = oracles.utility_report(
                    pool.ids, pool.scores, pool.protected, entries
                )
            for field, wanted in report_of[entries.tobytes()].items():
                value = getattr(report, field)
                same = (
                    math.isclose(value, wanted, rel_tol=1e-12, abs_tol=1e-12)
                    if isinstance(wanted, float) else value == wanted
                )
                if not same:
                    found.append(f"UtilityReport.{field} {value!r} != {wanted!r}")
            if not (np.array_equal(repaired.ids, pool.ids[repaired_rows])
                    and np.array_equal(repaired.scores, repaired_scores[repaired_rows])):
                found.append("repaired color-blind top k differs from the oracle")
            problems.append(found)
        return problems


class Audit:
    """An auditor with a warm adjustments cache: for each cell, read alpha_adj,
    take the table, simulate fair rankings against it and score a few."""

    in_process = True
    tag = 4
    k, alpha = 1000, 0.1
    cells = tuple(round(0.1 * i, 1) for i in range(1, 10))  # p
    round_size = len(cells)
    trials = 1000
    measured = 5  # simulated rankings scored with the fairness measure
    standard_errors = 5.0

    def setup(self, seed, directory):
        from fair_topk import fairness, store

        cache = directory / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        for p in self.cells:
            alpha_adj = store.cached_adjustment(self.k, p, self.alpha, cache).alpha_adj
            fairness.compute_mtable(self.k, p, alpha_adj)
        return {"cache": cache, "seed": seed}

    def run(self, state, step, index, recorder):
        from fair_topk import adjustment, baselines, fairness, store

        p = self.cells[step]
        base = [state["seed"], self.tag, step]
        alpha_adj = store.cached_adjustment(self.k, p, self.alpha, state["cache"]).alpha_adj
        table = fairness.compute_mtable(self.k, p, alpha_adj)
        simulated = adjustment.simulate_rejection_rate(
            self.k, p, p, alpha_adj, self.trials, seed=base
        )
        scored = []
        for t in range(self.measured):
            ranking = baselines.yang_stoyanovich_generate(self.k, p, seed=base + [t])
            scored.append(
                (ranking.protected.copy(), fairness.ranked_group_fairness_measure(ranking, p))
            )
        return Output((p, np.asarray(table.minima).copy(), simulated, scored))

    def check(self, state, outputs):
        import oracles

        exact_of = {}
        problems = []
        for output in outputs:
            p, minima, simulated, scored = output.value
            found = []
            key = (p, minima.tobytes())
            if key not in exact_of:
                exact_of[key] = oracles.rejection_probability(minima, p)
            exact = exact_of[key]
            if exact > self.alpha:
                found.append(f"{OVER_ALPHA}: p={p} table rejects {exact:.7f}")
            spread = self.standard_errors * math.sqrt(exact * (1.0 - exact) / self.trials)
            within = math.isclose(simulated.estimate, exact, rel_tol=0, abs_tol=spread)
            if simulated.trials != self.trials or not within:
                found.append(
                    f"p={p}: simulated rejection {simulated.estimate} is more than "
                    f"{self.standard_errors:g} standard errors from {exact:.6f}"
                )
            for flags, measure in scored:
                wanted = oracles.fairness_measure(flags, p)
                if not math.isclose(measure, wanted, rel_tol=1e-9):
                    found.append(f"p={p}: fairness measure {measure!r} != {wanted!r}")
            problems.append(found)
        return problems


WORKLOADS = {
    "rank-csv-1m": RankCsv,
    "experiment": Experiment,
    "library-1m": Library1m,
    "audit": Audit,
}
