"""Command-line front door: audit rankings, build tables, rank, experiment.

Every command writes machine-readable output to stdout (CSV by default,
``--json`` for a JSON document) and is deterministic given its flags and
seed: identical invocations produce byte-identical stdout.  Each output is
one field schema rendered by ``output.write``, which fixes how every kind
of value prints in both forms.

Exit codes: 0 ok; 1 unfair or infeasible verdict (under --strict, or an
infeasible significance adjustment); 2 usage error; 3 data error.
"""
from __future__ import annotations

import argparse
import io
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .adjustment import InfeasibleAdjustmentError, adjust_significance, simulate_rejection_rate
from .baselines import feldman_repair, yang_stoyanovich_generate
from .candidates import CandidatePool
from .datasets import XING_COLUMNS
from .experiment import (
    REPORT_FIELDS,
    DataLoadError,
    DatasetSpec,
    _check_room,
    _file_faults,
    _pool_for_k,
    _read_columns,
    load_ranking,
    load_spec,
    run_experiment,
)
from .fairness import compute_mtable, verify_ranked_group_fairness
from .output import dump, record, write
from .ranker import InfeasibleRankingError, _best_rows, color_blind_topk, fair_topk

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_DATA = 3

_EXIT_HELP = (
    "exit codes: 0 ok; 1 unfair/infeasible verdict (--strict contexts and "
    "infeasible adjustments); 2 usage error; 3 data error"
)

# one (name, kind) schema per output; see output.KINDS
MTABLE = (("k", "count"), ("p", "prob"), ("alpha", "prob"), ("minima", "text"))
MTABLE_ROWS = (("position", "count"), ("minimum", "count"))
ADJUST = (("k", "count"), ("p", "prob"), (("alpha", "alpha_target"), "prob"),
          ("alpha_adj", "alpha"), ("achieved_rejection", "prob"), ("feasible", "bool"))
VERIFY = (("fair", "bool"), ("k", "count"), ("alpha_used", "alpha"),
          ("first_violation", "optional"), ("required", "optional"), ("observed", "optional"))
RANK = (("position", "count"), ("id", "text"), ("score", "score"), ("protected", "flag"),
        ("color_blind_position", "count"))
SIMULATE = (("k", "count"), ("p", "prob"), ("alpha_adj", "alpha"), ("trials", "count"),
            ("rejections", "count"), ("estimate", "prob"), ("stderr", "prob"))
PREP_XING = (("id", "text"), ("score", "count"), ("protected", "flag"))


# ---------------------------------------------------------------- commands


def cmd_mtable(args) -> int:
    minima = compute_mtable(args.k, args.p, args.alpha).minima.tolist()
    if args.json:
        dump(sys.stdout, record(MTABLE, (args.k, args.p, args.alpha, minima)))
    else:
        write(sys.stdout, MTABLE_ROWS, enumerate(minima, start=1), False)
    return EXIT_OK


def cmd_adjust(args) -> int:
    r = adjust_significance(args.k, args.p, args.alpha)
    row = (r.k, r.p, r.alpha_target, r.alpha_adj, r.achieved_rejection_prob, r.feasible)
    write(sys.stdout, ADJUST, row, args.json)
    return EXIT_OK if r.feasible else EXIT_VERDICT


def cmd_verify(args) -> int:
    source = sys.stdin if args.input == "-" else args.input
    if hasattr(source, "buffer"):  # stdin is read as strict UTF-8, like a file
        source = io.TextIOWrapper(source.buffer, encoding="utf-8", newline="")
    ranking = load_ranking(source)
    alpha = args.alpha
    if args.adjusted:
        alpha = adjust_significance(len(ranking), args.p, args.alpha).usable()
    verdict = verify_ranked_group_fairness(ranking, args.p, alpha)
    row = (verdict.fair, verdict.k, alpha,
           verdict.first_violation, verdict.required, verdict.observed)
    write(sys.stdout, VERIFY, row, args.json)
    if args.strict and not verdict.fair:
        return EXIT_VERDICT
    return EXIT_OK


def cmd_rank(args) -> int:
    if args.method == "fair" and args.p is None:
        raise ValueError("--p is required for --method fair")
    spec = None
    if args.input is not None:
        spec = DatasetSpec(name=Path(args.input).stem, path=args.input, k=args.k)
    if args.method == "fair":  # the table is settled before any pool is read
        if spec is not None:
            _check_room(spec)  # unless the file is too short to hold k rows
        alpha_adj = args.alpha
        if not args.raw:
            alpha_adj = adjust_significance(args.k, args.p, args.alpha).usable()
        compute_mtable(args.k, args.p, alpha_adj)  # fair_topk reads it from the cache
    if args.input is None:
        generated = yang_stoyanovich_generate(
            args.k, 0.5 if args.p is None else args.p, args.seed
        )
        pool = CandidatePool(generated.ids, generated.scores, generated.protected)
    else:
        pool = _pool_for_k(spec)

    if args.method == "fair":
        result = fair_topk(pool, args.k, args.p, alpha_adj, strict=args.strict)
        if result.satisfied_up_to < args.k:
            print(
                f"warning: protected supply exhausted; minimum counts hold only "
                f"through position {result.satisfied_up_to} of {args.k}",
                file=sys.stderr,
            )
        ranking = result.entries
    elif args.method == "feldman":
        with nullcontext() if args.input is None else _file_faults(args.input):
            repaired = feldman_repair(pool).pool
        chosen = _best_rows(repaired, args.k)  # rows of the repaired pool are the pool's
        ranking = repaired.take(chosen)
    else:
        ranking = color_blind_topk(pool, args.k)

    # where each ranked candidate would sit in the color-blind order of the
    # original pool (1-based), so displacement is visible in the output.  Only
    # rows scoring at least the lowest ranked original score can precede a
    # ranked candidate, so only those are sorted.
    original = ranking.scores
    if args.method == "feldman":  # ranked scores are repaired ones
        original = pool.scores[chosen]
    rows = np.flatnonzero(pool.scores >= original.min())
    ids = pool.ids[rows[np.lexsort((pool.ids[rows], -pool.scores[rows]))]]
    by_id = np.argsort(ids)
    positions = by_id[np.searchsorted(ids, ranking.ids, sorter=by_id)] + 1

    columns = (ranking.ids, ranking.scores, ranking.protected, positions)
    rows = zip(range(1, len(ranking) + 1), *(column.tolist() for column in columns))
    write(sys.stdout, RANK, rows, args.json)
    return EXIT_OK


def cmd_simulate(args) -> int:
    result = simulate_rejection_rate(
        args.k, args.p, args.p, args.alpha_adj, args.trials, args.seed
    )
    row = (args.k, args.p, args.alpha_adj, result.trials, result.rejections,
           result.estimate, result.stderr)
    write(sys.stdout, SIMULATE, row, args.json)
    return EXIT_OK


def cmd_experiment(args) -> int:
    spec = load_spec(args.config)
    rows = run_experiment(spec, args.cache_dir, strict=args.strict)
    write(sys.stdout, REPORT_FIELDS, [row.values() for row in rows], args.json)
    return EXIT_OK


def cmd_prep_xing(args) -> int:
    label = str(args.input)
    protected = lambda gender: int(gender == args.protected_gender)
    parsers = dict(zip(XING_COLUMNS, (str, str, protected, int, int, int)))
    columns = _read_columns(args.input, label, parsers)
    out = [
        (candidate, (work + edu) * views, flag)
        for query, candidate, flag, work, edu, views in zip(*columns.values())
        if args.query in (None, query)
    ]
    if not out:
        for_query = f" for query {args.query!r}" if args.query else ""
        raise DataLoadError(f"{label}: no rows{for_query}")
    queries = sorted(set(columns["query"]))
    if args.query is None and len(queries) > 1:
        raise DataLoadError(f"{label}: multiple queries {queries}; pick one with --query")
    write(sys.stdout, PREP_XING, out, args.json)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="emit JSON instead of CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fair-topk",
        description="Fairness-constrained top-k ranking toolkit.",
        epilog=_EXIT_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    s = sub.add_parser(
        "mtable",
        help="print per-position minimum protected counts",
        description="Minimum number of protected candidates required at each "
        "ranking prefix 1..k for the binomial test at the given significance. "
        "Pass the alpha_adj that adjust prints to get the calibrated table.",
        epilog=_EXIT_HELP,
    )
    s.add_argument("--k", type=int, required=True, help="ranking length")
    s.add_argument("--p", type=float, required=True, help="target protected proportion")
    s.add_argument("--alpha", type=float, required=True, help="significance level")
    _add_common(s)
    s.set_defaults(handler=cmd_mtable)

    s = sub.add_parser(
        "adjust",
        help="calibrate the per-test significance for a k-prefix test",
        description="Search for the per-test alpha_adj whose overall rejection "
        "probability for a fair process matches the target alpha. Exit 1 when "
        "the step structure of the test leaves the target unreachable "
        "(the conservative alpha_adj is still printed).",
        epilog=_EXIT_HELP,
    )
    s.add_argument("--k", type=int, required=True, help="ranking length")
    s.add_argument("--p", type=float, required=True, help="target protected proportion")
    s.add_argument("--alpha", type=float, required=True, help="overall target significance")
    _add_common(s)
    s.set_defaults(handler=cmd_adjust)

    s = sub.add_parser(
        "verify",
        help="test a ranking for ranked group fairness",
        description="Read an ordered ranking CSV (columns id,protected and "
        "optional score; '-' for stdin) and test every prefix against the "
        "minimum-count table. By default alpha is used as-is; with "
        "--adjusted it is first corrected for the k dependent prefix tests.",
        epilog=_EXIT_HELP,
    )
    s.add_argument("input", help="ranking CSV path, or - for stdin")
    s.add_argument("--p", type=float, required=True, help="target protected proportion")
    s.add_argument("--alpha", type=float, default=0.1, help="significance level (default 0.1)")
    s.add_argument(
        "--adjusted", action="store_true", help="correct alpha for multiple tests first"
    )
    s.add_argument(
        "--strict", action="store_true", help="exit 1 when the ranking is unfair"
    )
    _add_common(s)
    s.set_defaults(handler=cmd_verify)

    s = sub.add_parser(
        "rank",
        help="produce a top-k ranking from a candidate pool",
        description="Rank a candidate CSV (columns id,score,protected; higher "
        "score is better) with the chosen method. Without an input file a "
        "synthetic pool of k candidates with descending scores and seeded "
        "Bernoulli(p) protected flags is generated. Output column "
        "color_blind_position locates each candidate in the pool's unconstrained "
        "order, so displacement is visible. For --method fair, --alpha is the "
        "overall target and is corrected for multiple tests unless --raw.",
        epilog=_EXIT_HELP,
    )
    s.add_argument("input", nargs="?", default=None, help="candidate CSV (omit for synthetic)")
    s.add_argument("--k", type=int, required=True, help="ranking length")
    s.add_argument("--p", type=float, default=None, help="target protected proportion")
    s.add_argument("--alpha", type=float, default=0.1, help="significance level (default 0.1)")
    s.add_argument(
        "--method",
        choices=("fair", "colorblind", "feldman"),
        default="fair",
        help="ranking method (default fair)",
    )
    s.add_argument(
        "--raw",
        action="store_true",
        help="pass --alpha straight to the per-prefix test without correction",
    )
    s.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the protected supply cannot meet the minimum counts",
    )
    s.add_argument("--seed", type=int, default=0, help="seed for the synthetic pool")
    _add_common(s)
    s.set_defaults(handler=cmd_rank)

    s = sub.add_parser(
        "simulate",
        help="Monte Carlo rejection rate of the fairness test",
        description="Generate seeded random rankings (protected flags drawn "
        "Bernoulli(p) per position) and report how often the per-prefix test "
        "at alpha_adj rejects them.",
        epilog=_EXIT_HELP,
    )
    s.add_argument("--k", type=int, required=True, help="ranking length")
    s.add_argument("--p", type=float, required=True, help="generator and test proportion")
    s.add_argument("--alpha-adj", type=float, required=True, help="per-test significance")
    s.add_argument("--trials", type=int, default=10000, help="number of rankings (default 10000)")
    s.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    _add_common(s)
    s.set_defaults(handler=cmd_simulate)

    s = sub.add_parser(
        "experiment",
        help="run the ranked-method comparison for a dataset config",
        description="Read a YAML/JSON dataset config, rank its pool with the "
        "color-blind, fairness-constrained, and quantile-repair methods across "
        "the config's p grid, and print one metrics row per (method, p).",
        epilog=_EXIT_HELP,
    )
    s.add_argument("config", help="dataset config file (.yaml/.yml/.json)")
    s.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 if any grid cell cannot meet its minimum counts",
    )
    _add_common(s)
    s.add_argument("--cache-dir", help="directory that keeps calibrations between runs")
    s.set_defaults(handler=cmd_experiment)

    s = sub.add_parser(
        "prep-xing",
        help="derive candidate scores from job-platform profile columns",
        description="Turn a profile table (columns query,id,gender,work_months,"
        "edu_months,views) into the minimum candidate schema, scoring each "
        "profile as (work_months + edu_months) * views. The table must hold "
        "a single query; pick one with --query if it holds several.",
        epilog=_EXIT_HELP,
    )
    s.add_argument("input", help="profile CSV path")
    s.add_argument("--query", default=None, help="keep only rows for this query")
    s.add_argument(
        "--protected-gender",
        default="female",
        help="gender value marking the protected group (default female)",
    )
    _add_common(s)
    s.set_defaults(handler=cmd_prep_xing)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (InfeasibleRankingError, InfeasibleAdjustmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (DataLoadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
