#!/usr/bin/env python3
"""Calibration tables for the multiple-test correction.

Prints the adjusted significance grid (k x p), optionally every table of a
chosen cell over a range of alpha_adj (each plateau once, with its rejection
probability), and analytic-vs-simulated rejection curves.
"""
import argparse
import sys

from fair_topk import adjust_significance, emit_curve_data
from fair_topk.adjustment import _table_rejection
from fair_topk.binomial import _Tables
from fair_topk.fairness import MTable
from fair_topk.output import _alpha_text


def grid(ks, ps, alpha):
    print(f"alpha_target={alpha}")
    header = "k      " + "".join(f"p={p:<11g}" for p in ps)
    print(header)
    for k in ks:
        cells = []
        for p in ps:
            r = adjust_significance(k, p, alpha)
            cell = _alpha_text(r.alpha_adj)
            cell = cell if r.feasible else f"({cell})"
            cells.append(f"{cell:<13}")
        print(f"{k:<7}" + "".join(cells))
    print("(parenthesized: no alpha_adj reaches the target within tolerance;")
    print(" the conservative, under-rejecting value is shown)")


def scan(k, p, alpha_lo, alpha_hi):
    """List each table built by some alpha_adj in [alpha_lo, alpha_hi] once:
    its plateau [lower, upper) and its rejection probability.  The next table
    starts where the plateau ends, and is derived from this one."""
    print(f"tables for alpha_adj in [{alpha_lo}, {alpha_hi}], k={k} p={p}")
    tables, alpha = _Tables(k, p), alpha_lo
    while alpha <= alpha_hi:
        minima, (lower, upper) = tables.at(alpha)
        r = _table_rejection(MTable(k, p, alpha, minima))
        print(f"  alpha_adj in [{lower!r}, {upper!r})  rejection={r:.6f}")
        alpha = upper


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--ks", type=int, nargs="+", default=[40, 100, 1000, 1500])
    parser.add_argument(
        "--ps", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    )
    parser.add_argument("--scan", type=int, default=None, metavar="K",
                        help="also list every table at this k for alpha_adj up to --alpha")
    parser.add_argument("--scan-p", type=float, default=0.5)
    parser.add_argument("--curves", action="store_true",
                        help="emit analytic-vs-simulated curve CSV on stdout")
    args = parser.parse_args()

    grid(args.ks, args.ps, args.alpha)
    if args.scan:
        scan(args.scan, args.scan_p, 0.001, args.alpha)
    if args.curves:
        k = args.ks[-1]
        alphas = [adjust_significance(k, p, args.alpha).alpha_adj for p in args.ps[:3]]
        emit_curve_data(k, args.ps[:3], alphas, sys.stdout, trials=2000)


if __name__ == "__main__":
    main()
