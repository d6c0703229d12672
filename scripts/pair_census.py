#!/usr/bin/env python3
"""Census of best intersection pairs for a range of lengths.

For each odd n in the range, enumerate divisor pairs of x^n - 1 over
GF(q) with the requested intersection dimension and print the top hits
by summed minimum distance -- the same ranking the `search` subcommand
uses, swept over many lengths at once.

Usage: python scripts/pair_census.py [--q 2] [--n-max 31] [--ell 0] [--top 3]
"""

import argparse

from cyclic_pairs.fields import field_from_order
from cyclic_pairs.tables import search_pairs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=31)
    ap.add_argument("--ell", type=int, default=0)
    ap.add_argument("--top", type=int, default=3)
    ap.add_argument("--min-d", type=int, default=2,
                    help="minimum distance required of both codes")
    args = ap.parse_args()
    if args.top < 0:  # a usage error, not one of the per-length refusals below
        ap.error(f"--top must be >= 0, got {args.top}")
    f = field_from_order(args.q)

    for n in range(2, args.n_max + 1):
        if n % f.p == 0:
            continue  # stick to simple-root lengths
        try:
            result = search_pairs(n, f, args.ell, min_d1=args.min_d,
                                  min_d2=args.min_d, limit=args.top)
        except ValueError as exc:  # too many divisors to list
            print(f"n={n}: refused ({exc})")
            continue
        if result.infeasible:
            print(f"n={n}: infeasible ({result.reason})")
            continue
        if not result.reports:
            note = (f" ({result.skipped_by_cap} skipped by cap)"
                    if result.skipped_by_cap else "")
            print(f"n={n}: no pairs meet the distance floor{note}")
            continue
        for r in result.reports:
            print(f"n={n}: {r.render()}  g1={r.c1.g}  g2={r.c2.g}")


if __name__ == "__main__":
    main()
