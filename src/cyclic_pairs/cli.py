"""Command-line front end.

Subcommands: factor, cosets, code, pair, exists, construct, search,
verify-tables.  Exit codes: 0 all good, 1 verification failure,
2 usage/parse error, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from cyclic_pairs.codes import DEFAULT_CAP, CyclicCode, EnumerationCapExceeded
from cyclic_pairs.constructions import (construct_L, construct_mds,
                                        construct_repeated)
from cyclic_pairs.cyclotomic import additive_order, coset_partition
from cyclic_pairs.factorization import factor_xn1, split_length
from cyclic_pairs.fields import field_from_order
from cyclic_pairs.pairs import exists_ell, pair_analyze
from cyclic_pairs.poly import parse_poly
from cyclic_pairs.tables import load_table_rows, search_pairs, verify_table

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3

CSV_HEADER = ["n", "q", "k1", "d1", "g1", "k2", "d2", "g2", "ell"]


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_globals(parser, suppress: bool) -> None:
    # on subparsers the defaults are suppressed so values given before
    # the subcommand are not clobbered
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--q", type=int, **({"default": 2} if not suppress else kw),
                        help="field order (prime power, default 2)")
    parser.add_argument("--json", action="store_true", **kw, help="emit JSON")
    parser.add_argument("--cap", type=_non_negative,
                        **({"default": DEFAULT_CAP} if not suppress else kw),
                        help="largest code, in codewords, whose distance is "
                             "computed or reused")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic-pairs",
        description="Construct, analyze and verify intersection pairs of cyclic codes.")
    _add_globals(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_globals(p, suppress=True)
        return p

    p = add_parser("factor", help="factor x^n - 1 into irreducibles")
    p.add_argument("--n", type=int, required=True)

    p = add_parser("cosets", help="q-cyclotomic cosets of Z_{n'}")
    p.add_argument("--n", type=int, required=True)

    p = add_parser("code", help="build one cyclic code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", required=True, help="generator polynomial")
    p.add_argument("--min-distance", action="store_true")
    p.add_argument("--dual", action="store_true")

    p = add_parser("pair", help="analyze a pair of cyclic codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--distances", action="store_true")

    p = add_parser("exists", help="existence of a degree-ell divisor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)

    p = add_parser("construct", help="build a pair by a construction")
    p.add_argument("--mode", choices=["L", "repeated", "mds"], required=True)
    p.add_argument("--n", type=int, help="length (mode L, mds)")
    p.add_argument("--n-prime", type=int, help="simple-root length n' (mode repeated)")
    p.add_argument("--nu", type=int, help="nu with n = p^nu n' (mode repeated, default 0)")
    p.add_argument("--L", help="monic divisor L(x)")
    p.add_argument("--g1")
    p.add_argument("--g2")
    p.add_argument("--s", type=int, help="mode repeated, default 1")
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--distances", action="store_true")

    p = add_parser("search", help="enumerate divisor pairs for a target ell")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--min-d1", type=int, default=1)
    p.add_argument("--min-d2", type=int, default=1)
    p.add_argument("--limit", type=_non_negative, default=20)
    p.add_argument("--csv", action="store_true", help="CSV output")

    p = add_parser("verify-tables", help="verify the bundled (or given) pair tables")
    p.add_argument("--file", help="corpus file; default: bundled tables")

    return parser


def _pair_json(report, exact=None, construction=None):
    out = {
        "n": report.c1.n,
        "q": report.c1.field.q,
        "codes": [{"k": c.k, "d": d, "g": str(c.g)}
                  for c, d in ((report.c1, report.d1), (report.c2, report.d2))],
        "ell": report.ell,
        "sum_dim": report.sum_dim,
    }
    if exact is not None:
        out["exact"] = exact
    if construction is not None:
        out["construction"] = construction
    return out


def cmd_factor(args, field) -> int:
    fac = factor_xn1(args.n, field)
    if args.json:
        print(json.dumps({
            "n": fac.n, "q": field.q, "nu": fac.nu, "n_prime": fac.n_prime,
            "factors": [{"poly": str(e.poly), "multiplicity": e.multiplicity,
                         "coset_rep": e.coset_rep, "d": e.order}
                        for e in fac.factors]}))
        return EXIT_OK
    print(f"{fac.n} {field.q} {fac.nu} {fac.n_prime}")
    for e in fac.factors:
        print(f"{e.poly} ^ {e.multiplicity}  coset_rep={e.coset_rep} d={e.order}")
    return EXIT_OK


def cmd_cosets(args, field) -> int:
    nu, n_prime = split_length(args.n, field)
    part = coset_partition(n_prime, field.q)
    if args.json:
        print(json.dumps({
            "n_prime": part.n_prime, "q": part.q,
            "cosets": [{"rep": c[0], "d": additive_order(c[0], n_prime),
                        "size": len(c), "members": list(c)}
                       for c in part.cosets]}))
        return EXIT_OK
    if nu:
        print(f"# n = {args.n} = {field.p}^{nu} * {n_prime}; cosets of Z_{n_prime}")
    for c in part.cosets:
        d = additive_order(c[0], n_prime)
        members = "{" + ",".join(map(str, c)) + "}"
        print(f"{c[0]} {d} {len(c)} {members}")
    return EXIT_OK


def cmd_code(args, field) -> int:
    code = CyclicCode(args.n, field, parse_poly(args.g, field))
    if args.dual:
        code = code.dual()
    d = code.min_distance(args.cap).d if args.min_distance else None
    if args.json:
        print(json.dumps({"n": code.n, "q": field.q, "k": code.k, "d": d,
                          "g": str(code.g)}))
        return EXIT_OK
    params = f"{code.n},{code.k}" if d is None else f"{code.n},{code.k},{d}"
    print(f"[{params}]_{field.q} g={code.g}")
    return EXIT_OK


def cmd_pair(args, field) -> int:
    c1 = CyclicCode(args.n, field, parse_poly(args.g1, field))
    c2 = CyclicCode(args.n, field, parse_poly(args.g2, field))
    report = pair_analyze(c1, c2, with_distances=args.distances, cap=args.cap)
    if args.json:
        print(json.dumps(_pair_json(report)))
        return EXIT_OK
    print(report.render())
    return EXIT_OK


def cmd_exists(args, field) -> int:
    w = exists_ell(args.n, field, args.ell)
    if args.json:
        print(json.dumps({
            "n": w.n, "q": w.q, "ell": w.ell, "feasible": w.feasible,
            "multiplicity_vector": list(w.multiplicity_vector) if w.feasible else None,
            "witness": str(w.witness) if w.feasible else None}))
        return EXIT_OK
    print(f"feasible witness={w.witness}" if w.feasible else "infeasible")
    return EXIT_OK


def cmd_construct(args, field) -> int:
    # the flags each mode reads, with their defaults (None: required)
    modes = {"L": dict.fromkeys(("n", "L", "g1", "g2")),
             "repeated": {**dict.fromkeys(("n_prime", "L", "g1", "g2")), "s": 1, "nu": 0},
             "mds": dict.fromkeys(("n", "k1", "k2", "ell"))}
    for name, default in modes[args.mode].items():
        if getattr(args, name) is None:
            if default is None:
                raise ValueError(f"--{name.replace('_', '-')} is required for --mode {args.mode}")
            setattr(args, name, default)
    for name in (name for flags in modes.values() for name in flags):
        if name not in modes[args.mode] and getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --mode {args.mode}")
    if args.mode == "mds":
        result = construct_mds(field, args.n, args.k1, args.k2, args.ell)
        info = {"mode": "mds", "alpha": result.alpha}
    else:
        L, g1, g2 = (parse_poly(text, field) for text in (args.L, args.g1, args.g2))
        if args.mode == "L":
            result = construct_L(args.n, field, L, g1, g2)
            info = {"mode": "L", "L": args.L}
        else:
            result = construct_repeated(args.n_prime, field, L, g1, g2, args.s, args.nu)
            info = {"mode": "repeated", "L": args.L, "s": args.s, "nu": args.nu}
    report = (pair_analyze(result.c1, result.c2, with_distances=True, cap=args.cap)
              if args.distances else result.report)
    lo, hi = result.guaranteed_range
    info.update({"target_ell": result.target_ell, "range": [lo, hi],
                 "measured_ell": result.measured_ell})
    if args.json:
        print(json.dumps(_pair_json(report, exact=result.exact, construction=info)))
        return EXIT_OK
    cert = ("exact" if result.exact
            else f"range [{lo},{hi}], measured {result.measured_ell}")
    print(f"{report.render()} target_ell={result.target_ell} {cert}")
    return EXIT_OK


def cmd_search(args, field) -> int:
    if args.csv and args.json:
        raise ValueError("--csv and --json cannot be combined")
    result = search_pairs(args.n, field, args.ell, args.min_d1, args.min_d2,
                          args.limit, args.cap)
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_HEADER)
        for r in result.reports:
            writer.writerow([r.c1.n, field.q, r.c1.k, r.d1, str(r.c1.g),
                             r.c2.k, r.d2, str(r.c2.g), r.ell])
        return EXIT_OK
    if args.json:
        print(json.dumps({
            "n": args.n, "q": field.q, "ell": args.ell,
            "infeasible": result.infeasible, "reason": result.reason,
            "skipped_by_cap": result.skipped_by_cap,
            "pairs": [_pair_json(r) for r in result.reports]}))
        return EXIT_OK
    if result.infeasible:
        print(f"infeasible: {result.reason}")
        return EXIT_OK
    for r in result.reports:
        print(r.render())
    if result.skipped_by_cap:
        print(f"# {result.skipped_by_cap} pairs skipped by the enumeration cap",
              file=sys.stderr)
    return EXIT_OK


def cmd_verify_tables(args, field) -> int:
    rows = load_table_rows(args.file)
    summary = verify_table(rows, cap=args.cap)
    if args.json:
        print(json.dumps({
            "rows": [{"line": o.row.lineno, "params": o.row.params(),
                      "passed": o.passed, "checks": o.checks,
                      "computed": {k: v for k, v in o.computed.items()},
                      "error": o.error}
                     for o in summary.outcomes],
            "passed": summary.passed, "failed": summary.failed}))
    else:
        for o in summary.outcomes:
            status = "PASS" if o.passed else "FAIL"
            detail = ""
            if not o.passed:
                bad = [name for name in o.checks if not o.checks[name]]
                detail = f"  failed={','.join(bad)} computed={o.computed}"
                if o.error:
                    detail += f" error={o.error}"
            print(f"{status} {o.row.params()}{detail}")
        print(f"# {summary.passed} passed, {summary.failed} failed")
    return EXIT_OK if summary.all_passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "factor": cmd_factor,
    "cosets": cmd_cosets,
    "code": cmd_code,
    "pair": cmd_pair,
    "exists": cmd_exists,
    "construct": cmd_construct,
    "search": cmd_search,
    "verify-tables": cmd_verify_tables,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        field = field_from_order(args.q)
        return _COMMANDS[args.command](args, field)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
