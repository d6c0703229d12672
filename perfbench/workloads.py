"""The benchmark's workloads: populations, one item's call, output checks.

Each workload runs its whole population in an order drawn from the seed,
so every seed does the same work and the per-item digests in
``digests.json`` apply to every seed.  Why each workload exists is in
README.md beside this file.

* factor-sweep: every (n, q) with n in [1, 64] and q in {2, 3, 4, 5, 8, 9};
  one item factors x^n - 1 and asks ``exists_ell`` for every ell in [0, n].
* pair-search: binary ``search_pairs`` with min distances 2: ell = 0 at
  n = 31 (skips pairs at the default cap) and every ell at n = 21 (the
  same 64 divisors recur across calls).
* mds-sweep: ``construct_mds`` with distances for q in {7, 8, 9, 11},
  every n | q - 1 and every feasible (k1, k2, ell) with q^k2 <= 2^20.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("factor-sweep", "pair-search", "mds-sweep")

FACTOR_QS = (2, 3, 4, 5, 8, 9)
FACTOR_MAX_N = 64
PAIR_LARGE = (31, 0)
PAIR_N = 21
PAIR_MIN_D = 2
MDS_QS = (7, 8, 9, 11)
MDS_MAX_CODEWORDS = 1 << 20


def population(workload: str) -> list[tuple[int, ...]]:
    if workload == "factor-sweep":
        return [(n, q) for q in FACTOR_QS for n in range(1, FACTOR_MAX_N + 1)]
    if workload == "pair-search":
        return [PAIR_LARGE] + [(PAIR_N, ell) for ell in range(PAIR_N + 1)]
    if workload == "mds-sweep":
        return [(q, n, k1, k2, ell)
                for q in MDS_QS
                for n in range(2, q) if (q - 1) % n == 0
                for k1 in range(1, n + 1)
                for k2 in range(k1, n + 1) if q ** k2 <= MDS_MAX_CODEWORDS
                for ell in range(max(0, k1 + k2 - n), k1 + 1)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def draw(workload: str, seed: int) -> list[tuple[int, ...]]:
    """The population in the order the seed draws."""
    items = population(workload)
    random.Random(seed).shuffle(items)
    return items


def item_key(item) -> str:
    return ",".join(map(str, item))


def run_item(cp, workload: str, item):
    """One user-facing request; ``cp`` is the cyclic_pairs package."""
    if workload == "factor-sweep":
        n, q = item
        f = cp.field_from_order(q)
        fac = cp.factor_xn1(n, f)
        return fac, [cp.exists_ell(n, f, ell, fac) for ell in range(n + 1)]
    if workload == "pair-search":
        n, ell = item
        return cp.search_pairs(n, cp.field_from_order(2), ell,
                               min_d1=PAIR_MIN_D, min_d2=PAIR_MIN_D)
    q, n, k1, k2, ell = item
    return cp.construct_mds(cp.field_from_order(q), n, k1, k2, ell, with_distances=True)


def _search_key(r):
    # the ranking documented by search_pairs
    return (-(r.d1 + r.d2), -(r.d1 * r.d2), r.c1.g.coeffs, r.c2.g.coeffs)


def check_item(cp, workload: str, item, out) -> list[str]:
    """Invariants every output must meet; an empty list means none failed."""
    problems = []
    if workload == "factor-sweep":
        n, q = item
        fac, witnesses = out
        f = cp.field_from_order(q)
        if fac.product() != cp.xn_minus_1(f, n):
            problems.append("product of the factors is not x^n - 1")
        for ell, w in enumerate(witnesses):
            if w.ell != ell:
                problems.append(f"witness for ell={ell} reports ell={w.ell}")
            elif w.feasible and (w.witness.degree != ell or not w.witness.is_monic()):
                problems.append(f"witness for ell={ell} is not a monic degree-ell divisor")
    elif workload == "pair-search":
        n, ell = item
        reports = out.reports
        if [_search_key(r) for r in reports] != sorted(_search_key(r) for r in reports):
            problems.append("reports are not in ranking order")
        for r in reports:
            if r.ell != ell or r.d1 < PAIR_MIN_D or r.d2 < PAIR_MIN_D:
                problems.append(f"report {r.render()} misses ell={ell} or min_d={PAIR_MIN_D}")
    else:
        q, n, k1, k2, ell = item
        rep = out.report
        if out.measured_ell != ell:
            problems.append(f"measured ell {out.measured_ell} != {ell}")
        if (rep.d1, rep.d2) != (n - k1 + 1, n - k2 + 1):
            problems.append(f"distances ({rep.d1}, {rep.d2}) are not n - k + 1")
    return problems


def canonical(workload: str, out) -> str:
    """Text of the full output whose digest pins it byte for byte."""
    if workload == "factor-sweep":
        fac, witnesses = out
        parts = [f"{e.poly.coeffs}|{e.multiplicity}|{e.coset_rep}|{e.order}"
                 for e in fac.factors]
        parts += [f"{w.ell}:{w.feasible}:{w.multiplicity_vector}" for w in witnesses]
    elif workload == "pair-search":
        parts = [f"{out.infeasible}|{out.skipped_by_cap}"]
        parts += [f"{r.c1.g.coeffs}|{r.c2.g.coeffs}|{r.c1.k},{r.d1},{r.c2.k},{r.d2}|"
                  f"{r.ell}|{r.sum_dim}" for r in out.reports]
    else:
        rep = out.report
        parts = [f"{out.c1.g.coeffs}|{out.c2.g.coeffs}|{rep.d1},{rep.d2}|"
                 f"{out.measured_ell}|{out.alpha}"]
    return "\n".join(parts)


def digest(workload: str, out) -> str:
    return hashlib.sha256(canonical(workload, out).encode()).hexdigest()[:16]
