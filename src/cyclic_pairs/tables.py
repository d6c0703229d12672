"""Bundled pair-table corpus, row verification, and divisor-pair search."""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field as dc_field
from itertools import product
from math import prod

import numpy as np

from cyclic_pairs.codes import DEFAULT_CAP, CyclicCode, EnumerationCapExceeded
from cyclic_pairs.factorization import Factorization, factor_xn1
from cyclic_pairs.fields import Field, field_from_order
from cyclic_pairs.pairs import PairReport, exists_ell, pair_analyze
from cyclic_pairs.poly import parse_poly

TABLES_RESOURCE = "binary_pair_tables.txt"

# most divisors of x^n - 1 search_pairs lists; x^63 - 1 over GF(2) has exactly this many
MAX_SEARCH_DIVISORS = 1 << 13

CHECK_NAMES = ("divisibility_c", "divisibility_d", "dim_c", "dim_d",
               "dist_c", "dist_d", "ell")


@dataclass(frozen=True)
class TableRow:
    n: int
    q: int
    k1: int
    d1: int
    k2: int
    d2: int
    ell: int
    g1_text: str
    g2_text: str
    lineno: int = 0

    def params(self) -> str:
        return (f"[{self.n},{self.k1},{self.d1}]_{self.q} "
                f"[{self.n},{self.k2},{self.d2}]_{self.q} ell={self.ell}")


@dataclass
class VerificationOutcome:
    row: TableRow
    checks: dict[str, bool] = dc_field(default_factory=dict)
    computed: dict[str, object] = dc_field(default_factory=dict)
    error: str | None = None

    @property
    def passed(self) -> bool:
        return (self.error is None
                and all(self.checks.get(name, False) for name in CHECK_NAMES))


def load_table_rows(path=None) -> list[TableRow]:
    """Read the corpus file (the bundled one when no path is given)."""
    if path is None:
        text = (importlib.resources.files("cyclic_pairs.data")
                / TABLES_RESOURCE).read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'params | g1 | g2', got {line!r}")
        head = parts[0].split()
        if len(head) != 7:
            raise ValueError(f"line {lineno}: expected 7 integers before the first '|'")
        n, q, k1, d1, k2, d2, ell = map(int, head)
        rows.append(TableRow(n, q, k1, d1, k2, d2, ell, parts[1], parts[2], lineno))
    return rows


def verify_row(row: TableRow, cap: int = DEFAULT_CAP) -> VerificationOutcome:
    out = VerificationOutcome(row)
    try:
        f = field_from_order(row.q)
        g1 = parse_poly(row.g1_text, f)
        g2 = parse_poly(row.g2_text, f)
    except ValueError as exc:
        out.error = str(exc)
        return out
    codes = []
    for name, g, k, d in (("c", g1, row.k1, row.d1), ("d", g2, row.k2, row.d2)):
        try:
            code = CyclicCode(row.n, f, g)
        except ValueError as exc:
            out.checks[f"divisibility_{name}"] = False
            out.error = str(exc)
            return out
        out.checks[f"divisibility_{name}"] = True
        out.checks[f"dim_{name}"] = code.k == k
        out.computed[f"dim_{name}"] = code.k
        dist = code.min_distance(cap).d
        out.checks[f"dist_{name}"] = dist == d
        out.computed[f"dist_{name}"] = dist
        codes.append(code)
    # the pair is unordered for the intersection check
    report = pair_analyze(codes[0], codes[1])
    out.checks["ell"] = report.ell == row.ell
    out.computed["ell"] = report.ell
    return out


@dataclass
class VerificationSummary:
    outcomes: list[VerificationOutcome]

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.passed)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def verify_table(rows: list[TableRow], cap: int = DEFAULT_CAP) -> VerificationSummary:
    return VerificationSummary([verify_row(r, cap) for r in rows])


def _exponent_vectors(fac: Factorization):
    """Every divisor of x^n - 1 as its exponent vector, in multiplicity-lattice order."""
    return product(*(range(e.multiplicity + 1) for e in fac.factors))


def all_divisors(n: int, f: Field):
    """All monic divisors of x^n - 1, in multiplicity-lattice order."""
    fac = factor_xn1(n, f)
    for v in _exponent_vectors(fac):
        yield fac.divisor(v)


@dataclass
class SearchResult:
    reports: list[PairReport]
    infeasible: bool = False
    reason: str = ""
    skipped_by_cap: int = 0


def search_pairs(n: int, f: Field, ell: int, min_d1: int = 1, min_d2: int = 1,
                 limit: int = 20, cap: int = DEFAULT_CAP) -> SearchResult:
    """Ordered divisor pairs (g1, g2) of x^n - 1 with the requested
    intersection dimension and distance thresholds.

    Ranked by (d1 + d2, d1 * d2) descending with a deterministic
    coefficient-order tie-break; at most ``limit`` reports are returned.

    Divisors are handled as exponent vectors over the factors of x^n - 1:
    C1 ∩ C2 is generated by lcm(g1, g2), the elementwise max of the
    vectors, and C1 + C2 by gcd(g1, g2), the elementwise min.  ValueError
    when x^n - 1 has more than MAX_SEARCH_DIVISORS divisors.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    fac = factor_xn1(n, f)
    count = prod(e.multiplicity + 1 for e in fac.factors)
    if count > MAX_SEARCH_DIVISORS:
        raise ValueError(f"x^{n} - 1 has {count} divisors over {f!r}, "
                         f"more than the {MAX_SEARCH_DIVISORS} that search lists")
    if not exists_ell(n, f, ell, fac):
        return SearchResult([], infeasible=True,
                            reason=f"no monic divisor of x^{n} - 1 has degree {ell}")
    degrees = fac.factor_degrees()
    # the zero code (dimension 0) cannot meet a distance threshold
    vectors = [v for v in _exponent_vectors(fac) if fac.degree(v) < n]
    codes: dict[tuple[int, ...], CyclicCode] = {}
    # kept for its None past the cap; min_distance per lookup slows n = 63 by 27 %
    dists: dict[tuple[int, ...], int | None] = {}
    skipped = 0

    def dist_for(v):
        if v not in dists:
            codes[v] = CyclicCode._from_vector(fac, v)
            try:
                dists[v] = codes[v].min_distance(cap).d
            except EnumerationCapExceeded:
                dists[v] = None
        return dists[v]

    # only the v2 whose elementwise max with v1 has dimension ell
    V = np.array(vectors)
    kept = []
    for v1 in vectors:
        for j in np.flatnonzero(n - np.maximum(V, v1) @ degrees == ell):
            v2 = vectors[j]
            d1, d2 = dist_for(v1), dist_for(v2)
            if d1 is None or d2 is None:
                skipped += 1
                continue
            if d1 < min_d1 or d2 < min_d2:
                continue
            kept.append((v1, v2, d1, d2))
    kept.sort(key=lambda t: (-(t[2] + t[3]), -(t[2] * t[3]),
                             codes[t[0]].g.coeffs, codes[t[1]].g.coeffs))
    reports = [pair_analyze(codes[v1], codes[v2], with_distances=True, cap=cap)
               for v1, v2, _, _ in kept[:limit]]
    return SearchResult(reports, skipped_by_cap=skipped)
