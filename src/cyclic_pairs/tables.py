"""Bundled pair-table corpus, row verification, and divisor-pair search."""

from __future__ import annotations

import importlib.resources
from bisect import insort
from dataclasses import dataclass, field as dc_field
from itertools import product
from math import prod

import numpy as np

from cyclic_pairs.codes import DEFAULT_CAP, CyclicCode
from cyclic_pairs.factorization import Factorization, factor_xn1
from cyclic_pairs.fields import Field, field_from_order
from cyclic_pairs.pairs import PairReport, pair_analyze
from cyclic_pairs.poly import Polynomial, parse_poly

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
        try:  # a count other than 7 fails the unpacking, a non-integer int()
            n, q, k1, d1, k2, d2, ell = map(int, parts[0].split())
        except ValueError:
            raise ValueError(
                f"line {lineno}: expected 7 integers before the first '|'") from None
        rows.append(TableRow(n, q, k1, d1, k2, d2, ell, parts[1], parts[2], lineno))
    return rows


def verify_row(row: TableRow, cap: int = DEFAULT_CAP) -> VerificationOutcome:
    out = VerificationOutcome(row)
    try:
        f = field_from_order(row.q)
        factor_xn1(row.n, f)  # refuses a length outside 1..MAX_LENGTH
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
        yield prod((entry.poly ** e for e, entry in zip(v, fac.factors) if e),
                   start=Polynomial.one(f))


def pair_census(fac: Factorization, ell: int) -> int:
    """The number of ordered pairs of divisors of x^n - 1, the zero code's
    generator x^n - 1 included, whose lcm has degree n - ell.

    The lcm is the elementwise max of the exponent vectors, and max(a, b) = t
    for 2t + 1 pairs (a, b), so this is the coefficient of z^(n - ell) in
    prod_i sum_{t=0..mult_i} (2t + 1) z^(t * deg f_i).
    """
    target, counts = fac.n - ell, {0: 1}
    for entry in fac.factors:
        step, nxt = entry.poly.degree, {}
        for degree, count in counts.items():
            for t in range(min(entry.multiplicity, (target - degree) // step) + 1):
                nxt[degree + t * step] = nxt.get(degree + t * step, 0) + count * (2 * t + 1)
        counts = nxt
    return counts.get(target, 0)


@dataclass
class SearchResult:
    reports: list[PairReport]
    infeasible: bool = False
    reason: str = ""
    skipped_by_cap: int = 0


# most int16 entries of one block of lcm degrees
_LCM_BLOCK = 1 << 16


def _lcm_degrees(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """deg lcm for every pair of a row of A and a row of B, rows being exponent
    vectors scaled by the factor degrees: the sum of their elementwise max."""
    out = np.zeros((len(A), len(B)), dtype=np.int16)
    col = np.empty_like(out)
    for a, b in zip(A.T, B.T):
        out += np.maximum(a[:, None], b, out=col)
    return out


def search_pairs(n: int, f: Field, ell: int, min_d1: int = 1, min_d2: int = 1,
                 limit: int = 20, cap: int = DEFAULT_CAP) -> SearchResult:
    """Ordered divisor pairs (g1, g2) of x^n - 1 with the requested
    intersection dimension and distance thresholds.

    Ranked by (d1 + d2, d1 * d2) descending with a deterministic
    coefficient-order tie-break; at most ``limit`` reports are returned.

    Divisors are handled as exponent vectors over the factors of x^n - 1:
    C1 ∩ C2 is generated by lcm(g1, g2), the elementwise max of the
    vectors, and C1 + C2 by gcd(g1, g2), the elementwise min.  A pair is
    ranked when the cap lets both its codes be enumerated; the pairs it
    does not are counted as ``skipped_by_cap``, the census of pairs with
    this ell (``pair_census``) less those of two enumerable codes.  Each
    enumerable code v with an ell-partner gets the key ub(v) + max ub(w)
    over its partners w, ub being ``Factorization.weight_bound``, and the
    codes are walked, their distances read from the factorization's
    store, in descending key.  The walk keeps one list, the ``limit`` best
    valid pairs of walked codes in ranking order, sorted by
    (-(d1 + d2), -d1 * d2, g1's coefficients, g2's coefficients); once it
    is full, the walk stops before a key below the last pair's d1 + d2: a
    pair with an unwalked code sums to at most its key, so it cannot enter
    the list, ties included, and the list is the answer.  The partners of
    every pair of enumerable codes are one boolean table, filled by the
    lcm pass that sets the keys, ``_LCM_BLOCK`` lcm degrees at a time; the
    walked code at position t reads its partners among the walked codes
    from its row at the walk order's first t + 1 columns.  A census of 0
    means no divisor has degree ell, and the result is infeasible.
    ValueError when x^n - 1 has more than MAX_SEARCH_DIVISORS divisors,
    or when ell is outside 0..n.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    fac = factor_xn1(n, f)
    mults = [e.multiplicity for e in fac.factors]
    count = prod(m + 1 for m in mults)
    if count > MAX_SEARCH_DIVISORS:
        raise ValueError(f"x^{n} - 1 has {count} divisors over {f!r}, "
                         f"more than the {MAX_SEARCH_DIVISORS} that search lists")
    if not 0 <= ell <= n:
        raise ValueError(f"ell must satisfy 0 <= ell <= {n}, got {ell}")
    # some lcm has degree n - ell exactly when some divisor has degree ell
    census = pair_census(fac, ell)
    if not census:
        return SearchResult([], infeasible=True,
                            reason=f"no monic divisor of x^{n} - 1 has degree {ell}")
    # every divisor's exponent vector, in multiplicity-lattice order
    V = np.indices([m + 1 for m in mults]).reshape(len(mults), -1).T
    scaled = (V * fac.factor_degrees()).astype(np.int16)
    k = n - scaled.sum(axis=1)
    k_max = 0  # the largest dimension whose q^k codewords the cap admits
    while k_max < n and f.q ** (k_max + 1) <= cap:
        k_max += 1
    # the nonzero codes whose distance can be enumerated
    enum = np.flatnonzero((k >= 1) & (k <= k_max))
    vectors, scaled = [tuple(v) for v in V[enum].tolist()], scaled[enum]
    ub = np.array([fac.weight_bound(v) for v in vectors], dtype=np.int64)
    # the partner table (E^2 bytes) and each code's best partner bound, -1 for none,
    # a block of rows at a time
    mates, mate_ub = np.empty((len(enum), len(enum)), dtype=bool), np.empty(len(enum), np.int64)
    rows = max(1, _LCM_BLOCK // max(1, len(enum)))
    for a in range(0, len(enum), rows):
        mates[a:a + rows] = _lcm_degrees(scaled[a:a + rows], scaled) == n - ell
        mate_ub[a:a + rows] = np.where(mates[a:a + rows], ub, -1).max(axis=1, initial=-1)
    matched = int(np.count_nonzero(mates))
    # the pairs of the zero code (dimension 0) all have ell = 0
    skipped = census - matched - (2 * count - 1 if ell == 0 else 0)
    partnered, key = np.flatnonzero(mate_ub >= 0), ub + mate_ub
    order = partnered[np.argsort(-key[partnered], kind="stable")]
    codes, dist = [], []
    top: list[tuple] = []  # the limit best valid pairs so far, in ranking order
    for new, e in enumerate(order.tolist()):
        if len(top) == limit and (not limit or key[e] < -top[-1][0]):
            break
        code = CyclicCode._from_vector(fac, vectors[e])
        codes.append(code)
        dist.append(code.min_distance(cap).d)
        for old in np.flatnonzero(mates[e, order[:new + 1]]).tolist():
            for i, j in {(new, old), (old, new)}:  # one pair when old is new
                d1, d2 = dist[i], dist[j]
                if d1 >= min_d1 and d2 >= min_d2:
                    insort(top, (-(d1 + d2), -d1 * d2,
                                 codes[i].g.coeffs, codes[j].g.coeffs, i, j))
                    del top[limit:]
    reports = [pair_analyze(codes[i], codes[j], with_distances=True, cap=cap)
               for *_, i, j in top]
    return SearchResult(reports, skipped_by_cap=skipped)
