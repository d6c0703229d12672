"""Pair analysis: intersection/sum dimensions and hulls as elementwise
max/min of exponent vectors over the factors of x^n - 1, existence of a
degree-ell divisor of x^n - 1 by bounded subset-sum over the factor
degrees, and the small-ell feasibility shortcuts.

The subset-sum table of one x^n - 1 answers every ell, and the witness
of each ell is a factor power times a kept witness of a smaller degree,
so both are built once for the latest factorization asked about and
reused for each ell: asked in ascending order, every ell costs one
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from cyclic_pairs.codes import DEFAULT_CAP, CyclicCode
from cyclic_pairs.cyclotomic import mult_order
from cyclic_pairs.factorization import Factorization, factor_xn1, split_length
from cyclic_pairs.fields import Field
from cyclic_pairs.poly import Polynomial


@dataclass(frozen=True)
class PairReport:
    c1: CyclicCode
    c2: CyclicCode
    ell: int                       # dim(C1 ∩ C2)
    sum_dim: int                   # dim(C1 + C2)
    intersection_generator: Polynomial
    sum_generator: Polynomial
    d1: int | None = None
    d2: int | None = None

    def render(self) -> str:
        def code_str(c, d):
            params = f"{c.n},{c.k}" if d is None else f"{c.n},{c.k},{d}"
            return f"[{params}]_{c.field.q}"
        return (f"{code_str(self.c1, self.d1)} {code_str(self.c2, self.d2)} "
                f"ell={self.ell} sum_dim={self.sum_dim}")


def pair_analyze(c1: CyclicCode, c2: CyclicCode, with_distances: bool = False,
                 cap: int = DEFAULT_CAP) -> PairReport:
    """Intersection and sum of two same-length cyclic codes.

    With a and b the exponent vectors of g1 and g2 over the factors f_i
    of x^n - 1, C1 ∩ C2 is generated by prod f_i^max(a_i, b_i), the lcm,
    and C1 + C2 by prod f_i^min(a_i, b_i), the gcd; so
    dim(C1 ∩ C2) = n - sum deg f_i * max(a_i, b_i).  Distances are
    filled only on request since they are the expensive part.
    """
    if c1.field is not c2.field:
        raise ValueError("codes live over different fields")
    if c1.n != c2.n:
        raise ValueError(f"length mismatch: {c1.n} vs {c2.n}")
    fac = factor_xn1(c1.n, c1.field)
    inter = fac.divisor(map(max, c1.vector, c2.vector))
    summ = fac.divisor(map(min, c1.vector, c2.vector))
    ell = c1.n - inter.degree
    sum_dim = c1.n - summ.degree
    d1 = d2 = None
    if with_distances:
        d1 = c1.min_distance(cap).d
        d2 = c2.min_distance(cap).d
    return PairReport(c1, c2, ell, sum_dim, inter, summ, d1, d2)


def hull_dim(c: CyclicCode) -> int:
    """Dimension of C ∩ C-dual: n - sum deg f_i * max(e_i, e-dual_i)."""
    fac = factor_xn1(c.n, c.field)
    return c.n - fac.degree(map(max, c.vector, fac.dual(c.vector)))


class ExistenceWitness(NamedTuple):
    """A tuple of its fields, true exactly when ``feasible``."""

    n: int
    q: int
    ell: int
    feasible: bool
    multiplicity_vector: tuple[int, ...] | None  # copies per factor, factor order
    witness: Polynomial | None                   # monic degree-ell divisor

    def __bool__(self):
        return self.feasible


class _DegreeSpectrum:
    """The attainable divisor degrees of one x^n - 1 and its witnesses.

    Bit r of reach[i] is set when degree r is attainable with factors i..;
    the factor degrees times their multiplicities sum to n, so one table
    with no mask answers every ell.  The greedy takes at each factor the
    fewest copies that leave an attainable rest, so it takes none before
    the first factor i whose successors cannot reach ell, then s copies of
    f_i, and continues as it would for ell - s * d, d = deg f_i.  The
    reach sets are nested, so each attainable ell > 0 is a bit of exactly
    one reach[i] & ~reach[i + 1], and that i is stop[ell], read in O(1)
    from a table built in one pass over those bits.  As s is least, for
    every 1 <= t <= s the vector of ell - t * d is that of ell with t
    fewer copies of f_i, and the witness of ell is f_i^t times the witness
    of ell - t * d.  The least t whose witness is kept is taken, else
    t = s and the same step is made for ell - s * d, which is in
    reach[i + 1] and so has its first factor past i; every witness met is
    kept.

    Asked in ascending order, ell - d has been asked before: t = 1, the
    witness is the one product f_i * W(ell - d), and the vector is that of
    ell - d with one more copy of f_i.  Asked cold, each ell is one power
    per factor taken.  A kept witness stores its link (rest, i, t),
    W(ell) = f_i^t * W(rest), and a chain stores no vector: the vector of
    an ell asked is that of the first asked ell down its links plus their
    copies, and is kept in turn.
    """

    def __init__(self, fac: Factorization):
        self.fac = fac
        self.degrees = [e.poly.degree for e in fac.factors]
        nf = len(self.degrees)
        self.reach = reach = [0] * nf + [1]
        for i in range(nf - 1, -1, -1):
            acc = cur = reach[i + 1]
            for _ in range(fac.factors[i].multiplicity):
                cur <<= self.degrees[i]
                acc |= cur
            reach[i] = acc
        # attainable ell > 0 -> the first i with ell not in reach[i + 1]
        self.stop = stop = [0] * (fac.n + 1)
        for i in range(nf):
            fresh = reach[i] & ~reach[i + 1]
            while fresh:
                low = fresh & -fresh
                stop[low.bit_length() - 1] = i
                fresh ^= low
        self.witnesses = {0: Polynomial.one(fac.field)}
        self.links: dict[int, tuple[int, int, int]] = {}  # ell -> (rest, i, t)
        self.vectors = {0: (0,) * nf}  # for the ell asked

    def witness(self, ell: int) -> tuple[tuple[int, ...], Polynomial]:
        """The lex-least exponent vector of degree ell and its divisor; ell attainable."""
        witnesses, vectors = self.witnesses, self.vectors
        if ell in witnesses:
            return self._vector(ell), witnesses[ell]
        i = self.stop[ell]
        rest = ell - self.degrees[i]
        if rest in vectors:  # the ascending step
            poly = witnesses[ell] = self.fac.factors[i].poly * witnesses[rest]
            self.links[ell] = rest, i, 1
            vector = list(vectors[rest])
            vector[i] += 1
            vector = vectors[ell] = tuple(vector)
            return vector, poly
        reach, degrees, stop, chain, asked = self.reach, self.degrees, self.stop, [], ell
        while ell not in witnesses:
            i = stop[ell]
            d, rest = degrees[i], ell - degrees[i]
            # the least t <= s whose witness is kept, else s: the least t reach[i + 1] attains
            while rest not in witnesses and not reach[i + 1] >> rest & 1:
                rest -= d
            chain.append((ell, rest, i))
            ell = rest
        poly = witnesses[ell]
        for ell, rest, i in reversed(chain):
            t = (ell - rest) // degrees[i]
            f = self.fac.factors[i].poly
            poly = witnesses[ell] = (f ** t if t > 1 else f) * poly
            self.links[ell] = rest, i, t
        return self._vector(asked), poly

    def _vector(self, ell: int) -> tuple[int, ...]:
        vectors = self.vectors
        vector = vectors.get(ell)
        if vector is None:
            rest, copies = ell, []
            while rest not in vectors:
                rest, i, t = self.links[rest]
                copies.append((i, t))
            vector = list(vectors[rest])
            for i, t in copies:
                vector[i] += t
            vector = vectors[ell] = tuple(vector)
        return vector


# one slot: the spectrum of the latest factorization asked about, compared by identity
_latest: list[_DegreeSpectrum | None] = [None]


def exists_ell(n: int, field: Field, ell: int,
               factorization: Factorization | None = None) -> ExistenceWitness:
    """Is there a monic divisor of x^n - 1 of degree ell?

    Bounded subset-sum over the irreducible factor degrees, each usable
    0..p^nu times, with the attainable degrees held as int bitmasks; the
    witness takes the lexicographically least multiplicity vector in the
    canonical factor order.  The bitmasks and the witnesses are built once
    per factorization and kept for the latest one only, so asking every
    ell of one x^n - 1 in turn builds the bitmasks once and grows each
    witness from a kept one, one product per ell in ascending order.  A
    factorization given must be that of x^n - 1.
    """
    if not 0 <= ell <= n:
        raise ValueError(f"ell must satisfy 0 <= ell <= {n}, got {ell}")
    fac = factorization or factor_xn1(n, field)
    if fac.n != n or fac.field is not field:
        raise ValueError(f"the factorization is not of x^{n} - 1 over {field!r}")
    spectrum = _latest[0]
    if spectrum is None or spectrum.fac is not fac:
        spectrum = _latest[0] = _DegreeSpectrum(fac)
    if not spectrum.reach[0] >> ell & 1:
        return ExistenceWitness(n, field.q, ell, False, None, None)
    vector, witness = spectrum.witness(ell)
    return tuple.__new__(ExistenceWitness, (n, field.q, ell, True, vector, witness))


def small_ell_predicate(n: int, field: Field, ell: int) -> tuple[bool, str]:
    """Feasibility of ell in {0, 1, 2} with the reason that settles it."""
    if ell not in (0, 1, 2):
        raise ValueError(f"ell must be 0, 1 or 2, got {ell}")
    if ell > n:
        return False, f"no degree-{ell} divisor of a degree-{n} polynomial"
    if ell == 0:
        return True, "the constant 1 is a degree-0 divisor"
    if ell == 1:
        return True, "x - 1 is a degree-1 divisor"
    nu, n_prime = split_length(n, field)
    if n % 2 == 0:
        return True, "n even: x^2 - 1 divides x^n - 1"
    if nu >= 1:
        return True, f"nu = {nu} >= 1: (x - 1)^2 divides x^n - 1"
    for d in range(1, n_prime + 1):
        if n_prime % d == 0 and mult_order(field.q, d) == 2:
            return True, f"ord_{d}({field.q}) = 2: an irreducible quadratic factor exists"
    w = exists_ell(n, field, 2)
    return w.feasible, "subset-sum over factor degrees"
