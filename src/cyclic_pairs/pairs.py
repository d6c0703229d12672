"""Pair analysis: intersection/sum dimensions and hulls as elementwise
max/min of exponent vectors over the factors of x^n - 1, existence of a
degree-ell divisor of x^n - 1 by bounded subset-sum over the factor
degrees, and the small-ell feasibility shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ExistenceWitness:
    n: int
    q: int
    ell: int
    feasible: bool
    multiplicity_vector: tuple[int, ...] | None  # copies per factor, factor order
    witness: Polynomial | None                   # monic degree-ell divisor

    def __bool__(self):
        return self.feasible


def exists_ell(n: int, field: Field, ell: int,
               factorization: Factorization | None = None) -> ExistenceWitness:
    """Is there a monic divisor of x^n - 1 of degree ell?

    Bounded subset-sum over the irreducible factor degrees, each usable
    0..p^nu times, with the attainable degrees held as int bitmasks; the
    witness takes the lexicographically least multiplicity vector in the
    canonical factor order.  A factorization given must be that of x^n - 1.
    """
    if not 0 <= ell <= n:
        raise ValueError(f"ell must satisfy 0 <= ell <= {n}, got {ell}")
    fac = factorization or factor_xn1(n, field)
    if fac.n != n or fac.field is not field:
        raise ValueError(f"the factorization is not of x^{n} - 1 over {field!r}")
    degrees = [e.poly.degree for e in fac.factors]
    mults = [e.multiplicity for e in fac.factors]
    nf = len(degrees)
    # bit r of reach[i] is set when degree r <= ell is attainable with factors i..
    below = (1 << (ell + 1)) - 1
    reach = [0] * nf + [1]
    for i in range(nf - 1, -1, -1):
        acc = cur = reach[i + 1]
        for _ in range(mults[i]):
            cur = (cur << degrees[i]) & below
            acc |= cur
        reach[i] = acc
    if not reach[0] >> ell & 1:
        return ExistenceWitness(n, field.q, ell, False, None, None)
    vector = []
    remaining = ell
    for i in range(nf):
        for s in range(mults[i] + 1):
            rest = remaining - s * degrees[i]
            if rest >= 0 and reach[i + 1] >> rest & 1:
                vector.append(s)
                remaining = rest
                break
    return ExistenceWitness(n, field.q, ell, True, tuple(vector), fac.divisor(vector))


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
