"""Builders for intersection pairs with a prescribed dimension.

Three engines: the L(x) construction with its guaranteed range and gcd
exactness certificate, the repeated-root variant hitting ell*s for
0 <= s <= p^nu (with convenience presets for L), and Reed-Solomon MDS
pairs for lengths dividing q - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, gt, sub

from cyclic_pairs.codes import DEFAULT_CAP, CyclicCode
from cyclic_pairs.factorization import Factorization, factor_xn1, root_of_unity
from cyclic_pairs.fields import Field, FieldMismatchError
from cyclic_pairs.pairs import PairReport, pair_analyze
from cyclic_pairs.poly import MAX_LENGTH, Polynomial


class DivisibilityError(ValueError):
    """A divisibility link in a construction precondition fails."""


# longest ambient length p^nu * n' construct_repeated builds, the bound
# factor_xn1 keeps too; its generators have degree up to that length, so
# longer ones are refused before any product
MAX_REPEATED_LENGTH = MAX_LENGTH


def _require_vector(fac: Factorization, p: Polynomial, name: str, bound,
                    link: str) -> tuple[int, ...]:
    """Exponent vector of the monic p, which must be at most ``bound`` elementwise."""
    if not p.is_monic():
        raise DivisibilityError(f"{name} must be monic, got {p}")
    try:
        v = fac.vector(p)
    except FieldMismatchError:
        raise
    except ValueError:
        v = None
    if v is None or any(map(gt, v, bound)):
        raise DivisibilityError(f"precondition violated: {link} ({name} = {p})")
    return v


@dataclass(frozen=True)
class ConstructionResult:
    c1: CyclicCode
    c2: CyclicCode
    target_ell: int
    guaranteed_range: tuple[int, int]     # inclusive [lo, hi]
    exact: bool                           # gcd condition certifies lo = hi = target
    measured_ell: int
    report: PairReport
    alpha: int | None = None              # root of unity used by the MDS builder

    def __post_init__(self):
        lo, hi = self.guaranteed_range
        if not lo <= self.measured_ell <= hi:
            raise AssertionError(
                f"measured intersection {self.measured_ell} outside guaranteed [{lo}, {hi}]")
        if self.exact and self.measured_ell != self.target_ell:
            raise AssertionError(
                f"exactness certificate broken: measured {self.measured_ell}, "
                f"target {self.target_ell}")


def construct_L(n: int, field: Field, L: Polynomial, g1: Polynomial,
                g2: Polynomial) -> ConstructionResult:
    """Pair (g1, g2*(x^n-1)/(L*g1)) with intersection in [deg L, deg L + deg g1].

    Requires L | x^n - 1, g1 | (x^n - 1)/L and g2 | g1; the intersection
    dimension equals deg L exactly when gcd(g1, (x^n-1)/(L*g1)) = 1.
    All three are checked on exponent vectors over the factors of x^n - 1:
    v_L + v_g1 <= mult, v_g2 <= v_g1, and the gcd is min(v_g1, v_cofactor).
    """
    fac = factor_xn1(n, field)
    mult = [e.multiplicity for e in fac.factors]
    vL = _require_vector(fac, L, "L", mult, "L | x^n - 1")
    v1 = _require_vector(fac, g1, "g1", list(map(sub, mult, vL)), "g1 | (x^n - 1)/L")
    v2 = _require_vector(fac, g2, "g2", v1, "g2 | g1")
    cofactor = [m - a - b for m, a, b in zip(mult, vL, v1)]
    ell = L.degree
    c1 = CyclicCode._from_vector(fac, v1)
    c2 = CyclicCode._from_vector(fac, list(map(add, v2, cofactor)))
    exact = not any(map(min, v1, cofactor))
    report = pair_analyze(c1, c2)
    return ConstructionResult(c1, c2, ell, (ell, ell + g1.degree), exact,
                              report.ell, report)


def construct_repeated(n_prime: int, field: Field, L: Polynomial, g1: Polynomial,
                       g2: Polynomial, s: int, nu: int) -> ConstructionResult:
    """Repeated-root pair with intersection dimension exactly deg(L) * s.

    Works at ambient length n = p^nu * n' with p not dividing n':
    c1 = <g1^(p^nu)>, c2 = <g2 * (x^n - 1)/(L^s * g1^(p^nu))> for any
    0 <= s <= p^nu; L | x^{n'} - 1, g1 | (x^{n'} - 1)/L, g2 | g1^(p^nu).
    n above MAX_REPEATED_LENGTH (4096) is refused with ValueError.  The
    factors of x^n - 1 are those of x^{n'} - 1 with multiplicity p^nu, so
    the links are checked on exponent vectors, those of L and g1 at most 1.
    """
    if n_prime < 1:
        raise ValueError(f"n' must be >= 1, got {n_prime}")
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu}")
    # p^nu >= 2^nu, so a nu this large is refused before p^nu is computed
    if (nu >= MAX_REPEATED_LENGTH.bit_length()
            or n_prime * field.p ** nu > MAX_REPEATED_LENGTH):
        raise ValueError(f"length p^nu * n' = {field.p}^{nu} * {n_prime} exceeds "
                         f"{MAX_REPEATED_LENGTH}")
    if n_prime % field.p == 0:
        raise DivisibilityError(f"n' = {n_prime} must be coprime to p = {field.p}")
    pnu = field.p ** nu
    if not 0 <= s <= pnu:
        raise ValueError(f"s must satisfy 0 <= s <= p^nu = {pnu}, got {s}")
    fac = factor_xn1(pnu * n_prime, field)
    ones = [1] * len(fac.factors)
    vL = _require_vector(fac, L, "L", ones, "L | x^{n'} - 1")
    v1 = _require_vector(fac, g1, "g1", list(map(sub, ones, vL)), "g1 | (x^{n'} - 1)/L")
    v1 = [pnu * e for e in v1]
    v2 = _require_vector(fac, g2, "g2", v1, "g2 | g1^(p^nu)")
    target = L.degree * s
    c1 = CyclicCode._from_vector(fac, v1)
    c2 = CyclicCode._from_vector(fac, [b + pnu - s * a - c for a, b, c in zip(vL, v2, v1)])
    report = pair_analyze(c1, c2)
    return ConstructionResult(c1, c2, target, (target, target), True,
                              report.ell, report)


def construct_zero_intersection(n_prime: int, field: Field, g1: Polynomial,
                                g2: Polynomial, nu: int) -> ConstructionResult:
    """Preset L = 1: a 0-intersection pair."""
    return construct_repeated(n_prime, field, Polynomial.one(field), g1, g2, 1, nu)


def construct_s_intersection(n_prime: int, field: Field, g1: Polynomial,
                             g2: Polynomial, s: int, nu: int) -> ConstructionResult:
    """Preset L = x - 1: an s-intersection pair, 0 <= s <= p^nu."""
    L = Polynomial(field, (field.neg(1), 1))
    return construct_repeated(n_prime, field, L, g1, g2, s, nu)


def construct_even_2s(n_prime: int, field: Field, g1: Polynomial,
                      g2: Polynomial, s: int, nu: int) -> ConstructionResult:
    """Preset L = x^2 - 1 (n' even): a 2s-intersection pair."""
    if n_prime % 2 != 0:
        raise DivisibilityError(f"n' = {n_prime} must be even for L = x^2 - 1")
    L = Polynomial(field, (field.neg(1), 0, 1))
    return construct_repeated(n_prime, field, L, g1, g2, s, nu)


def construct_quadratic_2s(n_prime: int, field: Field, g1: Polynomial,
                           g2: Polynomial, s: int, nu: int) -> ConstructionResult:
    """Preset L = the first irreducible quadratic factor of x^{n'} - 1."""
    fac = factor_xn1(n_prime, field)
    for entry in fac.factors:
        if entry.poly.degree == 2:
            return construct_repeated(n_prime, field, entry.poly, g1, g2, s, nu)
    raise DivisibilityError(
        f"x^{n_prime} - 1 has no irreducible quadratic factor over {field!r}")


def construct_mds(field: Field, n: int, k1: int, k2: int, ell: int,
                  with_distances: bool = False,
                  cap: int = DEFAULT_CAP) -> ConstructionResult:
    """Reed-Solomon ell-intersection pair of [n,k1] and [n,k2] MDS codes.

    Roots of g1 are alpha^0..alpha^(n-k1-1) and roots of g2 are
    alpha^(k2-ell)..alpha^(n-ell-1) for a deterministic alpha of order
    n | q - 1; needs 0 <= ell <= k1 <= k2 <= n and k1 + k2 - ell <= n.
    """
    if n < 1:
        raise ValueError(f"length n must be >= 1, got {n}")
    if not 0 <= ell <= k1 <= k2 <= n:
        raise ValueError(f"need 0 <= ell <= k1 <= k2 <= n, got {(ell, k1, k2, n)}")
    if k1 + k2 - ell > n:
        raise ValueError(f"need k1 + k2 - ell <= n, got {k1} + {k2} - {ell} > {n}")
    if (field.q - 1) % n != 0:
        raise ValueError(f"n = {n} does not divide q - 1 = {field.q - 1}")
    alpha = root_of_unity(field, n)[2]  # t = 1: alpha lies in the field itself
    # the cosets are singletons, and the factor of coset {i} is x - alpha^i
    fac = factor_xn1(n, field)
    reps = [e.coset_rep for e in fac.factors]
    c1 = CyclicCode._from_vector(fac, [int(i < n - k1) for i in reps])
    c2 = CyclicCode._from_vector(fac, [int(k2 - ell <= i < n - ell) for i in reps])
    report = pair_analyze(c1, c2, with_distances=with_distances, cap=cap)
    return ConstructionResult(c1, c2, ell, (ell, ell), True, report.ell, report,
                              alpha=alpha)
