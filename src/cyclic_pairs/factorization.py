"""Factorization of x^n - 1 over GF(q) via cyclotomic cosets.

x^n - 1 = (x^{n'} - 1)^{p^nu} with n = p^nu * n', and each q-cyclotomic
coset of Z_{n'} yields one irreducible factor as the minimal polynomial
of alpha^rep for a primitive n'-th root of unity alpha living in a
deterministic extension field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from cyclic_pairs.cyclotomic import (additive_order, coset_partition,
                                     mult_order)
from cyclic_pairs.fields import Field, make_field
from cyclic_pairs.poly import Polynomial


class CoercionError(RuntimeError):
    """A minimal-polynomial coefficient escaped the base field.

    This signals an internal inconsistency (wrong alpha or embedding),
    never bad user input.
    """


@dataclass(frozen=True)
class FieldEmbedding:
    """Embedding of GF(q) = GF(p^m) into an extension GF(p^(m*t)).

    The base generator (the class of x, encoded as the integer p) maps
    to ``gen_image``, a root of the base modulus in the extension;
    prime fields embed canonically as constants.
    """

    base: Field
    ext: Field
    gen_image: int

    def embed(self, v: int) -> int:
        base, ext = self.base, self.ext
        if base is ext:
            return v
        if base.m == 1:
            return v  # constants encode identically
        acc, power = 0, 1
        while v:
            v, digit = divmod(v, base.p)
            if digit:
                acc = ext.add(acc, ext.mul(digit, power))
            power = ext.mul(power, self.gen_image)
        return acc

    @property
    def section(self) -> dict[int, int]:
        return _embedding_section(self)


@lru_cache(maxsize=None)
def _embedding_section(emb: FieldEmbedding) -> dict[int, int]:
    return {emb.embed(v): v for v in range(emb.base.q)}


def _subfield_root(base: Field, ext: Field) -> int:
    """Deterministic root of the base modulus inside the extension.

    The roots lie in the copy of GF(q) inside ext, enumerated as powers
    of an element of multiplicative order q - 1; the least power index
    wins, making the embedding reproducible.
    """
    q = base.q
    target = (ext.q - 1) // (q - 1)
    for beta in range(2, ext.q):
        w = ext.pow(beta, target)
        if w == 1:
            continue
        if _mult_order_exact(ext, w, q - 1):
            break
    else:
        raise RuntimeError("no generator of the subfield found")
    mod_poly = base.modulus
    u = 1
    for _ in range(q - 1):
        # evaluate the base modulus at u; coefficients are prime-field constants
        acc = 0
        for c in reversed(mod_poly):
            acc = ext.add(ext.mul(acc, u), c)
        if acc == 0:
            return u
        u = ext.mul(u, w)
    raise RuntimeError("base modulus has no root in the extension")


def _mult_order_exact(f: Field, a: int, n: int) -> bool:
    """True when a has multiplicative order exactly n (a^n is known to be 1)."""
    if f.pow(a, n) != 1:
        return False
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            if f.pow(a, n // d) == 1:
                return False
            while m % d == 0:
                m //= d
        d += 1
    if m > 1 and f.pow(a, n // m) == 1:
        return False
    return True


@lru_cache(maxsize=None)
def root_of_unity(field: Field, n_prime: int) -> tuple[Field, FieldEmbedding, int]:
    """(extension, embedding, alpha) with alpha of multiplicative order n'.

    alpha is the first gamma = beta^((Q-1)/n') of exact order n' with
    beta ranging over nonzero extension elements in ascending canonical
    order, so the factor labelling is implementation-independent.
    """
    t = mult_order(field.q, n_prime)
    if t == 1:
        ext = field
        emb = FieldEmbedding(field, field, 0 if field.m == 1 else field.p)
    else:
        ext = make_field(field.p, field.m * t, order_bound=None)
        emb = FieldEmbedding(field, ext,
                             _subfield_root(field, ext) if field.m > 1 else 0)
    if n_prime == 1:
        return ext, emb, 1
    cofactor = (ext.q - 1) // n_prime
    for beta in range(1, ext.q):
        gamma = ext.pow(beta, cofactor)
        if _mult_order_exact(ext, gamma, n_prime):
            return ext, emb, gamma
    raise RuntimeError(f"no element of order {n_prime} in {ext!r}")


def minimal_poly(n_prime: int, field: Field, coset: tuple[int, ...]) -> Polynomial:
    """Product over the coset of (x - alpha^j), coerced to the base field."""
    ext, emb, alpha = root_of_unity(field, n_prime)
    # coefficients of prod (x - alpha^j), ascending, in the extension field
    coeffs = [1]
    for j in coset:
        root = ext.pow(alpha, j)
        coeffs.append(1)
        for i in range(len(coeffs) - 2, -1, -1):
            below = coeffs[i - 1] if i > 0 else 0
            coeffs[i] = ext.sub(below, ext.mul(coeffs[i], root))
    section = emb.section if field is not ext else None
    out = []
    for c in coeffs:
        if section is None:
            out.append(c)
        else:
            if ext.pow(c, field.q) != c:
                raise CoercionError(
                    f"coefficient {c} not fixed by the order-{field.q} Frobenius")
            if c not in section:
                raise CoercionError(f"coefficient {c} outside the embedded base field")
            out.append(section[c])
    return Polynomial(field, out)


@dataclass(frozen=True)
class FactorEntry:
    poly: Polynomial
    multiplicity: int
    coset_rep: int
    order: int  # additive order d of the source coset


@dataclass(frozen=True)
class Factorization:
    n: int
    field: Field
    nu: int
    n_prime: int
    factors: tuple[FactorEntry, ...]  # ordered by (order d, coset representative)

    def divisor(self, exponents) -> Polynomial:
        """The monic divisor prod f_i^e_i of x^n - 1, e_i given in factor order.

        A divisor of x^n - 1 is its exponent vector; this is the one place
        that multiplies the vector out into a polynomial.
        """
        out = Polynomial.one(self.field)
        for e, entry in zip(exponents, self.factors, strict=True):
            if not 0 <= e <= entry.multiplicity:
                raise ValueError(f"exponent {e} of {entry.poly} is outside "
                                 f"0..{entry.multiplicity}")
            if e:
                out = out * entry.poly ** e
        return out

    def product(self) -> Polynomial:
        return self.divisor([e.multiplicity for e in self.factors])

    def factor_degrees(self) -> tuple[int, ...]:
        return tuple(e.poly.degree for e in self.factors)


def split_length(n: int, field: Field) -> tuple[int, int]:
    """n = p^nu * n' with p not dividing n'."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    nu, n_prime = 0, n
    while n_prime % field.p == 0:
        n_prime //= field.p
        nu += 1
    return nu, n_prime


@lru_cache(maxsize=None)
def factor_xn1(n: int, field: Field) -> Factorization:
    """All irreducible factors of x^n - 1 over the field, with multiplicity p^nu."""
    nu, n_prime = split_length(n, field)
    mult = field.p ** nu
    partition = coset_partition(n_prime, field.q)
    entries = []
    for coset in partition.cosets:
        f = minimal_poly(n_prime, field, coset)
        entries.append(FactorEntry(f, mult, coset[0],
                                   additive_order(coset[0], n_prime)))
    entries.sort(key=lambda e: (e.order, e.coset_rep))
    return Factorization(n, field, nu, n_prime, tuple(entries))
