"""Factorization of x^n - 1 over GF(q) via cyclotomic cosets.

x^n - 1 = (x^{n'} - 1)^{p^nu} with n = p^nu * n', so a length with nu >= 1
reuses the cached factors of x^{n'} - 1, each with multiplicity p^nu.
Each q-cyclotomic coset of Z_{n'} yields one irreducible factor as the
minimal polynomial of alpha^rep for a primitive n'-th root of unity alpha
living in a deterministic extension field GF(p^(m*t)), t = ord_n'(q).
alpha, and the generator of the copy of GF(q) in which the image gamma of
GF(q)'s own generator is sought, both come from ``Field.element_of_order``.
Lengths above ``MAX_LENGTH`` and degrees m*t above ``MAX_EXTENSION_DEGREE``
are refused up front.

A minimal polynomial is the first GF(q)-linear dependency among the
powers of beta = alpha^rep, found by one linear solve over GF(p) on a
table of the powers of alpha: for odd p an elimination on int64 digit
rows, for p = 2 an XOR basis on bit rows.  Those rows are the
extension's own int encodings, so the p = 2 powers and gamma-multiples
come straight from ``Field.mul``, which runs on the binary slot ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from cyclic_pairs.cyclotomic import additive_order, coset_partition, mult_order
from cyclic_pairs.fields import (MAX_EXTENSION_DEGREE, Field,
                                 FieldMismatchError, make_field)
from cyclic_pairs.poly import MAX_LENGTH, Polynomial


class CoercionError(RuntimeError):
    """A minimal polynomial has no coefficients in the base field.

    Either the given exponents are not a q-cyclotomic coset, or alpha and
    the embedding are inconsistent; factor_xn1 never raises it.
    """


def _subfield_root(base: Field, ext: Field) -> int:
    """Deterministic root of the base modulus inside the extension.

    The roots lie in the copy of GF(q) inside ext, the powers of
    w = ext.element_of_order(q - 1); the least power index wins, making
    the embedding reproducible.
    """
    w = ext.element_of_order(base.q - 1)
    # prime-field constants encode identically in ext
    modulus = Polynomial(ext, base.modulus)
    u = 1
    for _ in range(base.q - 1):
        if not modulus.evaluate(u):
            return u
        u = ext.mul(u, w)
    raise RuntimeError("base modulus has no root in the extension")


@lru_cache(maxsize=None)
def root_of_unity(field: Field, n_prime: int) -> tuple[Field, int, int]:
    """(ext, gamma, alpha) with alpha of multiplicative order n' in ext.

    ext is GF(p^(m*t)), t = ord_n'(q); a degree m*t above
    MAX_EXTENSION_DEGREE is refused with ValueError before ext is built.
    gamma, the image of the base generator (the class of x, encoded as
    p), is a root of the base modulus in ext; prime-field constants embed
    as themselves and gamma is 0.  alpha is ext.element_of_order(n'), so
    the factor labelling is implementation-independent.
    """
    t = mult_order(field.q, n_prime)
    if field.m * t > MAX_EXTENSION_DEGREE:
        raise ValueError(f"a root of unity of order {n_prime} over {field!r} needs "
                         f"GF({field.p}^{field.m * t}), past degree {MAX_EXTENSION_DEGREE}")
    if t == 1:
        ext, gamma = field, field.p if field.m > 1 else 0
    else:
        ext = make_field(field.p, field.m * t)
        gamma = _subfield_root(field, ext) if field.m > 1 else 0
    return ext, gamma, ext.element_of_order(n_prime)


@lru_cache(maxsize=1)
def _alpha_powers(field: Field, n_prime: int) -> tuple[Field, list[int] | np.ndarray, object]:
    """(ext, alpha^0 .. alpha^(n'-1), gamma), kept for every coset of one (field, n').

    For odd p the powers are GF(p) digit rows and gamma is given as the
    matrix of multiplication by it (None over a prime field).
    """
    ext, gamma, alpha = root_of_unity(field, n_prime)
    if field.p == 2:
        powers = [1]
        for _ in range(1, n_prime):
            powers.append(ext.mul(powers[-1], alpha))
        return ext, powers, gamma
    times_gamma = ext.times_matrix(gamma) if field.m > 1 else None
    return ext, ext.power_digits(alpha, n_prime), times_gamma


def _solve_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """The unique x with a @ x = b over GF(p), or None when there is none or many."""
    cols = a.shape[1]
    aug = np.concatenate([a, b[:, None]], axis=1) % p
    for c in range(cols):
        r = c + int(aug[c:, c].argmax())  # any nonzero entry will do as the pivot
        if not aug[r, c]:
            return None
        if r != c:
            aug[[c, r]] = aug[[r, c]]
        pivot = aug[c, c:] * pow(int(aug[c, c]), -1, p) % p
        aug[:, c:] = (aug[:, c:] - np.outer(aug[:, c], pivot)) % p
        aug[c, c:] = pivot
    if aug[cols:, cols].any():
        return None
    return aug[:cols, cols]


def _solve_gf2(cols: list[int], b: int) -> int | None:
    """The unique x with b = XOR of the cols[j] for the set bits j of x, or None.

    An XOR basis of the bit-row columns, keyed by leading bit, tracks which
    columns each row combines as a bitmask; as in ``_solve_mod_p``, a
    dependent column or a b outside the span gives None.
    """
    basis: dict[int, tuple[int, int]] = {}

    def reduce(v: int, mask: int) -> tuple[int, int]:
        while v and (top := v.bit_length() - 1) in basis:
            row, combo = basis[top]
            v, mask = v ^ row, mask ^ combo
        return v, mask

    for j, v in enumerate(cols):
        v, mask = reduce(v, 1 << j)
        if not v:
            return None
        basis[v.bit_length() - 1] = (v, mask)
    b, x = reduce(b, 0)
    return None if b else x


def minimal_poly(n_prime: int, field: Field, coset: tuple[int, ...]) -> Polynomial:
    """Minimal polynomial over the field of beta = alpha^j, j = coset[0].

    It is x^d + sum c_i x^i with d = |coset|, where beta^d + sum c_i beta^i
    = 0 is the one GF(q)-linear dependency among 1, beta, ..., beta^d.
    Writing c_i = sum_s c_(i,s) gamma^s turns it into one linear system
    over GF(p) in the m*d digits c_(i,s), which are the base-field
    encodings of the coefficients.  A tuple that is not a q-cyclotomic
    coset, or a system without a unique solution, raises CoercionError.
    """
    q, p, d = field.q, field.p, len(coset)
    if not coset or {coset[0] * pow(q, i, n_prime) % n_prime
                     for i in range(d)} != set(coset) or len(set(coset)) != d:
        raise CoercionError(f"{coset} is not a {q}-cyclotomic coset mod {n_prime}")
    ext, powers, action = _alpha_powers(field, n_prime)
    index = np.arange(d + 1) * coset[0] % n_prime  # of beta^0 .. beta^d
    if p == 2:  # column s*d + i is the bit row of gamma^s * beta^i
        beta = [powers[i] for i in index.tolist()]
        cols = beta[:d]
        for _ in range(1, field.m):
            cols += [ext.mul(action, c) for c in cols[-d:]]
        x = _solve_gf2(cols, beta[d])
        digits = None if x is None else np.array([x >> j & 1 for j in range(len(cols))])
    else:  # block s holds the digits of gamma^s * beta^i, i < d
        beta = powers[index]
        blocks = [beta[:d]]
        for _ in range(1, field.m):
            blocks.append(blocks[-1] @ action % p)
        digits = _solve_mod_p(np.concatenate(blocks).T, -beta[d] % p, p)
    if digits is None:
        raise CoercionError(f"alpha^{coset[0]} has no degree-{d} minimal polynomial "
                            f"over {field!r}")
    digits = digits.reshape(field.m, d)
    return Polynomial(field, [field._undigits(digits[:, i]) for i in range(d)] + [1])


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
    # DistanceReport by exponent vector, shared by every code of the cached factor_xn1;
    # one walk fills it for the whole multiplier orbit of the vector
    distances: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def divisor(self, exponents) -> Polynomial:
        """The monic divisor prod f_i^e_i of x^n - 1, e_i given in factor order.

        A divisor of x^n - 1 is its exponent vector; this is the one place
        that multiplies a whole vector out into a polynomial (the witnesses
        of ``pairs.exists_ell`` are built one factor power at a time).
        """
        out = None
        for e, entry in zip(exponents, self.factors, strict=True):
            if not 0 <= e <= entry.multiplicity:
                raise ValueError(f"exponent {e} of {entry.poly} is outside "
                                 f"0..{entry.multiplicity}")
            if e:
                power = entry.poly ** e
                out = power if out is None else out * power
        return Polynomial.one(self.field) if out is None else out

    def vector(self, g: Polynomial) -> tuple[int, ...]:
        """The exponent vector of g up to a unit, the inverse of ``divisor``.

        Found by trial division by each factor; a g that does not divide
        x^n - 1 raises ValueError.
        """
        if g.field is not self.field:
            raise FieldMismatchError(f"{g} is over {g.field!r}, not {self.field!r}")
        rest, out = g.monic(), []
        for entry in self.factors:
            e = 0
            while e < entry.multiplicity and rest.degree:
                quo, rem = divmod(rest, entry.poly)
                if not rem.is_zero():
                    break
                rest, e = quo, e + 1
            out.append(e)
        if not rest.is_one():
            raise ValueError(f"{g} does not divide x^{self.n} - 1 over {self.field!r}")
        return tuple(out)

    def degree(self, exponents) -> int:
        """Degree of the divisor with the given exponent vector."""
        return sum(e * entry.poly.degree for e, entry in zip(exponents, self.factors))

    def dual(self, exponents) -> tuple[int, ...]:
        """Exponent vector of the dual code's generator.

        The dual of <g> is generated by the reciprocal of (x^n - 1)/g, the
        multiplier a = -1 applied to it: e_i becomes mult_i - e_sigma(i).
        """
        sigma = self.multipliers[-1 % self.n_prime]
        return tuple(e.multiplicity - exponents[j] for e, j in zip(self.factors, sigma))

    @cached_property
    def multipliers(self) -> dict[int, tuple[int, ...]]:
        """sigma_a for every unit a of Z_{n'}, built on first use.

        sigma_a(i) is the factor whose coset holds a * r_i, r_i the coset
        representative of factor i.  x -> x^a (a lifted to a unit mod n)
        permutes coordinates and maps <g>, exponent vector e, to the code
        with vector (e_sigma_a(i))_i (Huffman & Pless 2003, 4.3).  a and
        a * q give the same sigma_a.
        """
        n_prime, q = self.n_prime, self.field.q
        factor_of = [0] * n_prime  # residue -> index of the factor whose coset holds it
        for i, entry in enumerate(self.factors):
            r = entry.coset_rep
            for _ in range(entry.poly.degree):  # the coset's size
                factor_of[r] = i
                r = r * q % n_prime
        reps = [entry.coset_rep for entry in self.factors]
        return {a: tuple(factor_of[a * r % n_prime] for r in reps)
                for a in range(n_prime) if gcd(a, n_prime) == 1}

    def product(self) -> Polynomial:
        return self.divisor([e.multiplicity for e in self.factors])

    def factor_degrees(self) -> tuple[int, ...]:
        return tuple(e.poly.degree for e in self.factors)


def split_length(n: int, field: Field) -> tuple[int, int]:
    """n = p^nu * n' with p not dividing n'."""
    if not 1 <= n <= MAX_LENGTH:
        raise ValueError(f"length must be in 1..{MAX_LENGTH}, got {n}")
    nu, n_prime = 0, n
    while n_prime % field.p == 0:
        n_prime //= field.p
        nu += 1
    return nu, n_prime


@lru_cache(maxsize=None)
def factor_xn1(n: int, field: Field) -> Factorization:
    """All irreducible factors of x^n - 1 over the field, with multiplicity p^nu.

    For nu >= 1 they are the factors of the cached x^n' - 1, each raised
    to multiplicity p^nu.
    """
    nu, n_prime = split_length(n, field)
    if nu:
        base = factor_xn1(n_prime, field).factors
        entries = [replace(e, multiplicity=field.p ** nu) for e in base]
    else:
        entries = sorted((FactorEntry(minimal_poly(n, field, coset), 1, coset[0],
                                      additive_order(coset[0], n))
                          for coset in coset_partition(n, field.q).cosets),
                         key=lambda e: (e.order, e.coset_rep))
    return Factorization(n, field, nu, n_prime, tuple(entries))
