"""Factorization of x^n - 1 over GF(q) via cyclotomic cosets.

x^n - 1 = (x^{n'} - 1)^{p^nu} with n = p^nu * n', so a length with nu >= 1
reuses the cached factors of x^{n'} - 1, each with multiplicity p^nu.
Each q-cyclotomic coset of Z_{n'} yields one irreducible factor, the
minimal polynomial of alpha^rep for a primitive n'-th root of unity alpha.
A full coset, every residue of additive order d (|coset| = phi(d), that
is ord_d(q) = phi(d)), has the cyclotomic polynomial Phi_d reduced mod p
as its factor (Lidl & Niederreiter, Finite Fields, Thm 2.47), computed
over Z with no root of unity and kept mod p per (d, p); coset {0} is
full, with Phi_1 = x - 1.  Every other coset is solved by ``minimal_poly``
in a deterministic extension field GF(p^(m*t)), t = ord_n'(q), so a
length whose cosets are all full builds no extension field.  When t > 1,
the cosets c*C, c = +-p^i (i < m, q = p^m), share one factor up to the
automorphism sigma: a -> a^p of GF(q) and a reciprocal: x -> x^p maps
the roots of M_C onto those of M_pC, so M_pC = sigma(M_C), and the roots
of M_-C are the inverses of M_C's, so M_-C is its monic reciprocal
(ibid., ch. 2-3).  Only the coset of least representative among them is
solved; each other one is derived from one before it with the lookup
lists Berlekamp-Massey read.  ``factor_xn1`` and then the trace table of the
same (n', q) read one kept ``coset_partition``.  alpha, and the
generator of the copy of GF(q) in which the image gamma of GF(q)'s own
generator is sought (once per pair of fields), both come from
``Field.element_of_order``.  Lengths above ``MAX_LENGTH`` are refused up
front, and a degree m*t above ``MAX_EXTENSION_DEGREE`` only when a coset
needs the extension.

A minimal polynomial is that of a linear recurring sequence (Lidl &
Niederreiter, Finite Fields, Sec. 8.6): the trace Tr from the extension
down to GF(q) is GF(q)-linear, so s_k = Tr(alpha^c beta^k), beta =
alpha^rep, is annihilated by the minimal polynomial of beta, and
Berlekamp-Massey (Massey 1969) finds it from 2|coset| terms in
O(|coset|^2) operations of GF(q), on lookup lists for q <= 49 and by
``Field`` calls above.  Tr is constant on each cyclotomic coset, so one
table of n' traces per (field, n') serves every coset, and each coset
needs one power of alpha, multiplied on the packed ints of the
extension's own slot ring (``Field._ring``) with no ``Field.mul``.  The
trace down to GF(p) is a linear functional: with the power sums
P_k = Tr(x^k) of the extension's modulus, from Newton's identities over
its few nonzero terms, Tr(a) is one int product of a with P packed.  For
m > 1 the trace down to GF(q) has the m digits d = W^-1 u, u_k the trace
down to GF(p) of gamma^k times the power, W the Gram matrix of GF(q)'s
trace form on gamma^0 .. gamma^(m-1), gamma the image of its generator.
When t = 1 the extension is the field itself, every coset is one
residue j, and its factor is x - alpha^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import gcd, prod

from cyclic_pairs.cyclotomic import coset_of, coset_partition, mult_order
from cyclic_pairs.fields import (MAX_EXTENSION_DEGREE, Field, FieldMismatchError,
                                 _prime_divisors, _SlotRing, make_field)
from cyclic_pairs.poly import MAX_LENGTH, Polynomial


class CoercionError(RuntimeError):
    """A minimal polynomial has no coefficients in the base field.

    Either the given exponents are not a q-cyclotomic coset, or alpha and
    the embedding are inconsistent; factor_xn1 never raises it.
    """


def _horner(ring: _SlotRing, coeffs: tuple[int, ...], u: int) -> int:
    """The packed value at packed u of the polynomial with prime-field
    coefficients ``coeffs`` (ascending), by Horner on the ring; a
    prime-field constant packs as itself."""
    top, *rest = reversed(coeffs)
    acc = top
    for c in rest:
        acc = ring.reduce(ring.mul(acc, u) + c)
    return acc


@lru_cache(maxsize=None)
def _subfield_root(base: Field, ext: Field) -> int:
    """Deterministic root of the base modulus inside the extension, kept per
    (base, ext).

    The roots lie in the copy of GF(q) inside ext, the powers of
    w = ext.element_of_order(q - 1); the least power index wins, making
    the embedding reproducible.  The base modulus is evaluated on the
    extension's packed ints, with no Field.mul.
    """
    ring = ext._ring
    w, u = ring.pack(ext.element_of_order(base.q - 1)), 1  # 1 packs as itself
    for _ in range(base.q - 1):
        if not _horner(ring, base.modulus, u):
            return ring.unpack(u)
        u = ring.mul(u, w)
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


def _power_sums(coeffs: tuple[int, ...], p: int, count: int) -> list[int]:
    """P_k = Tr(x^k) from GF(p)[x]/f down to GF(p), k < count, for f = coeffs
    (ascending, monic of degree M), by Newton's identities: P_0 = M and
    P_k = -(k c_(M-k) + sum over i < k of c_(M-i) P_(k-i)), the k c_(M-k)
    term dropped for k > M.  Only the nonzero c_j take part, so the cost is
    O(count * terms of f)."""
    big = len(coeffs) - 1
    terms = [(i, coeffs[big - i]) for i in range(1, big + 1) if coeffs[big - i]]  # (i, c_(M-i))
    sums = [big % p]
    for k in range(1, count):
        acc = k * coeffs[big - k] if k <= big else 0
        for i, c in terms:
            if i >= k:
                break
            acc += c * sums[k - i]
        sums.append(-acc % p)
    return sums


@lru_cache(maxsize=None)
def _trace_form(ext: Field) -> int:
    """P_(M-1) .. P_0 packed on ``ext._ring``, M = ext.m: Tr(a) down to GF(p)
    of a packed a is slot M - 1 of a times it, a slot sum of at most
    M(p-1)^2, within the ring's width as a product's slots are."""
    return ext._ring.pack_coeffs(_power_sums(ext.modulus, ext.p, ext.m)[::-1])


@lru_cache(maxsize=None)
def _digit_matrix(field: Field) -> list[list[int]]:
    """W^-1 mod p for W[k][s] = Tr(g^(k+s)) from GF(q) down to GF(p), g the
    class of x, k, s < m: T = sum of d_s g^s has digits d = W^-1 u for
    u_k = Tr(g^k T).  W is the Gram matrix of the trace form on the basis
    g^0 .. g^(m-1), invertible since the form is nondegenerate; its inverse
    is by Gauss-Jordan elimination on lists."""
    p, m = field.p, field.m
    sums = _power_sums(field.modulus, p, 2 * m - 1)
    rows = [sums[k:k + m] + [int(s == k) for s in range(m)] for k in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [v * inv % p for v in rows[col]]
        for r in range(m):
            if r != col and (c := rows[r][col]):
                rows[r] = [(u - c * v) % p for u, v in zip(rows[r], rows[col])]
    return [row[m:] for row in rows]


@lru_cache(maxsize=1)
def _traces(field: Field, n_prime: int) -> list[int]:
    """Tr(alpha^e) from ext = GF(q^t), t = ord_n'(q) > 1, down to the field,
    for e = 0 .. n'-1 as base-field encodings; kept for every coset of one
    (field, n').

    Each coset's alpha^rep is one product on ``ext._ring`` with alpha^gap
    (kept as met) from the representative before it, and its trace down to
    GF(p) one int product with ``_trace_form``; for m > 1 the digits are
    W^-1 u (``_digit_matrix``), u_k that trace of gamma^k alpha^rep.  A
    gamma that is not a root of the base modulus in ext (alpha and gamma
    inconsistent) raises CoercionError.
    """
    ext, gamma, alpha = root_of_unity(field, n_prime)
    ring, p, m = ext._ring, field.p, field.m
    top, mask, form = ring.w * (ext.m - 1), (1 << ring.w) - 1, _trace_form(ext)

    def trace(a: int) -> int:  # down to GF(p)
        return (a * form >> top & mask) % p

    g = ring.pack(gamma)
    if m > 1:
        if _horner(ring, field.modulus, g):
            raise CoercionError(f"gamma of {ext!r} is no root of the modulus of {field!r}")
        inverse = _digit_matrix(field)
    table = [0] * n_prime
    power, rep, steps = 1, 0, [1, ring.pack(alpha)]  # steps[k] = alpha^k; 1 packs as itself
    for coset in coset_partition(n_prime, field.q).cosets:
        gap, rep = coset[0] - rep, coset[0]
        if gap:
            while len(steps) <= gap:
                steps.append(ring.mul(steps[-1], steps[1]))
            power = ring.mul(power, steps[gap])
        tr = trace(power)
        if m > 1:
            u, b = [tr], power
            for _ in range(1, m):
                b = ring.mul(b, g)
                u.append(trace(b))
            tr = sum(sum(x * y for x, y in zip(row, u)) % p * p ** s
                     for s, row in enumerate(inverse))
        for r in coset:
            table[r] = tr
    return table


# fields of at most this order do Berlekamp-Massey's arithmetic by lookup lists
_LIST_LIMIT = 49


class _Calls:
    """A lookup list's stand-in past ``_LIST_LIMIT``: x[a] is f(a) for a
    unary f, and x[a][b] is f(a, b) for a binary one."""

    __slots__ = ("f", "arity")

    def __init__(self, f, arity: int):
        self.f, self.arity = f, arity

    def __getitem__(self, a: int):
        return self.f(a) if self.arity == 1 else _Calls(partial(self.f, a), 1)


@lru_cache(maxsize=None)
def _scalar_ops(field: Field) -> tuple:
    """(add, mul, neg, inv, frob) of the field, read add[a][b], mul[a][b],
    neg[a], inv[a] and frob[a] = a^p: pure-Python lists for q <=
    ``_LIST_LIMIT``, addition and negation digit by digit and the products,
    inverses and p-th powers from ``Field._logs``; ``Field`` calls above it."""
    p, q = field.p, field.q
    if q > _LIST_LIMIT:
        return (_Calls(field.add, 2), _Calls(field.mul, 2),
                _Calls(field.neg, 1), _Calls(field.inv, 1), _Calls(partial(field.pow, e=p), 1))
    exp, log, _ = field._logs()
    places = [p ** i for i in range(field.m)]
    add = [[sum((a // s + b // s) % p * s for s in places) for b in range(q)]
           for a in range(q)]
    mul = [[exp[log[a] + log[b]] if a and b else 0 for b in range(q)] for a in range(q)]
    neg = [sum(-(a // s) % p * s for s in places) for a in range(q)]
    inv = [exp[q - 1 - log[a]] if a else 0 for a in range(q)]
    frob = [exp[log[a] * p % (q - 1)] if a else 0 for a in range(q)]
    return add, mul, neg, inv, frob


def _berlekamp_massey(s: list[int], field: Field) -> list[int]:
    """The connection polynomial C of s, C[0] = 1 and len(C) = L + 1: the
    shortest recurrence sum_(i <= L) C[i] s[k-i] = 0, L <= k < len(s)
    (Massey 1969), with the field's arithmetic from ``_scalar_ops``."""
    add, mul, neg, inv, _ = _scalar_ops(field)
    c, b = [1], [1]  # the current connection polynomial and the one before the last length change
    length, shift, last = 0, 1, 1  # last: the discrepancy that made b current
    for k in range(len(s)):
        delta = 0
        for ci, v in zip(c, s[k::-1]):
            delta = add[delta][mul[ci][v]]
        if not delta:
            shift += 1
            continue
        row = mul[neg[mul[delta][inv[last]]]]  # c -= (delta / last) x^shift b
        new = c + [0] * (len(b) + shift - len(c))
        for i, v in enumerate(b, shift):
            new[i] = add[new[i]][row[v]]
        if 2 * length <= k:
            length, b, last, shift = k + 1 - length, c, delta, 1
        else:
            shift += 1
        c = new
    return (c + [0] * length)[:length + 1]  # deg C <= L


def minimal_poly(n_prime: int, field: Field, coset: tuple[int, ...]) -> Polynomial:
    """Minimal polynomial M_j over the field of beta = alpha^j, j = coset[0].

    M_j is irreducible and annihilates s_k = Tr(alpha^c beta^k), read from
    ``_traces`` at c + j*k mod n', so it is the minimal polynomial of any
    nonzero such s, found by Berlekamp-Massey from 2d terms, d = |coset|.
    c is the least shift whose first d terms are not all zero: 0 unless p
    divides t/d, and below t since alpha^0 .. alpha^(t-1) span ext.  For
    t = 1 M_j is x - alpha^j.  A tuple that is not a q-cyclotomic coset,
    in any order, or a recurrence of length other than d raises
    CoercionError.
    """
    q, d = field.q, len(coset)
    if (not coset or not 0 <= coset[0] < n_prime
            or tuple(sorted(coset)) != coset_of(n_prime, q, coset[0])):
        raise CoercionError(f"{coset} is not a {q}-cyclotomic coset mod {n_prime}")
    j = coset[0]
    if (q - 1) % n_prime == 0:  # t = 1: alpha is in the field, and d = 1
        alpha = root_of_unity(field, n_prime)[2]
        return Polynomial(field, [field.neg(field.pow(alpha, j)), 1])
    table = _traces(field, n_prime)
    for c in range(n_prime):
        s = [table[(c + j * k) % n_prime] for k in range(2 * d)]
        if any(s[:d]):
            break
    conn = _berlekamp_massey(s, field)
    if len(conn) != d + 1:
        raise CoercionError(f"alpha^{j} has no degree-{d} minimal polynomial over {field!r}")
    return Polynomial(field, conn[::-1])


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

    # the stores below are made on first use, so a factorization that no
    # code or search asks about holds none of them
    @cached_property
    def distances(self) -> dict:
        """DistanceReport by exponent vector, shared by every code of the cached
        factor_xn1; one answer fills it for the whole multiplier orbit of the vector."""
        return {}

    @cached_property
    def generators(self) -> dict:
        """Generator polynomial by exponent vector, filled by ``divisor``."""
        return {}

    @cached_property
    def bounds(self) -> dict:
        """``weight_bound`` by exponent vector, filled one multiplier orbit at a time."""
        return {}

    def divisor(self, exponents) -> Polynomial:
        """The monic divisor prod f_i^e_i of x^n - 1, e_i given in factor order.

        Kept in ``generators``, with every prefix of the vector on the way
        (its exponents after some nonzero one zeroed): a prefix not kept yet
        is the one before it times one factor power f_i^e_i.
        """
        v = tuple(exponents)
        g = self.generators.get(v)
        if g is not None:
            return g
        if len(v) != len(self.factors):
            raise ValueError(f"{len(v)} exponents for {len(self.factors)} factors")
        for e, entry in zip(v, self.factors):
            if not 0 <= e <= entry.multiplicity:
                raise ValueError(f"exponent {e} of {entry.poly} is outside "
                                 f"0..{entry.multiplicity}")
        g = self.generators.setdefault((0,) * len(v), Polynomial.one(self.field))
        for i, e in enumerate(v):
            if e:
                prefix = v[:i + 1] + (0,) * (len(v) - i - 1)
                kept = self.generators.get(prefix)
                if kept is None:
                    power = self.factors[i].poly ** e
                    kept = self.generators[prefix] = power if g.is_one() else g * power
                g = kept
        return g

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
            for r in coset_of(n_prime, q, entry.coset_rep):
                factor_of[r] = i
        reps = [entry.coset_rep for entry in self.factors]
        return {a: tuple(factor_of[a * r % n_prime] for r in reps)
                for a in range(n_prime) if gcd(a, n_prime) == 1}

    def orbit(self, exponents) -> set[tuple[int, ...]]:
        """The exponent vectors of the images of a code under every x -> x^a."""
        return {tuple(exponents[i] for i in sigma) for sigma in set(self.multipliers.values())}

    def weight_bound(self, exponents) -> int:
        """The least generator weight over the multiplier orbit of a divisor.

        x -> x^a maps a code's generator to a codeword of the image code
        with the same weight, so this bounds the minimum distance of every
        code in the orbit; it is at most deg g + 1 = n - k + 1, the
        Singleton bound.  Kept in ``bounds`` for the whole orbit.
        """
        v = tuple(exponents)
        bound = self.bounds.get(v)
        if bound is None:
            orbit = self.orbit(v)
            bound = min(len(g.coeffs) - g.coeffs.count(0)
                        for g in map(self.divisor, orbit))
            self.bounds.update(dict.fromkeys(orbit, bound))
        return bound

    @cached_property
    def coset_masks(self) -> tuple[int, ...]:
        """Each factor's q-cyclotomic coset of Z_{n'} as an n'-bit mask."""
        return tuple(sum(1 << r for r in coset_of(self.n_prime, self.field.q, entry.coset_rep))
                     for entry in self.factors)

    def bch_bound(self, exponents) -> int:
        """The BCH bound, maximized over the multiplier orbit of a divisor.

        A member's zeros are alpha^j for j in the cosets of its factors with
        e_i >= 1; a cyclic run of delta - 1 of them gives d >= delta (Bose &
        Ray-Chaudhuri 1960), and x -> x^a keeps d, so the longest run over
        the orbit bounds every member.  The run is the number of steps
        ``cur &= rotl(cur)`` takes to reach 0.  A length with nu >= 1 gets
        1: the defining set forgets multiplicities, and x^n' - 1, of weight
        2, vanishes on all of it, so the Vandermonde argument fails.
        """
        if self.nu:
            return 1
        n_prime, full, run = self.n_prime, (1 << self.n_prime) - 1, 0
        for u in self.orbit(exponents):
            # the defining set; the cosets are disjoint, so the sum is their OR
            cur, steps = sum(mask for e, mask in zip(u, self.coset_masks) if e), 0
            while cur and steps < n_prime:  # the zero code's full set never clears
                cur &= (cur << 1 | cur >> (n_prime - 1)) & full
                steps += 1
            run = max(run, steps)
        return 1 + run

    def product(self) -> Polynomial:
        return prod((e.poly ** e.multiplicity for e in self.factors),
                    start=Polynomial.one(self.field))

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


def _cyclotomic_coeffs(d: int) -> list[int]:
    """Phi_d over Z, ascending: prod over e | d of (x^e - 1)^mu(d/e).

    Every factor with mu = 1 is multiplied in first; then each one with
    mu = -1 is divided out exactly, quotient q_i = q_(i-e) - c_i.
    """
    ups, downs = [d], []  # e with mu(d/e) = 1 and -1
    for r in _prime_divisors(d):
        ups, downs = ups + [e // r for e in downs], downs + [e // r for e in ups]
    c = [1]
    for e in ups:
        shifted = [0] * e + c
        for i, v in enumerate(c):
            shifted[i] -= v
        c = shifted
    for e in downs:
        quo: list[int] = []
        for i in range(len(c) - e):
            quo.append((quo[i - e] if i >= e else 0) - c[i])
        c = quo
    return c


@lru_cache(maxsize=None)
def _cyclotomic_mod(d: int, p: int) -> tuple[int, ...]:
    """Phi_d mod p, ascending, kept per (d, p)."""
    return tuple(c % p for c in _cyclotomic_coeffs(d))


def _image(poly: Polynomial, k: int, invert: bool) -> Polynomial:
    """The factor whose roots are the p^k-th powers of poly's roots, inverted
    when asked: x -> x^p maps roots to roots, so sigma: c -> c^p is applied
    k times to each coefficient, then the monic reciprocal x^d M(1/x) / M(0)
    of the result M (M(0) != 0), with the field's ``_scalar_ops``."""
    _, mul, _, inv, frob = _scalar_ops(poly.field)
    coeffs = poly.coeffs
    for _ in range(k):
        coeffs = [frob[c] for c in coeffs]
    if invert:
        row = mul[inv[coeffs[0]]]
        coeffs = [row[c] for c in reversed(coeffs)]
    return Polynomial._product(poly.field, coeffs)


@lru_cache(maxsize=None)
def factor_xn1(n: int, field: Field) -> Factorization:
    """All irreducible factors of x^n - 1 over the field, with multiplicity p^nu.

    For nu >= 1 they are the factors of the cached x^n' - 1, each raised
    to multiplicity p^nu.  For nu = 0 a full coset's factor is Phi_d mod
    p; for t > 1 a coset C after one of its conjugates +-p^i C is derived
    from that one's factor (``_image``), and every other coset is
    ``minimal_poly``'s, so that t = 1 keeps x - alpha^j and builds no
    lookup list.  Every factor is kept by representative, derived ones
    too, since a later coset may be derived from it.  A degree of the
    root-of-unity extension past MAX_EXTENSION_DEGREE is refused by
    ``root_of_unity`` when the first coset that is not full needs it; a
    length whose cosets are all full builds no extension and is answered
    whatever that degree.
    """
    nu, n_prime = split_length(n, field)
    if nu:
        base = factor_xn1(n_prime, field).factors
        entries = [FactorEntry(e.poly, field.p ** nu, e.coset_rep, e.order) for e in base]
    else:
        p, m, partition = field.p, field.m, coset_partition(n, field.q)
        entries, solved = [], {}  # by order d, then by coset representative
        # t > 1: the cosets c * C, c = s p^i with s = +-1 and i < m, have
        # C's factor up to sigma^i and a reciprocal, so C's is derived from
        # any of them solved before C (of a smaller representative)
        conjugates = [(s * p ** i % n, -i % m, s < 0) for i in range(m) for s in (1, -1)][1:]
        if (field.q - 1) % n == 0:  # t = 1, where minimal_poly runs no Berlekamp-Massey
            conjugates = []
        rep_of = [0] * n
        for coset in partition.cosets:
            for r in coset:
                rep_of[r] = coset[0]
        for d, cosets in partition.by_order.items():
            for coset in cosets:
                # phi(d) residues have additive order d, so a coset holds them
                # all (is full) exactly when it is the only coset of order d
                rep = coset[0]
                if len(cosets) == 1:
                    poly = Polynomial(field, _cyclotomic_mod(d, p))
                else:
                    for c, k, invert in conjugates:
                        if (src := rep_of[c * rep % n]) < rep:
                            poly = _image(solved[src], k, invert)
                            break
                    else:
                        poly = minimal_poly(n, field, coset)
                    solved[rep] = poly
                entries.append(FactorEntry(poly, 1, rep, d))
    return Factorization(n, field, nu, n_prime, tuple(entries))
