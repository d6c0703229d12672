"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's optimized paths: rank
by plain Gaussian elimination on Field ops, linear systems over GF(p) by
Gauss-Jordan elimination on lists, distance by naive message
enumeration, divisor existence by exhaustive lattice products, minimal
polynomials by multiplying out the coset product, polynomial products by
the schoolbook double loop, and intersections, sums and duals of cyclic
codes by polynomial gcd, lcm, division and reciprocal instead of
exponent vectors.
"""

from itertools import product

from cyclic_pairs.factorization import CoercionError, root_of_unity
from cyclic_pairs.fields import Field
from cyclic_pairs.poly import Polynomial, xn_minus_1


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor, by Euclid's algorithm."""
    a._same_field(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic least common multiple; lcm with the zero polynomial is zero."""
    a._same_field(b)
    if a.is_zero() or b.is_zero():
        return Polynomial.zero(a.field)
    return ((a * b) // poly_gcd(a, b)).monic()


def divides(a: Polynomial, b: Polynomial) -> bool:
    """True when a | b."""
    if a.is_zero():
        return b.is_zero()
    return (b % a).is_zero()


def code_contains(code, word: Polynomial) -> bool:
    """Membership: the word reduced mod x^n - 1 is divisible by the generator."""
    return divides(code.g, word % xn_minus_1(code.field, code.n))


def poly_pair_analysis(c1, c2) -> tuple[int, int, Polynomial, Polynomial]:
    """(ell, sum_dim, lcm, gcd) of two codes' generators, by polynomial gcd/lcm."""
    inter, summ = poly_lcm(c1.g, c2.g), poly_gcd(c1.g, c2.g)
    return c1.n - inter.degree, c1.n - summ.degree, inter, summ


def poly_dual_generator(code) -> Polynomial:
    """Monic reciprocal (coefficients reversed) of the check polynomial (x^n - 1)/g."""
    h = xn_minus_1(code.field, code.n) // code.g
    return Polynomial(code.field, h.coeffs[::-1]).monic()


def embed(base: Field, ext: Field, gamma: int, v: int) -> int:
    """Image of the base-field encoding v in ext, the base generator going to gamma."""
    if base is ext or base.m == 1:
        return v  # constants encode identically
    acc, power = 0, 1
    while v:
        v, digit = divmod(v, base.p)
        if digit:
            acc = ext.add(acc, ext.mul(digit, power))
        power = ext.mul(power, gamma)
    return acc


def rank_over_field(rows, f: Field) -> int:
    """Row rank by Gaussian elimination using only Field primitives."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = f.inv(mat[rank][col])
        mat[rank] = [f.mul(inv, v) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [f.sub(a, f.mul(c, b)) for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def solve_mod_p(a: list[list[int]], b: list[int], p: int) -> list[int] | None:
    """The unique x with a x = b over GF(p), or None when there is none or many.

    Gauss-Jordan elimination on lists of ints mod p; a column without a
    pivot leaves an unknown free, so the system has no unique solution.
    """
    rows, cols = len(a), len(a[0])
    aug = [[v % p for v in row] + [rhs % p] for row, rhs in zip(a, b)]
    for c in range(cols):
        pivot = next((r for r in range(c, rows) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [v * inv % p for v in aug[c]]
        for r in range(rows):
            if r != c and aug[r][c]:
                factor = aug[r][c]
                aug[r] = [(v - factor * u) % p for v, u in zip(aug[r], aug[c])]
    if any(aug[r][cols] for r in range(cols, rows)):
        return None
    return [aug[r][cols] for r in range(cols)]


def naive_poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Schoolbook product using only Field.mul and Field.add per coefficient pair."""
    f = a.field
    if not a.coeffs or not b.coeffs:
        return Polynomial.zero(f)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = f.add(out[i + j], f.mul(ca, cb))
    return Polynomial(f, out)


def naive_min_distance(code) -> int | None:
    """Distance by multiplying out every message polynomial, no Gray code."""
    f, k, n = code.field, code.k, code.n
    if k == 0:
        return None
    best = n + 1
    for msg in product(range(f.q), repeat=k):
        if not any(msg):
            continue
        word = Polynomial(f, msg) * code.g
        w = sum(1 for c in word.coeffs if c != 0)
        best = min(best, w)
    return best


def brute_force_divisor_degrees(factorization) -> set[int]:
    """Degrees of all monic divisors of x^n - 1, by exhaustive products."""
    degrees = {0}
    for entry in factorization.factors:
        deg = entry.poly.degree
        degrees = {d + s * deg
                   for d in degrees for s in range(entry.multiplicity + 1)}
    return degrees


def random_divisor(rng, factorization, of: Polynomial | None = None) -> Polynomial:
    """A random monic divisor of x^n - 1 (or of the given divisor)."""
    f = factorization.field
    out = Polynomial.one(f)
    if of is None:
        for entry in factorization.factors:
            e = rng.randint(0, entry.multiplicity)
            if e:
                out = out * entry.poly ** e
        return out
    for entry in factorization.factors:
        cap = 0
        probe = of
        while True:
            quo, rem = divmod(probe, entry.poly)
            if not rem.is_zero():
                break
            probe = quo
            cap += 1
        e = rng.randint(0, cap)
        if e:
            out = out * entry.poly ** e
    return out


def naive_minimal_poly(n_prime: int, field: Field, coset) -> Polynomial:
    """Product over the coset of (x - alpha^j), coerced to the base field.

    The coefficients are multiplied out in the extension field of
    ``root_of_unity`` and mapped back through the embedding's inverse,
    tabulated by embedding every base-field element.
    """
    ext, gamma, alpha = root_of_unity(field, n_prime)
    coeffs = [1]  # ascending, in the extension field
    for j in coset:
        root = ext.pow(alpha, j)
        coeffs.append(1)
        for i in range(len(coeffs) - 2, -1, -1):
            below = coeffs[i - 1] if i > 0 else 0
            coeffs[i] = ext.sub(below, ext.mul(coeffs[i], root))
    section = {embed(field, ext, gamma, v): v for v in range(field.q)}
    if any(c not in section for c in coeffs):
        raise CoercionError(f"a coefficient of the coset {coset} product is outside "
                            f"the embedded base field")
    return Polynomial(field, [section[c] for c in coeffs])


def traces_by_power_sums(field: Field, n_prime: int) -> list[int]:
    """Tr(alpha^e) down to the field for e < n', as base-field encodings: each
    q-cyclotomic coset C's trace is (t/|C| mod p) times the sum of alpha^e
    over C, t = ord_n'(q), by ``Field`` calls in the extension of
    ``root_of_unity``, mapped back through the embedding's inverse as in
    ``naive_minimal_poly``."""
    from cyclic_pairs.cyclotomic import coset_partition
    ext, gamma, alpha = root_of_unity(field, n_prime)
    t = ext.m // field.m
    section = {embed(field, ext, gamma, v): v for v in range(field.q)}
    table = [0] * n_prime
    for coset in coset_partition(n_prime, field.q).cosets:
        total = 0
        for e in coset:
            total = ext.add(total, ext.pow(alpha, e))
        value = section[ext.mul(total, t // len(coset) % field.p)]
        for e in coset:
            table[e] = value
    return table
