import operator
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_pairs import factorization, fields
from cyclic_pairs.fields import (MAX_EXTENSION_DEGREE, MAX_ORDER,
                                 FieldMismatchError, field_from_order,
                                 is_irreducible, lex_least_irreducible,
                                 make_field)
from cyclic_pairs.poly import Polynomial
from helpers import poly_gcd

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9]
# every extension field of order <= 81, and a prime field for tables(): every pair is checked
EXHAUSTIVE_ORDERS = [7, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81]
# the remaining extension fields that hold log tables (order <= 2^12); their Field
# operations run on the slot ring, the tables serve Polynomial products and tables()
TABLE_ORDERS = [121, 125, 128, 169, 243, 256, 289, 343, 361, 512, 625, 729,
                961, 1024, 1331, 2048, 2187, 2197, 2401, 3125, 3481, 4096]


def _digits(f, v):
    out = []
    for _ in range(f.m):
        v, d = divmod(v, f.p)
        out.append(d)
    return out


def _undigits(f, digits):
    return sum((d % f.p) * f.p ** i for i, d in enumerate(digits))


def naive_add(f, a, b):
    return _undigits(f, [x + y for x, y in zip(_digits(f, a), _digits(f, b))])


def naive_neg(f, a):
    return _undigits(f, [-x for x in _digits(f, a)])


def naive_mul(f, a, b):
    """Schoolbook product of the digit vectors, reduced by the modulus from the top."""
    da, db, m = _digits(f, a), _digits(f, b), f.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k] % f.p
        for i, mc in enumerate(f.modulus):
            prod[k - m + i] -= c * mc
    return _undigits(f, prod[:m])


def _check_against_naive(f, a, b):
    assert f.mul(a, b) == naive_mul(f, a, b)
    assert f.add(a, b) == naive_add(f, a, b)
    assert f.neg(a) == naive_neg(f, a)
    assert f.sub(a, b) == naive_add(f, a, naive_neg(f, b))
    assert f.add(f.sub(a, b), b) == a
    assert f.add(a, f.neg(a)) == 0
    if b:
        assert naive_mul(f, f.mul(a, f.inv(b)), b) == a


def test_prime_field_modulus_is_x():
    assert make_field(2).modulus == (0, 1)
    assert make_field(7).modulus == (0, 1)


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # exhaustive scan over all monic quadratics over GF(2)
    irreducible = [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1)
                   if is_irreducible((c0, c1, 1), 2)]
    assert irreducible == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_lex_least_moduli_are_irreducible_and_least():
    for p, m in [(2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (5, 2)]:
        mod = lex_least_irreducible(p, m)
        assert len(mod) == m + 1 and mod[-1] == 1
        assert is_irreducible(mod, p)
        # nothing lexicographically smaller is irreducible
        for cand in product(*(range(p) for _ in range(m))):
            if cand >= tuple(mod[:-1]):
                break
            assert not is_irreducible(cand + (1,), p)


# degrees whose dense lex-order scan stays short for sympy; 154 moduli in all
_DENSE_DEGREES = {2: 48, 3: 36, 5: 28, 7: 20, 11: 16, 13: 12}


def test_sparse_search_equals_a_dense_lex_order_reference():
    # the search builds each candidate's terms from the base-p digits of its
    # index; the reference walks full coefficient tuples in lex order and asks
    # sympy's Ben-Or, skipping c0 = 0
    sympy = pytest.importorskip("sympy")
    from sympy.polys.galoistools import gf_irred_p_ben_or
    count = 0
    for p, top in _DENSE_DEGREES.items():
        for m in range(2, top + 1):
            expected = next(
                (c0,) + rest + (1,)
                for c0 in range(1, p) for rest in product(range(p), repeat=m - 1)
                if gf_irred_p_ben_or([sympy.ZZ(1)] + [sympy.ZZ(v) for v in reversed(rest)]
                                     + [sympy.ZZ(c0)], p, sympy.ZZ))
            assert lex_least_irreducible.__wrapped__(p, m) == expected, (p, m)
            count += 1
    assert count == 154


def test_gf2_508_modulus_is_pinned():
    # GF(2^508) carries the roots of x^509 - 1; no CLI output shows its modulus
    mod = lex_least_irreducible(2, 508)
    assert [i for i, c in enumerate(mod) if c] == [0, 501, 504, 505, 506, 507, 508]


# GF(3^100) carries the roots of x^202 - 1 over GF(3); GF(5^96) is the sweep-sized
# odd-p search with the sparsest top: both moduli pinned term by term
@pytest.mark.parametrize("p, m, terms", [
    (3, 100, {0: 1, 94: 1, 96: 2, 97: 1, 98: 1, 100: 1}),
    (5, 96, {0: 1, 93: 1, 94: 1, 96: 1}),
])
def test_odd_p_moduli_are_pinned(p, m, terms):
    mod = lex_least_irreducible(p, m)
    assert {i: c for i, c in enumerate(mod) if c} == terms


def test_is_irreducible_validates_its_input():
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError, match="characteristic"):
            is_irreducible((1, 1, 1), p)
    with pytest.raises(ValueError, match="integers"):
        is_irreducible((1, 1.0, 1), 3)
    for bad in ((1,), (1, 1, 0), (1, 1, 2)):
        with pytest.raises(ValueError, match="monic"):
            is_irreducible(bad, 2)
    # coefficients are taken mod p in every lane: (1, 3, 1) over GF(2) is
    # x^2 + x + 1, not the bit-packed cubic 1 + 3x + x^2 = x^3 + 1
    assert is_irreducible((1, 3, 1), 2) and is_irreducible((1, 1, 1), 2)
    assert is_irreducible((5, 4, 1), 3) == is_irreducible((2, 1, 1), 3) is True
    assert not is_irreducible((-1, 0, 1), 3)  # x^2 - 1


def _gauss_count(p, m):
    """Monic irreducible polynomials of degree m over GF(p): (1/m) sum mu(d) p^(m/d)."""
    def mobius(d):
        out = 1
        for r in range(2, d + 1):
            if d % r == 0:
                d //= r
                if d % r == 0:
                    return 0
                out = -out
        return out
    return sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


# degrees checked exhaustively per p; both sides of the root sieve's
# p <= m + 1 selection occur, e.g. p = 5 skips it at m = 3 and runs it at m = 4
SIEVE_ORACLE_DEGREES = {2: range(1, 11), 3: range(1, 6), 5: range(1, 5), 7: range(1, 4)}


def _monic_hits(p, m):
    return [c + (1,) for c in product(range(p), repeat=m) if is_irreducible(c + (1,), p)]


@pytest.mark.parametrize("p", sorted(SIEVE_ORACLE_DEGREES))
def test_irreducible_count_matches_gauss_formula(p):
    for m in SIEVE_ORACLE_DEGREES[p]:
        assert len(_monic_hits(p, m)) == _gauss_count(p, m), m


@pytest.mark.parametrize("p", sorted(SIEVE_ORACLE_DEGREES))
def test_irreducible_hits_match_sympy_exhaustively(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for m in SIEVE_ORACLE_DEGREES[p]:
        expected = [c + (1,) for c in product(range(p), repeat=m)
                    if sympy.Poly([1] + list(reversed(c)), x, modulus=p).is_irreducible]
        assert _monic_hits(p, m) == expected, m


def _times(a, b, p):
    """Product of two ascending coefficient tuples over GF(p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _next_irreducible(g, p):
    """The lex-least monic irreducible of g's degree after g."""
    k = len(g) - 1
    for c in product(range(p), repeat=k):
        if c > g[:-1] and is_irreducible(c + (1,), p):
            return c + (1,)
    raise AssertionError(f"no irreducible of degree {k} after {g}")


# (p, m) whose last Ben-Or block is {8, 9, 10} (p = 2), {4, 5, 6} (p = 3) or {4} (p = 5)
BEN_OR_LAST_BLOCK = [(2, 20), (2, 21), (3, 12), (3, 13), (5, 8), (5, 9)]


@pytest.mark.parametrize("p, m", BEN_OR_LAST_BLOCK)
def test_a_factor_of_degree_half_m_is_found_in_the_last_block(p, m):
    # g * h has no factor of degree < m // 2, so only the gcd at i = m // 2 sees g
    g = lex_least_irreducible(p, m // 2)
    h = lex_least_irreducible(p, m - m // 2)
    if h == g:
        h = _next_irreducible(g, p)
    assert not is_irreducible(_times(g, h, p), p)
    if m % 2 == 0:
        assert not is_irreducible(_times(g, g, p), p)
    assert is_irreducible(lex_least_irreducible(p, m), p)


def _x_power_mod(f, e):
    """x^e mod f by square-and-multiply on Polynomial values."""
    out, base = Polynomial.one(f.field), Polynomial(f.field, (0, 1))
    while e:
        if e & 1:
            out = out * base % f
        base = base * base % f
        e >>= 1
    return out


# two distinct irreducible quadratics and an irreducible cubic over GF(p); their
# degree-7 product runs the root sieve for p = 3 and 5 and skips it for p = 11
ZERO_BLOCK_FACTORS = {3: ((1, 0, 1), (2, 1, 1), (1, 0, 2, 1)),
                      5: ((1, 1, 1), (1, 4, 1), (1, 0, 1, 1)),
                      11: ((1, 0, 1), (1, 1, 1), (1, 0, 4, 1))}


@pytest.mark.parametrize("p", sorted(ZERO_BLOCK_FACTORS))
def test_a_zero_block_product_is_rejected(p):
    # f = g g' h has no root, so the block {1} passes; (x^(p^2) - x)(x^(p^3) - x)
    # = 0 mod f, so the block {2, 3} multiplies to 0 and its gcd is gcd(0, f) = f
    g, g2, h = ZERO_BLOCK_FACTORS[p]
    for factor in (g, g2, h):  # degree <= 3 and no root: irreducible
        assert all(sum(c * r ** i for i, c in enumerate(factor)) % p for r in range(p))
    f = _times(_times(g, g2, p), h, p)
    poly_f, x = Polynomial(make_field(p), f), Polynomial(make_field(p), (0, 1))
    block = (_x_power_mod(poly_f, p ** 2) - x) * (_x_power_mod(poly_f, p ** 3) - x)
    assert (block % poly_f).is_zero()
    assert not is_irreducible(f, p)


@pytest.mark.parametrize("p, roots", [(7, (1, 6)), (7, (1, 2, 3)), (5, (2, 3)), (11, (1, 4, 5, 9))])
def test_split_polynomials_are_rejected_without_the_root_sieve(p, roots):
    # p > m + 1 skips the sieve; x^p - x = 0 mod f, so the first block's gcd is f
    f = (1,)
    for r in roots:
        f = _times(f, (-r % p, 1), p)
    assert p > len(roots) + 1
    assert not is_irreducible(f, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_root_sieve_matches_evaluation_at_every_nonzero_constant(p):
    # a = 1 is read off the coefficient sum, a >= 2 by the sum of c a^j over
    # the terms; the oracle evaluates every monic polynomial of degree <= 4
    # at every a in GF(p)*
    for m in range(1, 5):
        for low in product(range(p), repeat=m):
            c = low + (1,)
            roots = any(sum(x * a ** i for i, x in enumerate(c)) % p == 0 for a in range(1, p))
            assert fields._has_root(dict(enumerate(c)), p) == roots, c


# (3, 30), (5, 24) and (7, 20) run odd-p Ben-Or blocks up to i = 15, 12 and 10;
# (2, 255) and (2, 256) run Ben-Or on byte and on two-byte slots
def _reciprocal(c, p):
    """The monic reciprocal x^m f(1/x) / f(0) of an ascending tuple with f(0) != 0."""
    inv = pow(c[0], -1, p)
    return tuple(x * inv % p for x in reversed(c))


def _long_division_mu(c, p):
    """Slots of x^(2m-2) // f, f monic, by schoolbook long division on lists."""
    m = len(c) - 1
    rem, quo = [0] * (2 * m - 2) + [1], [0] * (m - 1)
    for k in range(2 * m - 2, m - 1, -1):
        quo[k - m] = lead = rem[k] % p
        for i, x in enumerate(c):
            rem[k - m + i] -= lead * x
    return quo


def _tail_of_degree(rng, p, m, d):
    """x^m + r with deg r = d and random lower coefficients of r."""
    return tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p),) + \
        (0,) * (m - d - 1) + (1,)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_mu_equals_the_long_division(p, monkeypatch):
    # 2 deg r <= m + 1 takes x^(m-2) - r // x^2; from 2 deg r = m + 2 on the
    # remainder r * (r // x^2) reaches degree m, so the ring divides
    divisions = []
    divide = fields._SlotRing._divide_mu
    monkeypatch.setattr(fields._SlotRing, "_divide_mu",
                        lambda ring: divisions.append(ring.m) or divide(ring))
    rng = random.Random(p)
    for m in list(range(2, 17)) + [rng.randrange(17, 65) for _ in range(12)] + [63, 64]:
        for d in {0, 1, (m + 1) // 2, (m + 2) // 2, m - 1, rng.randrange(m)} - {m}:
            c = _tail_of_degree(rng, p, m, d)
            divisions.clear()
            ring = fields._slot_ring(dict(enumerate(c)), p)
            slots = [ring.mu >> (ring.w * i) & ((1 << ring.w) - 1) for i in range(m - 1)]
            assert slots == _long_division_mu(c, p), (m, c)
            assert bool(divisions) == (2 * d > m + 1), (m, d)
            if 2 * d == m + 2:
                closed = (1 << (ring.w * (m - 2))) + (ring.negf >> (2 * ring.w))
                assert closed != ring.mu, (m, c)


def test_modulus_search_never_divides_for_mu(monkeypatch):
    # every Ben-Or candidate of GF(5^36) has a short tail on one side; the
    # search's result is unchanged, and the field's own ring still divides
    rings = []
    init = fields._SlotRing.__init__
    monkeypatch.setattr(fields._SlotRing, "__init__",
                        lambda ring, c, p: rings.append(c) or init(ring, c, p))

    def refuse(ring):
        raise AssertionError(f"long division for mu of {ring.m}")
    monkeypatch.setattr(fields._SlotRing, "_divide_mu", refuse)
    assert lex_least_irreducible.__wrapped__(5, 36) == lex_least_irreducible(5, 36)
    assert len(rings) > 20


@pytest.mark.parametrize("p, m", [(2, 40), (2, 61), (3, 30), (5, 21), (7, 16)])
def test_sparse_tails_and_their_reciprocals_match_sympy(p, m):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(p * 1000 + m)
    cases = [lex_least_irreducible(p, m)]
    cases += [(b,) + (0,) * (j - 1) + (a,) + (0,) * (m - j - 1) + (1,)  # x^m + a x^j + b
              for j in range(1, 8) for a in range(1, p) for b in range(1, p)]
    cases += [_tail_of_degree(rng, p, m, rng.randrange(1, 8)) for _ in range(10)]
    hits = 0
    for c in (c for c in cases if c[0]):
        for f in (c, _reciprocal(c, p)):
            expected = sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible
            assert is_irreducible(f, p) == expected, f
        hits += expected
    assert hits >= 1


@pytest.mark.parametrize("p, m", [(2, 12), (2, 33), (3, 9), (5, 8), (7, 6), (11, 5)])
def test_a_polynomial_and_its_reciprocal_are_irreducible_together(p, m):
    rng = random.Random(p + 31 * m)
    for _ in range(80):
        c = (rng.randrange(1, p),) + tuple(rng.randrange(p) for _ in range(m - 1)) + (1,)
        assert is_irreducible(c, p) == is_irreducible(_reciprocal(c, p), p), c
    for c in _monic_hits(p, min(m, 4 if p > 3 else 6)):
        assert is_irreducible(_reciprocal(c, p), p), c


@pytest.mark.parametrize("p, m", [(2, 30), (3, 16), (5, 10), (7, 8), (3, 30), (5, 24), (7, 20),
                                  (2, 64), (2, 255), (2, 256)])
def test_random_polynomials_match_sympy(p, m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.galoistools import gf_irred_p_ben_or
    x = sympy.symbols("x")
    rng = random.Random(p * 100 + m)
    for _ in range(60 if m < 255 else 20):
        c = tuple(rng.randrange(p) for _ in range(m)) + (1,)
        if m < 64:
            expected = sympy.Poly(list(reversed(c)), x, modulus=p).is_irreducible
        else:  # sympy's default Rabin test takes 30 ms a polynomial at m = 64, 2 s at m = 255
            expected = gf_irred_p_ben_or([sympy.ZZ(v) for v in reversed(c)], p, sympy.ZZ)
        assert is_irreducible(c, p) == expected, c


def test_elem_op_examples():
    gf2, gf4, gf7 = make_field(2), make_field(2, 2), make_field(7)
    assert gf2.add(1, 1) == 0
    assert gf4.mul(2, 2) == 3  # alpha * alpha = alpha + 1
    assert gf7.inv(3) == 5 and gf7.mul(3, 5) == 1


def frobenius(f, a):
    """The characteristic-power map a -> a^p."""
    return f.pow(a, f.p)


def test_frobenius_examples():
    assert frobenius(make_field(2), 1) == 1
    assert frobenius(make_field(2, 2), 2) == 3
    assert frobenius(make_field(7), 3) == pow(3, 7, 7) == 3


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    elems = range(q)
    for a, b in product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == naive_add(f, a, naive_neg(f, b))
    for a, b, c in product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elems:
        assert f.add(a, 0) == a and f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, q - 1) == 1  # Lagrange


@settings(max_examples=200)
@given(st.integers(0, 2 ** 10 - 1), st.integers(0, 2 ** 10 - 1),
       st.integers(0, 2 ** 10 - 1))
def test_field_axioms_randomized_gf1024(a, b, c):
    f = make_field(2, 10)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    if a:
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q - 1) == 1


@settings(max_examples=100)
@given(st.sampled_from(SMALL_ORDERS + [16, 25, 27]), st.data())
def test_frobenius_is_a_ring_homomorphism(q, data):
    f = field_from_order(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert frobenius(f, f.add(a, b)) == f.add(frobenius(f, a), frobenius(f, b))
    assert frobenius(f, f.mul(a, b)) == f.mul(frobenius(f, a), frobenius(f, b))


def test_frobenius_iterated_m_times_fixes_the_field():
    f = make_field(3, 2)
    for a in range(f.q):
        v = a
        for _ in range(f.m):
            v = frobenius(f, v)
        assert v == a


def test_pow_handles_negative_exponents():
    f = make_field(2, 3)
    for a in range(1, f.q):
        assert f.mul(f.pow(a, -1), a) == 1
        assert f.pow(a, -3) == f.inv(f.pow(a, 3))


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(4)  # not prime
    with pytest.raises(ValueError):
        make_field(2, 0)
    make_field(2, 25)  # make_field bounds the degree, not the order
    with pytest.raises(ValueError):
        field_from_order(12)  # not a prime power


def test_size_guards_refuse_before_any_modulus_search(monkeypatch):
    assert factorization.MAX_EXTENSION_DEGREE is MAX_EXTENSION_DEGREE == 512
    assert MAX_ORDER == 2 ** 20
    monkeypatch.setattr(fields, "is_irreducible",
                        lambda *args: pytest.fail("a modulus was searched for"))
    with pytest.raises(ValueError, match="1..512, got 513"):
        make_field(2, 513)
    with pytest.raises(ValueError, match=f"got {2 ** 21}"):
        field_from_order(2 ** 21)


def test_division_by_zero_and_mixed_fields():
    f, g = make_field(2, 2), make_field(2, 3)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    for op in (operator.add, operator.sub, operator.mul, divmod):
        with pytest.raises(FieldMismatchError):
            op(Polynomial(f, (1, 1)), Polynomial(g, (1, 1)))


def test_rendering():
    assert str(make_field(2, 2)) == "GF(2^2), modulus=x^2 + x + 1"
    assert str(make_field(7)) == "GF(7), modulus=x"


@pytest.mark.parametrize("q", EXHAUSTIVE_ORDERS)
def test_table_path_matches_naive_reference_exhaustively(q):
    f = field_from_order(q)
    for a, b in product(range(q), repeat=2):
        _check_against_naive(f, a, b)
    add, mul = f.tables()
    assert add.tolist() == [[naive_add(f, a, b) for b in range(q)] for a in range(q)]
    assert mul.tolist() == [[naive_mul(f, a, b) for b in range(q)] for a in range(q)]
    for a in range(q):
        power = 1
        for e in range(q + 2):
            assert f.pow(a, e) == power
            if a:
                assert naive_mul(f, f.pow(a, -e), power) == 1
            power = naive_mul(f, power, a)


@pytest.mark.parametrize("q", TABLE_ORDERS)
def test_table_path_matches_naive_reference_on_random_pairs(q):
    f = field_from_order(q)
    rng = random.Random(q)
    for _ in range(300):
        a, b = rng.randrange(q), rng.randrange(q)
        _check_against_naive(f, a, b)
        if a:
            assert naive_mul(f, a, f.inv(a)) == 1
            e = rng.randrange(2, 50)
            assert f.pow(a, e) == naive_mul(f, f.pow(a, e - 1), a)


@pytest.mark.parametrize("p, m", [(2, 4), (2, 6), (3, 2), (5, 2), (3, 3)])
def test_field_arithmetic_reads_no_lookup_list(p, m):
    f = fields.Field(p, m, lex_least_irreducible(p, m))
    assert f._lists is None  # a fresh field holds no list
    q = f.q
    for a, b in product(range(q), repeat=2):
        _check_against_naive(f, a, b)
    for a in range(q):
        powers = [1]  # a^0 .. a^(q+1)
        for _ in range(q + 1):
            powers.append(naive_mul(f, powers[-1], a))
        assert [f.pow(a, e) for e in range(q + 2)] == powers
        for e in (1, 2):
            if a:
                assert naive_mul(f, f.pow(a, -e), powers[e]) == 1
            else:
                with pytest.raises(ZeroDivisionError):
                    f.pow(a, -e)
        if a:
            assert naive_mul(f, a, f.inv(a)) == 1
    assert f._lists is None  # and arithmetic built none


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 6), (7, 3)])
def test_log_lists_are_built_once_by_whichever_reader_runs_first(p, m):
    # Polynomial products and tables() read one set of lists, built on the first
    # read; the results do not depend on which reader comes first
    rng = random.Random(p * m)
    a, b = ([rng.randrange(p ** m) for _ in range(9)] + [1] for _ in range(2))
    results = []
    for product_first in (True, False):
        f = fields.Field(p, m, lex_least_irreducible(p, m))
        assert f._lists is None
        readers = [lambda: (Polynomial(f, a) * Polynomial(f, b)).coeffs,
                   lambda: tuple(t.tobytes() for t in f.tables())]
        if not product_first:
            readers.reverse()
        first = readers[0]()
        lists = f._logs()
        second = readers[1]()
        assert f._logs() is lists  # not rebuilt
        results.append((first, second) if product_first else (second, first))
    assert results[0] == results[1]
    naive = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            naive[i + j] = naive_add(f, naive[i + j], naive_mul(f, x, y))
    assert results[0][0] == tuple(naive)


def test_pow_of_zero_keeps_its_conventions():
    for q in (2, 9, 16, 3 ** 9):
        f = field_from_order(q)
        assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -1)


# packed-lane fields. Odd p: (3, 8) is the smallest, m = 2 and 3 make Barrett's
# shift zero and one slot, and p = 4099 and 65537 take the widest slots.
# p = 2: (2, 13) is the smallest, byte slots up to m = 255 and two-byte slots
# from m = 256, where (q - 1)^2 has a slot sum of 256; (2, 508) is GF(2^508)
PACKED_LANE = [(3, 40), (5, 52), (3, 8), (7, 5), (65537, 3), (1021, 2), (4099, 2),
               (2, 13), (2, 20), (2, 64), (2, 174), (2, 255), (2, 256), (2, 508)]


def _samples(m, count):
    """Fewer random samples from m = 128 on, where a naive product takes milliseconds."""
    return count if m < 128 else max(1, count // 20)


@pytest.mark.parametrize("p, m", PACKED_LANE)
def test_packed_lane_multiply_matches_naive_reference(p, m):
    f = make_field(p, m)
    rng = random.Random(p * m)
    top = f.q - 1  # every digit p - 1: the largest slot sums of a product
    for a, b in [(0, top), (1, top), (top, top)]:
        _check_against_naive(f, a, b)
    for _ in range(_samples(m, 60)):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        _check_against_naive(f, a, b)
        if a:
            assert naive_mul(f, a, f.inv(a)) == 1


@pytest.mark.parametrize("p", [3, 5, 17, 257, 65537, 7, 4099])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_odd_slot_reduce_holds_a_multiply_add(p, m):
    # a + c*b with reduced slots sums to p(p - 1), more than a product's m(p - 1)^2
    # when m = 1, at the Fermat primes too narrow for the product-sized slot
    ring = fields._SlotRing({0: 1, m: 1}, p)
    top = p * (p - 1)
    sums = [top, top - 1, p * p - 2 * p, (p - 1) ** 2 + 1, p, 0] + \
        [random.Random(p * m + k).randrange(top) for k in range(20)]
    for i in range(0, len(sums), 2 * m - 1):
        chunk = sums[i:i + 2 * m - 1]
        packed = ring.reduce(sum(s << (ring.w * j) for j, s in enumerate(chunk)))
        assert packed == sum(s % p << (ring.w * j) for j, s in enumerate(chunk)), chunk


@pytest.mark.parametrize("m, w", [(255, 8), (256, 16)])
def test_binary_slot_ring_packs_one_bit_per_slot(m, w):
    ring = make_field(2, m)._ring
    assert ring.w == w
    rng = random.Random(m)
    for v in [0, 1, 2 ** m - 1] + [rng.randrange(2 ** m) for _ in range(20)]:
        packed = ring.pack(v)
        assert [packed >> (w * i) & (2 ** w - 1) for i in range(m)] == [v >> i & 1 for i in range(m)]
        assert packed >> (w * m) == 0
        assert ring.unpack(packed) == v


@pytest.mark.parametrize("p, m", [(3, 2), (3, 7), (3, 22), (5, 3), (5, 10), (7, 3), (13, 4)])
def test_resultant_with_the_field_modulus_is_the_norm(p, m):
    # f irreducible: Res(f, b) = N(b) = b^((q-1)/(p-1)); a constant c gives c^m
    f = make_field(p, m)
    ring, e = f._ring, (f.q - 1) // (p - 1)
    rng = random.Random(100 * p + m)
    for b in [0, 1, p - 1, p, f.q - 1] + [rng.randrange(f.q) for _ in range(60)]:
        assert ring.resultant(ring.pack(b)) == (f.pow(b, e) if b else 0), b


# p = 2 at m = 256 and 300 runs the binary Euclid on two-byte slots' elements
@pytest.mark.parametrize("p, m", [(2, 12), (2, 40), (2, 256), (2, 300), (3, 9), (3, 30),
                                  (5, 8), (7, 6)])
def test_resultant_is_zero_exactly_when_euclid_finds_a_common_factor(p, m):
    # random monic f of degree m, mostly reducible; every other b shares a factor
    # g of degree 1 to 4 with f, the others are random of degree < m; the oracle
    # is Euclid on Polynomial values
    rng, gf = random.Random(31 * p + m), make_field(p)

    def rand(k):
        return [rng.randrange(p) for _ in range(k)]

    for k in range(24):
        if k % 2:
            g = rand(rng.randint(1, 4)) + [1]
            f = _times(g, rand(m - len(g) + 1) + [1], p)
            b = _times(g, rand(rng.randrange(m - len(g) + 1)) + [rng.randrange(1, p)], p)
        else:
            f, b = tuple(rand(m) + [1]), rand(rng.randrange(m + 1))
        ring = fields._slot_ring(dict(enumerate(f)), p)
        common = poly_gcd(Polynomial(gf, f), Polynomial(gf, b)).degree > 0
        assert (ring.resultant(ring.pack_coeffs(b)) == 0) == common, (f, b)
    # b = 0 has f itself in common; a constant c has nothing, and Res(f, c) = c^m
    assert ring.resultant(0) == 0
    for c in range(1, p):
        assert ring.resultant(c) == pow(c, m, p)


@pytest.mark.parametrize("p, m", PACKED_LANE)
def test_packed_lane_pow_matches_repeated_naive_multiply(p, m):
    f = make_field(p, m)
    rng = random.Random(p + m)
    top = f.q - 1
    assert f.pow(top, 2) == naive_mul(f, top, top)
    for _ in range(_samples(m, 8)):
        a = rng.randrange(1, f.q)
        power = 1
        for e in range(13):
            assert f.pow(a, e) == power
            power = naive_mul(f, power, a)
        e1, e2 = rng.randrange(f.q), rng.randrange(f.q)
        assert f.pow(a, e1 + e2) == naive_mul(f, f.pow(a, e1), f.pow(a, e2))
        assert f.pow(a, f.q - 1) == 1


@pytest.mark.parametrize("p, m", [(2, 2), (2, 12), (3, 7), (5, 5), (7, 4)])
def test_log_tables_match_naive_arithmetic(p, m):
    f = make_field(p, m)
    (exp, log, zech), n = f._logs(), f.q - 1
    assert sorted(exp[:n]) == list(range(1, f.q))  # exp[1] is primitive
    assert exp[0] == 1 and exp[n:2 * n] == exp[:n] and exp[2 * n:] == [0] * n
    for i in range(n):
        assert exp[i + 1] == naive_mul(f, exp[i], exp[1])
        assert log[exp[i]] == i
    if p == 2:
        assert zech is None
        return
    assert len(zech) == 2 * n and zech[n:] == zech[:n]
    for k in range(n):
        one_plus = naive_add(f, 1, exp[k])
        assert zech[k] == (log[one_plus] if one_plus else 2 * n)


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        p, rest = next(d for d in range(2, q + 1) if q % d == 0), q
        while rest % p == 0:
            rest //= p
        if rest == 1:
            out.append(q)
    return out


def _naive_orders(f):
    """Multiplicative order of every nonzero element, by repeated mul."""
    orders = {}
    for a in range(1, f.q):
        power, k = a, 1
        while power != 1:
            power, k = f.mul(power, a), k + 1
        orders[a] = k
    return orders


def _naive_pow(f, a, e):
    out = 1
    for _ in range(e):
        out = f.mul(out, a)
    return out


@pytest.mark.parametrize("q", _prime_powers(256))
def test_element_of_order_matches_a_brute_force_scan(q):
    f = field_from_order(q)
    orders = _naive_orders(f)
    for n in range(1, q):
        if (q - 1) % n:
            continue
        cofactor = (q - 1) // n
        first = next(gamma for gamma in (_naive_pow(f, beta, cofactor) for beta in range(1, q))
                     if orders[gamma] == n)
        assert f.element_of_order(n) == first, n


def _prime_factors(n):
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return out + [n] if n > 1 else out


@pytest.mark.parametrize("p, m, n", [
    (67, 2, 11), (67, 2, 66), (1021, 2, 5), (3, 8, 2),       # n | p - 1
    (67, 2, 17), (67, 2, 4488), (1021, 2, 7), (3, 8, 5),     # n does not divide p - 1,
    (4099, 2, 5),                                            # so no beta < p is tried
])
def test_element_of_order_equals_the_scan_from_one(p, m, n):
    f = make_field(p, m)
    cofactor, primes = (f.q - 1) // n, _prime_factors(n)
    first = next(gamma for gamma in (f.pow(beta, cofactor) for beta in range(1, f.q))
                 if all(f.pow(gamma, n // r) != 1 for r in primes))
    assert f.element_of_order(n) == first


@pytest.mark.parametrize("q", [2, 4, 7, 9, 64, 3 ** 40])
def test_element_of_order_refuses_orders_not_dividing_q_minus_1(q):
    f = make_field(3, 40) if q == 3 ** 40 else field_from_order(q)
    for n in [0, -1, q, q + 1] + [n for n in range(2, 40) if (q - 1) % n]:
        with pytest.raises(ValueError):
            f.element_of_order(n)


@pytest.mark.parametrize("p, m", [(2, 12), (5, 5), (4093, 1)])
def test_lookup_tables_are_built_with_no_wide_intermediate(p, m):
    # the two uint16 tables and at most two temporaries of their size; int64
    # outer tables took GF(4096) to 384 MiB
    f = fields.Field(p, m, lex_least_irreducible(p, m))
    tracemalloc.start()
    try:
        f.tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 * f.q ** 2


def test_log_tables_take_the_same_primitive_element():
    # the table build scans for its primitive element on its own; both scans
    # pick the least g of order q - 1, on all 40 table-sized extension fields
    orders = [q for q in _prime_powers(4096) if field_from_order(q).m > 1]
    assert len(orders) == 40
    for q in orders:
        f = field_from_order(q)
        exp = f._logs()[0]
        f._orders.clear()  # forget the build's answer, so the scan reruns on the ring
        assert exp[1] == f.element_of_order(q - 1), q


def _divisors(n):
    small = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _scan_without_memo(f, n):
    """element_of_order(n) by the scan from beta = 1, keeping nothing."""
    cofactor, primes = (f.q - 1) // n, _prime_factors(n)
    return next(gamma for gamma in (f.pow(beta, cofactor) for beta in range(1, f.q))
                if all(f.pow(gamma, n // r) != 1 for r in primes))


# fields asked at some n | q - 1 only; the others are asked at every one
_ASKED_ORDERS = {(3, 28): [58, 8]}


# in (7, 3), (13, 2) and (3, 28) the norm decides r | p - 1: r = 2, 3, then 2, 3,
# then 2, beside r = 29 at n = 58 = 2 * 29, which the power decides
@pytest.mark.parametrize("p, m", [(3, 10), (3, 4), (5, 4), (2, 28), (7, 3), (13, 2), (3, 28)])
def test_element_of_order_skipping_known_powers_equals_the_scan(p, m):
    # every n | q - 1, asked ascending and descending on fields of their own, so
    # the beta kept as r-th powers come from other orders than the one asked
    modulus = make_field(p, m).modulus
    oracle = fields.Field(p, m, modulus)
    orders = _ASKED_ORDERS.get((p, m)) or _divisors(oracle.q - 1)
    expected = {n: _scan_without_memo(oracle, n) for n in orders}
    for asked in (orders, orders[::-1]):
        f = fields.Field(p, m, modulus)
        for n in asked:
            assert f.element_of_order(n) == expected[n], (p, m, n)


def test_element_of_order_skips_the_powers_it_has_met(monkeypatch):
    # in GF(3^10) beta = 3 ... 33 are squares, and 2 | p - 1, so one resultant
    # each (the norm) finds them with no power: alone each of n = 8, 44 and 22
    # makes 32 resultants, and the beta that passes one power, or two when
    # 11 | n; after n = 8 has met the squares, n = 44 and n = 22 skip them
    # with no power and no resultant
    modulus = make_field(3, 10).modulus
    assert modulus == (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)
    calls = {"pow": 0, "resultant": 0}
    power, resultant = fields.Field.pow, fields._SlotRing.resultant

    def counted_pow(f, a, e):
        calls["pow"] += 1
        return power(f, a, e)

    def counted_resultant(ring, b):
        calls["resultant"] += 1
        return resultant(ring, b)

    monkeypatch.setattr(fields.Field, "pow", counted_pow)
    monkeypatch.setattr(fields._SlotRing, "resultant", counted_resultant)

    def counts(f, n):
        calls.update(pow=0, resultant=0)
        f.element_of_order(n)
        return calls["pow"], calls["resultant"]

    warm = fields.Field(3, 10, modulus)
    in_turn = [counts(warm, n) for n in (8, 44, 22)]
    alone = [counts(fields.Field(3, 10, modulus), n) for n in (8, 44, 22)]
    assert alone == [(1, 32), (2, 32), (2, 32)]
    assert in_turn == [(1, 32), (2, 1), (2, 1)]


def test_element_of_order_keeps_its_answers(monkeypatch):
    f = make_field(3, 40)
    n = (f.q - 1) // 2
    gamma = f.element_of_order(n)
    calls = []
    monkeypatch.setattr(fields.Field, "pow", lambda *a: calls.append(a))
    assert f.element_of_order(n) == gamma and not calls
    with pytest.raises(ValueError):  # n is checked before the kept answers
        f.element_of_order(f.q)
