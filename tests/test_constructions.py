import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_pairs.constructions import (DivisibilityError, construct_even_2s,
                                        construct_L, construct_mds,
                                        construct_quadratic_2s,
                                        construct_repeated,
                                        construct_s_intersection,
                                        construct_zero_intersection)
from cyclic_pairs.factorization import factor_xn1
from cyclic_pairs.fields import field_from_order, make_field
from cyclic_pairs.poly import Polynomial, parse_poly, xn_minus_1

from helpers import random_divisor

GF2 = make_field(2)


def P(text, q=2):
    return parse_poly(text, field_from_order(q))


# -- L(x) engine ----------------------------------------------------------------

def test_L_example_exact():
    # n = 7, L = x+1, g1 = x^3+x+1: cofactor is the other cubic, coprime to g1
    res = construct_L(7, GF2, P("x+1"), P("x^3+x+1"), P("x^3+x+1"))
    assert res.exact and res.measured_ell == res.target_ell == 1
    assert res.guaranteed_range == (1, 4)
    assert (res.c1.k, res.c2.k) == (4, 1)


def test_L_example_inexact_overshoot():
    # n = 18 over GF(2): x^18-1 = (x^9-1)^2, so with L = x+1 and
    # g1 = x^2+x+1 the cofactor keeps a second copy of g1; the gcd
    # certificate fails and the measured ell overshoots deg L
    res = construct_L(18, GF2, P("x+1"), P("x^2+x+1"), Polynomial.one(GF2))
    assert not res.exact
    assert res.measured_ell > res.target_ell
    lo, hi = res.guaranteed_range
    assert lo <= res.measured_ell <= hi


def test_L_g2_shrinks_second_code_not_the_intersection_bound():
    full = construct_L(15, GF2, P("x+1"), P("x^4+x+1"), P("x^4+x+1"))
    shrunk = construct_L(15, GF2, P("x+1"), P("x^4+x+1"), Polynomial.one(GF2))
    assert shrunk.c2.k == full.c2.k + 4
    assert full.guaranteed_range == shrunk.guaranteed_range


def test_L_precondition_failures_name_the_link():
    with pytest.raises(DivisibilityError) as exc:
        construct_L(7, GF2, P("x^2+1"), P("x^3+x+1"), P("x^3+x+1"))
    assert "L | x^n - 1" in str(exc.value)
    with pytest.raises(DivisibilityError) as exc:
        construct_L(7, GF2, P("x+1"), P("x^3+x^2+x+1"), P("x+1"))
    assert "g1 | (x^n - 1)/L" in str(exc.value)
    with pytest.raises(DivisibilityError) as exc:
        construct_L(7, GF2, P("x+1"), P("x^3+x+1"), P("x^3+x^2+1"))
    assert "g2 | g1" in str(exc.value)
    gf3 = make_field(3)
    with pytest.raises(DivisibilityError) as exc:
        construct_L(8, gf3, parse_poly("2*x+2", gf3),
                    parse_poly("x+1", gf3), parse_poly("x+1", gf3))
    assert "monic" in str(exc.value)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 30), st.sampled_from([2, 3, 4]), st.data())
def test_L_contract_randomized(n, q, data):
    f = field_from_order(q)
    fact = factor_xn1(n, f)
    rng = random.Random(data.draw(st.integers(0, 2 ** 30)))
    L = random_divisor(rng, fact)
    g1 = random_divisor(rng, fact, of=xn_minus_1(f, n) // L)
    g2 = random_divisor(rng, fact, of=g1)
    res = construct_L(n, f, L, g1, g2)
    lo, hi = res.guaranteed_range
    assert (lo, hi) == (L.degree, L.degree + g1.degree)
    assert lo <= res.measured_ell <= hi        # also enforced in __post_init__
    if res.exact:
        assert res.measured_ell == L.degree
    assert res.report.sum_dim + res.measured_ell == res.c1.k + res.c2.k


# -- repeated-root engine ---------------------------------------------------------

def test_repeated_example_full_ladder():
    # p = 2, nu = 1, n' = 7, L = x+1, g1 = x^3+x+1: ell = s for s = 0, 1, 2
    for s in range(3):
        res = construct_repeated(7, GF2, P("x+1"), P("x^3+x+1"),
                                 P("x^3+x+1") ** 2, s, nu=1)
        assert res.exact and res.measured_ell == s
        assert res.c1.n == 14


def test_repeated_ternary():
    gf3 = make_field(3)
    L = parse_poly("x - 1", gf3)
    g1 = parse_poly("x^2 + x + 2", gf3)  # irreducible factor of x^8 - 1
    for s in range(4):
        res = construct_repeated(8, gf3, L, g1, g1, s, nu=1)
        assert res.exact and res.measured_ell == s
        assert res.c1.n == 24


def test_repeated_nu_zero_collapses_to_squarefree():
    res = construct_repeated(7, GF2, P("x+1"), P("x^3+x+1"), P("x^3+x+1"),
                             s=1, nu=0)
    assert res.measured_ell == 1 and res.c1.n == 7


def test_repeated_input_validation():
    with pytest.raises(DivisibilityError):
        construct_repeated(6, GF2, P("x+1"), P("x+1"), P("x+1"), 1, nu=1)  # 2 | n'
    with pytest.raises(ValueError):
        construct_repeated(7, GF2, P("x+1"), P("x^3+x+1"), P("x^3+x+1"), 3, nu=1)
    with pytest.raises(ValueError):
        construct_repeated(7, GF2, P("x+1"), P("x^3+x+1"), P("x^3+x+1"), 1, nu=-1)
    with pytest.raises(DivisibilityError):
        construct_repeated(7, GF2, P("x+1"), P("x^3+x^2+x+1"), P("x+1"), 1, nu=1)


def test_presets():
    res = construct_zero_intersection(7, GF2, P("x^3+x+1"), P("x^3+x+1"), nu=1)
    assert res.measured_ell == 0
    res = construct_s_intersection(7, GF2, P("x^3+x+1"), P("x^3+x+1"), 2, nu=1)
    assert res.measured_ell == 2
    gf3 = make_field(3)
    res = construct_even_2s(8, gf3, parse_poly("x^2+x+2", gf3),
                            parse_poly("x^2+x+2", gf3), 1, nu=0)
    assert res.measured_ell == 2
    res = construct_quadratic_2s(9, GF2, P("x^6+x^3+1"), P("x^6+x^3+1"), 1, nu=0)
    assert res.measured_ell == 2
    with pytest.raises(DivisibilityError):
        construct_quadratic_2s(3, make_field(7),
                               parse_poly("x-1", make_field(7)),
                               parse_poly("x-1", make_field(7)), 1, nu=0)
    with pytest.raises(DivisibilityError):
        construct_even_2s(7, GF2, P("x+1"), P("x+1"), 1, nu=1)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2)]),
       st.integers(1, 15), st.data())
def test_repeated_contract_randomized(pnu_spec, n_prime, data):
    p, nu = pnu_spec
    f = make_field(p)
    if n_prime % p == 0:
        return
    fact = factor_xn1(n_prime, f)
    rng = random.Random(data.draw(st.integers(0, 2 ** 30)))
    L = random_divisor(rng, fact)
    g1 = random_divisor(rng, fact, of=xn_minus_1(f, n_prime) // L)
    g2 = random_divisor(rng, fact, of=g1 ** (p ** nu))
    s = rng.randint(0, p ** nu)
    res = construct_repeated(n_prime, f, L, g1, g2, s, nu)
    assert res.exact
    assert res.measured_ell == L.degree * s


# -- MDS engine -------------------------------------------------------------------

def test_mds_example_gf8():
    gf8 = make_field(2, 3)
    res = construct_mds(gf8, 7, 2, 3, 1, with_distances=True)
    assert res.exact and res.measured_ell == 1
    assert (res.c1.k, res.report.d1) == (2, 6)
    assert (res.c2.k, res.report.d2) == (3, 5)
    # both codes meet the Singleton bound
    assert res.report.d1 == 7 - 2 + 1 and res.report.d2 == 7 - 3 + 1
    assert res.alpha == gf8.element_of_order(7)


def test_mds_validation():
    gf8 = make_field(2, 3)
    with pytest.raises(ValueError):
        construct_mds(gf8, 5, 2, 3, 1)   # 5 does not divide 7
    with pytest.raises(ValueError):
        construct_mds(gf8, 7, 3, 2, 1)   # k1 > k2
    with pytest.raises(ValueError):
        construct_mds(gf8, 7, 4, 5, 1)   # k1 + k2 - ell > n


def test_mds_sweep_small():
    for q in (5, 7, 8, 9):
        f = field_from_order(q)
        for n in range(2, q):
            if (q - 1) % n:
                continue
            for k1 in range(1, n + 1):
                for k2 in range(k1, n + 1):
                    for ell in range(max(0, k1 + k2 - n), k1 + 1):
                        if q ** max(k1, k2) > 1 << 14:
                            res = construct_mds(f, n, k1, k2, ell)
                        else:
                            res = construct_mds(f, n, k1, k2, ell,
                                                with_distances=True)
                            assert res.report.d1 == n - k1 + 1
                            assert res.report.d2 == n - k2 + 1
                        assert res.measured_ell == ell
