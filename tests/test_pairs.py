import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_pairs.codes import CyclicCode
from cyclic_pairs.factorization import factor_xn1
from cyclic_pairs.fields import field_from_order, make_field
from cyclic_pairs.pairs import (exists_ell, hull_dim, pair_analyze,
                                small_ell_predicate)
from cyclic_pairs.poly import parse_poly, xn_minus_1
from cyclic_pairs.tables import all_divisors

from helpers import (brute_force_divisor_degrees, code_contains, divides,
                     poly_dual_generator, poly_pair_analysis, random_divisor,
                     rank_over_field)

GF2 = make_field(2)


def C(n, g_text, q=2):
    f = field_from_order(q)
    return CyclicCode(n, f, parse_poly(g_text, f))


# -- pair_analyze --------------------------------------------------------------

def test_hamming_pair_example():
    c1 = C(7, "x^3+x+1")
    c2 = C(7, "x^3+x^2+1")
    rep = pair_analyze(c1, c2, with_distances=True)
    assert rep.ell == 1
    assert rep.sum_dim == 7
    assert rep.intersection_generator == parse_poly(
        "x^6+x^5+x^4+x^3+x^2+x+1", GF2)
    assert rep.sum_generator.is_one()
    assert (rep.d1, rep.d2) == (3, 3)
    assert "ell=1" in rep.render()


def test_identical_codes_pair():
    c = C(15, "x^4+x+1")
    rep = pair_analyze(c, c)
    assert rep.ell == c.k == rep.sum_dim == 11
    assert rep.intersection_generator == c.g == rep.sum_generator


def test_nested_codes_pair():
    big = C(7, "x+1")
    small = C(7, "x^4+x^2+x+1")
    rep = pair_analyze(big, small)
    assert rep.ell == small.k == 3
    assert rep.sum_dim == big.k == 6


def test_pair_mismatch_errors():
    with pytest.raises(ValueError):
        pair_analyze(C(7, "x+1"), C(9, "x+1"))
    gf3 = make_field(3)
    with pytest.raises(ValueError):
        pair_analyze(C(8, "x+1"), CyclicCode(8, gf3, parse_poly("x-1", gf3)))


def test_pair_dimensions_match_rank_oracle():
    rng = random.Random(5)
    for (n, q) in [(7, 2), (12, 2), (15, 2), (8, 3), (9, 3), (5, 4)]:
        f = field_from_order(q)
        fact = factor_xn1(n, f)
        for _ in range(6):
            c1 = CyclicCode(n, f, random_divisor(rng, fact))
            c2 = CyclicCode(n, f, random_divisor(rng, fact))
            rep = pair_analyze(c1, c2)
            stacked = c1.generator_matrix() + c2.generator_matrix()
            sum_rank = rank_over_field(stacked, f) if stacked else 0
            assert rep.sum_dim == sum_rank
            # inclusion-exclusion pins the intersection dimension
            assert rep.ell == c1.k + c2.k - sum_rank
            # and the claimed generators really generate codes of those sizes
            if rep.ell:
                inter = CyclicCode(n, f, rep.intersection_generator)
                assert inter.k == rep.ell
                from cyclic_pairs.poly import Polynomial
                for row in inter.generator_matrix():
                    word = Polynomial(f, row)
                    assert code_contains(c1, word) and code_contains(c2, word)


# the (n, q) set of test_tables.py::test_search_matches_brute_force_pair_analysis
ORACLE_CASES = [(12, 2), (6, 3), (9, 3), (6, 4)]


@pytest.mark.parametrize("n, q", ORACLE_CASES)
def test_vector_pair_analysis_matches_polynomial_oracle(n, q):
    f = field_from_order(q)
    codes = [CyclicCode(n, f, g) for g in all_divisors(n, f)]
    for c1 in codes:
        for c2 in codes:
            rep = pair_analyze(c1, c2)
            assert (rep.ell, rep.sum_dim, rep.intersection_generator,
                    rep.sum_generator) == poly_pair_analysis(c1, c2), (c1, c2)


@pytest.mark.parametrize("n, q", ORACLE_CASES + [(7, 2), (15, 2), (21, 2), (13, 3),
                                                 (15, 4), (9, 4), (10, 9)])
def test_vector_dual_and_hull_match_polynomial_oracle(n, q):
    f = field_from_order(q)
    for g in all_divisors(n, f):
        c = CyclicCode(n, f, g)
        dual = c.dual()
        assert dual.g == poly_dual_generator(c), c
        assert dual.vector == CyclicCode(n, f, dual.g).vector
        assert hull_dim(c) == poly_pair_analysis(c, dual)[0], c


def test_hull_examples():
    # the [7,4] Hamming code contains its dual: (x+1)(x^3+x+1) generates it
    assert hull_dim(C(7, "x^3+x+1")) == 3
    # the even-weight [7,6] code misses the all-ones word, so the hull is 0
    assert hull_dim(C(7, "x+1")) == 0


# -- exists_ell ----------------------------------------------------------------

def test_exists_examples():
    w = exists_ell(7, GF2, 4)
    assert w.feasible and w.witness.degree == 4
    assert exists_ell(9, GF2, 4).feasible is False
    assert exists_ell(15, GF2, 0).feasible
    assert exists_ell(15, GF2, 15).witness == xn_minus_1(GF2, 15)
    with pytest.raises(ValueError):
        exists_ell(7, GF2, 8)
    with pytest.raises(ValueError):
        exists_ell(7, GF2, -1)


def test_exists_witness_is_lex_least_vector():
    # n=7: factors (x+1), then two cubics; ell=4 must use 1 + 3, and the
    # lex-least vector takes zero copies of the earlier cubic: (1, 0, 1)
    w = exists_ell(7, GF2, 4)
    assert w.multiplicity_vector == (1, 0, 1)


def test_exists_matches_brute_force():
    for (n, q) in [(n, 2) for n in range(1, 25)] + [(n, 3) for n in range(1, 13)]:
        f = field_from_order(q)
        fact = factor_xn1(n, f)
        attainable = brute_force_divisor_degrees(fact)
        for ell in range(n + 1):
            w = exists_ell(n, f, ell, fact)
            assert w.feasible == (ell in attainable), (n, q, ell)
            if w.feasible:
                assert w.witness.degree == (ell if ell else None) or ell == 0
                assert divides(w.witness, xn_minus_1(f, n))
                assert sum(s * e.poly.degree for s, e in
                           zip(w.multiplicity_vector, fact.factors)) == ell


def test_exists_refuses_a_factorization_of_another_polynomial():
    # x^7 - 1 has no degree-2 divisor; x^15 - 1 has x^2 + x + 1
    with pytest.raises(ValueError, match="not of x\\^7 - 1 over GF\\(2\\)"):
        exists_ell(7, GF2, 2, factor_xn1(15, GF2))
    with pytest.raises(ValueError, match="not of x\\^3 - 1 over GF\\(2\\)"):
        exists_ell(3, GF2, 1, factor_xn1(3, field_from_order(4)))
    for ell in range(16):
        assert exists_ell(15, GF2, ell, factor_xn1(15, GF2)) == exists_ell(15, GF2, ell)


# -- small-ell shortcuts ---------------------------------------------------------

def test_small_ell_always_feasible_below_two():
    for n in range(1, 30):
        for q in (2, 3, 4):
            f = field_from_order(q)
            ok0, _ = small_ell_predicate(n, f, 0)
            ok1, _ = small_ell_predicate(n, f, 1)
            assert ok0 and ok1


def test_small_ell_two_matches_exists():
    for q in (2, 3, 5):
        f = field_from_order(q)
        for n in range(2, 65):
            ok, reason = small_ell_predicate(n, f, 2)
            assert ok == exists_ell(n, f, 2).feasible, (n, q, reason)
    with pytest.raises(ValueError):
        small_ell_predicate(7, GF2, 3)


def test_small_ell_known_reasons():
    ok, reason = small_ell_predicate(14, GF2, 2)
    assert ok and "even" in reason
    ok, reason = small_ell_predicate(9, make_field(3), 2)
    assert ok and "nu" in reason
    ok, reason = small_ell_predicate(9, GF2, 2)
    assert ok and "ord" in reason  # ord_3(2) = 2
    ok, _ = small_ell_predicate(7, GF2, 2)
    assert not ok  # factors of x^7-1 have degrees 1, 3, 3 only


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.sampled_from([2, 3, 4, 5]), st.data())
def test_pair_identities_property(n, q, data):
    f = field_from_order(q)
    fact = factor_xn1(n, f)
    rng = random.Random(data.draw(st.integers(0, 2 ** 30)))
    c1 = CyclicCode(n, f, random_divisor(rng, fact))
    c2 = CyclicCode(n, f, random_divisor(rng, fact))
    rep = pair_analyze(c1, c2)
    assert rep.ell + rep.sum_dim == c1.k + c2.k
    assert 0 <= rep.ell <= min(c1.k, c2.k)
    assert max(c1.k, c2.k) <= rep.sum_dim <= n
    assert divides(rep.sum_generator, c1.g) and divides(rep.sum_generator, c2.g)
    assert divides(c1.g, rep.intersection_generator)
    assert divides(rep.intersection_generator, xn_minus_1(f, n))
