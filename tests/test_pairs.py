import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_pairs import pairs
from cyclic_pairs.codes import CyclicCode
from cyclic_pairs.factorization import factor_xn1
from cyclic_pairs.fields import field_from_order, make_field
from cyclic_pairs.pairs import (ExistenceWitness, exists_ell, hull_dim,
                                pair_analyze, small_ell_predicate)
from cyclic_pairs.poly import Polynomial, parse_poly, xn_minus_1
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


def test_existence_witness_is_an_immutable_named_tuple():
    assert ExistenceWitness._fields == ("n", "q", "ell", "feasible",
                                        "multiplicity_vector", "witness")
    pairs._latest[0] = None
    w, no = exists_ell(7, GF2, 4), exists_ell(9, GF2, 4)
    assert (w.n, w.q, w.ell, w.feasible, w.multiplicity_vector) == (7, 2, 4, True, (1, 0, 1))
    assert w.witness == parse_poly("x^4+x^3+x^2+1", GF2)
    assert tuple(no) == (9, 2, 4, False, None, None)
    # truth is feasibility, not the length of the tuple
    assert bool(w) is w.feasible is True and bool(no) is no.feasible is False
    with pytest.raises(AttributeError):
        w.ell = 3
    pairs._latest[0] = None  # a fresh spectrum builds an equal witness polynomial
    again = exists_ell(7, GF2, 4)
    assert again.witness is not w.witness
    assert again == w and hash(again) == hash(w)


BRUTE_FORCE_CASES = [(n, 2) for n in range(1, 25)] + [(n, 3) for n in range(1, 13)]


def test_exists_matches_brute_force():
    for (n, q) in BRUTE_FORCE_CASES:
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


# repeated-root lengths with several copies of several factors: x^12 - 1 over
# GF(4) is (x^3 - 1)^4, three linear factors four times each; over GF(65537)
# x^16 - 1 splits into 16 linear factors and x^24 - 1 into 8 linear and 8
# quadratic ones, so a witness asked cold is a chain of many one-copy steps
LEX_LEAST_CASES = (BRUTE_FORCE_CASES + [(n, 4) for n in range(1, 13)]
                   + [(n, 5) for n in range(1, 11)] + [(16, 65537), (24, 65537)])


def test_exists_witness_is_the_lex_least_vector_by_brute_force():
    # asked ascending, descending and shuffled from a fresh spectrum, so each
    # witness is grown from a kept one of every kind: t = 1, 1 < t < s and t = s
    rng = random.Random(5)
    for (n, q) in LEX_LEAST_CASES:
        f = field_from_order(q)
        fact = factor_xn1(n, f)
        first = {}  # itertools.product runs through the vectors in lex order
        for vector in product(*(range(e.multiplicity + 1) for e in fact.factors)):
            first.setdefault(fact.degree(vector), vector)
        shuffled = list(range(n + 1))
        rng.shuffle(shuffled)
        for order in (range(n + 1), range(n, -1, -1), shuffled):
            pairs._latest[0] = None
            for ell in order:
                w = exists_ell(n, f, ell, fact)
                assert w.multiplicity_vector == first.get(ell), (n, q, ell)
                if w.feasible:
                    assert w.witness == fact.divisor(w.multiplicity_vector), (n, q, ell)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_exists_witness_is_the_divisor_of_its_vector(q):
    # the witness products are built from shared tails; multiplying the
    # vector out afresh is the oracle, with ell asked in a shuffled order
    f = field_from_order(q)
    rng = random.Random(q)
    for n in range(1, 65):
        fact = factor_xn1(n, f)
        ells = list(range(n + 1))
        rng.shuffle(ells)
        for ell in ells:
            w = exists_ell(n, f, ell, fact)
            if w.feasible:
                assert w.witness == fact.divisor(w.multiplicity_vector), (n, q, ell)
                assert w.witness.degree == ell


def test_exists_does_not_depend_on_what_was_asked_before():
    f = field_from_order(3)
    cases = [(n, factor_xn1(n, f)) for n in (36, 26)]

    def fresh(n, fact, ell):
        pairs._latest[0] = None  # forget the kept spectrum
        return exists_ell(n, f, ell, fact)

    expected = {(n, ell): fresh(n, fact, ell) for n, fact in cases for ell in range(n + 1)}
    for ell in range(26, -1, -1):  # alternate between the two factorizations
        for n, fact in cases:
            assert exists_ell(n, f, ell, fact) == expected[n, ell], (n, ell)
    for n, _ in cases:  # one after the other, without a factorization given
        for ell in range(n + 1):
            assert exists_ell(n, f, ell) == expected[n, ell], (n, ell)


def _count_products(monkeypatch):
    """Counts every Polynomial.__mul__ (also inside __pow__) and __pow__ call."""
    calls, mul, power = {"mul": 0, "pow": 0}, Polynomial.__mul__, Polynomial.__pow__

    def counted_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    def counted_pow(a, e):
        calls["pow"] += 1
        return power(a, e)

    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(Polynomial, "__pow__", counted_pow)
    return calls


@pytest.mark.parametrize("n, q", [(60, 4), (63, 2), (40, 3), (48, 2), (50, 5)])
def test_exists_asked_in_ascending_order_makes_one_product_per_ell(n, q, monkeypatch):
    # each witness is f_i times the kept witness of ell - deg f_i, raising no power
    f = field_from_order(q)
    fact = factor_xn1(n, f)
    pairs._latest[0] = None
    calls = _count_products(monkeypatch)
    feasible = sum(exists_ell(n, f, ell, fact).feasible for ell in range(1, n + 1))
    assert calls == {"mul": feasible, "pow": 0}


@pytest.mark.parametrize("n, q, ells", [(4096, 2, (4095, 2049)), (4096, 2, (2049, 4095)),
                                        (2187, 3, (2000, 1093))])
def test_cold_exists_makes_logarithmically_many_products(n, q, ells, monkeypatch):
    # one factor of multiplicity n: a cold witness is one power by square-and-
    # multiply, not ell products stepping one copy at a time from the kept ones
    f = field_from_order(q)
    fact = factor_xn1(n, f)
    pairs._latest[0] = None
    calls = _count_products(monkeypatch)
    for ell in ells:
        calls["mul"] = 0
        w = exists_ell(n, f, ell, fact)
        assert w.multiplicity_vector == (ell,)
        assert calls["mul"] <= 2 * n.bit_length() + 1, (n, q, ell)
    monkeypatch.undo()
    assert w.witness == fact.factors[0].poly ** ells[-1]


@pytest.mark.parametrize("n", [16, 24, 256])
def test_cold_chains_over_gf65537_match_an_ascending_sweep(n):
    # every ell asked from a fresh spectrum, each witness of its chain stored as
    # a link; x^256 - 1 splits into 256 linear factors
    f = field_from_order(65537)
    fact = factor_xn1(n, f)
    pairs._latest[0] = None
    ascending = [exists_ell(n, f, ell, fact) for ell in range(n + 1)]
    for ell in range(n + 1) if n < 256 else (1, 129, 200, 255, 256):
        pairs._latest[0] = None
        w = exists_ell(n, f, ell, fact)
        assert w == ascending[ell], (n, ell)
        if w.feasible:
            assert w.witness == fact.divisor(w.multiplicity_vector), (n, ell)
    spectrum = pairs._latest[0]
    # a chain keeps a link per witness, and a vector for the ell asked only
    assert set(spectrum.vectors) == {0, ell}
    assert set(spectrum.links) == set(spectrum.witnesses) - {0}
    rng = random.Random(n)
    shuffled = list(range(n + 1))
    rng.shuffle(shuffled)
    for ell in shuffled:  # cold chains that end at kept witnesses
        assert exists_ell(n, f, ell, fact) == ascending[ell], (n, ell)


# every length of the factor sweep, one factor of multiplicity 4 096, and 256
# linear factors
STOP_CASES = ([(n, q) for q in (2, 3, 4, 5, 8, 9) for n in range(1, 65)]
              + [(4096, 2), (256, 65537)])


def test_first_factor_table_equals_the_linear_scan():
    # stop[ell], built from the bits of reach[i] & ~reach[i + 1], is the first
    # factor i whose successors cannot reach ell, found here by scanning from 0
    for n, q in STOP_CASES:
        spectrum = pairs._DegreeSpectrum(factor_xn1(n, field_from_order(q)))
        reach = spectrum.reach
        for ell in range(1, n + 1):
            if reach[0] >> ell & 1:
                i = 0
                while reach[i + 1] >> ell & 1:
                    i += 1
                assert spectrum.stop[ell] == i, (n, q, ell)


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
