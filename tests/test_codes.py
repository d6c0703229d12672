import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_pairs.codes import DEFAULT_CAP, CyclicCode, EnumerationCapExceeded
from cyclic_pairs.constructions import construct_mds
from cyclic_pairs.factorization import factor_xn1
from cyclic_pairs.fields import field_from_order, make_field
from cyclic_pairs.poly import Polynomial, parse_poly, xn_minus_1

from helpers import (code_contains, naive_min_distance, random_divisor,
                     rank_over_field)

GF2 = make_field(2)


def C(n, g_text, q=2):
    f = field_from_order(q)
    return CyclicCode(n, f, parse_poly(g_text, f))


def test_hamming_7_4():
    code = C(7, "x^3+x+1")
    assert (code.n, code.k) == (7, 4)
    assert code.min_distance().d == 3
    dual = code.dual()
    assert (dual.n, dual.k) == (7, 3)
    assert dual.min_distance().d == 4
    # reciprocal of the check polynomial x^4+x^2+x+1
    assert dual.g == parse_poly("x^4+x^3+x^2+1", GF2)


def test_golay_23_12_7():
    code = C(23, "x^11+x^9+x^7+x^6+x^5+x+1")
    assert code.k == 12
    assert code.min_distance().d == 7


def test_repetition_and_parity():
    rep = C(5, "x^4+x^3+x^2+x+1")
    assert rep.k == 1 and rep.min_distance().d == 5
    par = C(5, "x+1")
    assert par.k == 4 and par.min_distance().d == 2


def test_trivial_codes():
    whole = C(6, "[1]")
    assert whole.k == 6 and whole.min_distance().d == 1
    zero = C(6, "x^6+1")
    assert zero.k == 0 and zero.min_distance().d is None


def test_nonbinary_example():
    gf3 = make_field(3)
    code = CyclicCode(11, gf3, parse_poly("x^5 + x^4 + 2*x^3 + x^2 + 2", gf3))
    assert code.k == 6
    assert code.min_distance().d == 5  # ternary Golay


def test_generator_must_divide():
    with pytest.raises(ValueError) as exc:
        C(7, "x^2+1")
    assert "divide" in str(exc.value)


def test_mixed_field_generator_rejected():
    gf3 = make_field(3)
    with pytest.raises(ValueError):
        CyclicCode(7, gf3, parse_poly("x+1", GF2))


def test_contains():
    code = C(7, "x^3+x+1")
    assert code_contains(code, parse_poly("x^3+x+1", GF2))
    assert code_contains(code, parse_poly("x^4+x^2+x", GF2))  # cyclic shift
    assert not code_contains(code, parse_poly("x+1", GF2))
    assert code_contains(code, Polynomial.zero(GF2))


def test_generator_matrix_rank_matches_k():
    rng = random.Random(7)
    for (n, q) in [(7, 2), (15, 2), (8, 3), (13, 3), (5, 4), (12, 5)]:
        f = field_from_order(q)
        fact = factor_xn1(n, f)
        for _ in range(5):
            g = random_divisor(rng, fact)
            code = CyclicCode(n, f, g)
            rows = code.generator_matrix()
            if code.k == 0:
                assert rows == []
            else:
                assert len(rows) == code.k
                assert rank_over_field(rows, f) == code.k


def test_dual_involution_and_dimension():
    rng = random.Random(11)
    for (n, q) in [(9, 2), (14, 2), (10, 3), (6, 4), (8, 5)]:
        f = field_from_order(q)
        fact = factor_xn1(n, f)
        for _ in range(5):
            code = CyclicCode(n, f, random_divisor(rng, fact))
            dual = code.dual()
            assert dual.k == n - code.k
            assert dual.dual() == code
            # every generator-matrix row of one is orthogonal to the other's
            for u in code.generator_matrix():
                for v in dual.generator_matrix():
                    acc = 0
                    for a, b in zip(u, v):
                        acc = f.add(acc, f.mul(a, b))
                    assert acc == 0


def test_distance_matches_naive_oracle():
    rng = random.Random(3)
    cases = [(7, 2), (9, 2), (15, 2), (8, 3), (10, 3), (5, 4), (6, 5)]
    for (n, q) in cases:
        f = field_from_order(q)
        fact = factor_xn1(n, f)
        for _ in range(4):
            code = CyclicCode(n, f, random_divisor(rng, fact))
            if code.k == 0 or f.q ** code.k > 1 << 12:
                continue
            report = code.min_distance()
            assert report.d == naive_min_distance(code)
            assert report.codewords_scanned >= 1


def _bch_31(reps):
    """Binary [31, k] code whose roots are the 2-cyclotomic cosets of reps."""
    fac = factor_xn1(31, GF2)
    g = fac.divisor([int(e.coset_rep in reps) for e in fac.factors])
    return CyclicCode(31, GF2, g)


@pytest.mark.parametrize("reps, k, d", [((1, 3), 21, 5), ((1, 3, 5), 16, 7)])
def test_bch_distance_past_one_block(reps, k, d):
    # k > 14: the Gray-code walk over the high rows runs
    code = _bch_31(reps)
    assert code.k == k
    assert code.min_distance().d == d


def test_quadratic_residue_47_at_default_cap():
    fac = factor_xn1(47, GF2)
    g = next(e.poly for e in fac.factors if e.poly.degree == 23)
    code = CyclicCode(47, GF2, g)
    assert code.k == 24 and 2 ** code.k == DEFAULT_CAP
    assert code.min_distance().d == 11


def test_simplex_127_longer_than_one_word():
    # the dual of a [127, 120] Hamming code; n > 64 packs two words per codeword
    fac = factor_xn1(127, GF2)
    hamming = CyclicCode(127, GF2, next(e.poly for e in fac.factors if e.poly.degree == 7))
    simplex = hamming.dual()
    assert simplex.k == 7
    assert simplex.min_distance().d == 64


@pytest.mark.parametrize("q, n, ks", [(13, 12, (4, 5, 6)), (16, 15, (4, 5))])
def test_reed_solomon_distance_past_one_block(q, n, ks):
    f = field_from_order(q)
    for k in ks:
        assert q ** k > 1 << 14
        code = construct_mds(f, n, k, k, k).c1
        assert code.min_distance().d == n - k + 1


def test_codewords_scanned_counts_every_nonzero_word():
    gf13, gf9 = field_from_order(13), field_from_order(9)
    # GF(9) RS [8,6] (d = 3) walks two high rows of two basis digits each
    for code in (_bch_31((1, 3)), construct_mds(gf13, 12, 5, 5, 5).c1,
                 C(11, "x^5 + x^4 + 2*x^3 + x^2 + 2", q=3),
                 construct_mds(gf9, 8, 6, 6, 6).c1):
        report = code.min_distance()
        assert report.d > 1
        assert report.codewords_scanned == code.field.q ** code.k - 1


@pytest.mark.parametrize("q, n", [(2, 20), (3, 14), (4, 11)])
def test_weight_one_word_stops_the_scan(q, n):
    whole = C(n, "[1]", q=q)  # every word of length n, q^n of them
    report = whole.min_distance()
    assert report.d == 1
    assert report.codewords_scanned < q ** n - 1


def test_cap_is_checked_before_the_distance_store():
    code = C(31, "x+1")  # 2^30 codewords
    with pytest.raises(EnumerationCapExceeded):
        code.min_distance(cap=1 << 10)
    small = C(7, "x^3+x+1")
    assert small.min_distance(cap=1 << 20).d == 3
    # the exact answer is stored, but a tighter cap still refuses the code
    with pytest.raises(EnumerationCapExceeded):
        small.min_distance(cap=1)


def test_codes_with_one_generator_share_one_distance_report():
    a, b = C(15, "x^4+x+1"), C(15, "x^4+x+1")
    assert a is not b
    assert a.min_distance() is b.min_distance()
    # the store is keyed by exponent vector, so a dual built twice shares it too
    assert a.dual().min_distance() is b.dual().min_distance()


def test_repeated_construction_computes_no_distance(monkeypatch):
    gf11 = field_from_order(11)
    first = construct_mds(gf11, 10, 4, 6, 2, with_distances=True)

    def fail(self):
        raise AssertionError(f"{self} recomputed its distance")

    monkeypatch.setattr(CyclicCode, "_enumerate", fail)
    again = construct_mds(gf11, 10, 4, 6, 2, with_distances=True)
    assert (again.report.d1, again.report.d2) == (first.report.d1, first.report.d2) == (7, 5)


def test_singleton_bound_property():
    rng = random.Random(19)
    for (n, q) in [(21, 2), (13, 3), (17, 2)]:
        f = field_from_order(q)
        fact = factor_xn1(n, f)
        for _ in range(6):
            code = CyclicCode(n, f, random_divisor(rng, fact))
            if code.k == 0 or f.q ** code.k > 1 << 16:
                continue
            d = code.min_distance().d
            assert 1 <= d <= n - code.k + 1


WALK_LIMIT = 1 << 20  # q^k; at n = 31 over GF(2) that is k <= 20


@pytest.mark.parametrize("n, q", [(15, 2), (21, 2), (31, 2), (14, 2), (18, 3), (12, 4), (15, 4),
                                  (10, 11)])
def test_one_walk_fills_the_store_for_the_whole_multiplier_orbit(n, q):
    """Asked once per orbit, the store then holds every member, and each stored
    report equals a fresh walk of that member (and the naive oracle on small ones)."""
    f = field_from_order(q)
    fac = factor_xn1(n, f)
    codes = [CyclicCode._from_vector(fac, v)
             for v in product(*(range(e.multiplicity + 1) for e in fac.factors))]
    codes = [c for c in codes if c.k and q ** c.k <= WALK_LIMIT]
    orbits = {frozenset(tuple(c.vector[i] for i in sigma) for sigma in fac.multipliers.values())
              for c in codes}
    fac.distances.clear()
    asked = [c.min_distance() for c in codes if c.vector not in fac.distances]
    assert len(asked) == len(orbits)
    for code in codes:
        stored = fac.distances[code.vector]
        assert code._enumerate() == stored, code
        if q ** code.k <= 1 << 12:
            assert naive_min_distance(code) == stored.d, code
