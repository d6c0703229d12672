import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_pairs.codes import (DEFAULT_CAP, CyclicCode, DistanceReport,
                                EnumerationCapExceeded)
from cyclic_pairs.constructions import construct_mds
from cyclic_pairs.factorization import Factorization, factor_xn1
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
    methods = set()
    for (n, q) in cases:
        f = field_from_order(q)
        fact = factor_xn1(n, f)
        for _ in range(4):
            code = CyclicCode(n, f, random_divisor(rng, fact))
            if code.k == 0 or f.q ** code.k > 1 << 12:
                continue
            report = code.min_distance()
            assert report.d == naive_min_distance(code)
            # a walk scans at least one word; bounds that meet scan none
            if report.method == "full-enumeration":
                assert report.codewords_scanned >= 1
            else:
                assert (report.method, report.codewords_scanned) == ("bounds", 0)
            methods.add(report.method)
    assert methods == {"full-enumeration", "bounds"}


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
    assert code.min_distance().d == code._enumerate().d == d


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


# GF(17) .. GF(81) at the least k past one block walk high rows of m basis digits each
@pytest.mark.parametrize("q, n, ks", [(13, 12, (4, 5, 6)), (16, 15, (4, 5)), (17, 16, (4,)),
                                      (25, 24, (4,)), (27, 26, (3,)), (32, 31, (3,)),
                                      (49, 48, (3,)), (64, 63, (3,)), (81, 80, (3,))])
def test_reed_solomon_distance_past_one_block(q, n, ks):
    # the bounds settle these codes, so the walk is also called directly
    f = field_from_order(q)
    for k in ks:
        assert q ** k > 1 << 14
        code = construct_mds(f, n, k, k, k).c1
        assert code._enumerate() == DistanceReport(n - k + 1, q ** k - 1)
        assert code.min_distance() == DistanceReport(n - k + 1, 0, "bounds")


def test_codewords_scanned_counts_every_nonzero_word():
    gf13, gf9 = field_from_order(13), field_from_order(9)
    # GF(9) RS [8,6] (d = 3) walks two high rows of two basis digits each; the
    # ternary Golay code is the one the bounds leave open (BCH 4, weight 5)
    for code, method in ((_bch_31((1, 3)), "bounds"),
                         (construct_mds(gf13, 12, 5, 5, 5).c1, "bounds"),
                         (C(11, "x^5 + x^4 + 2*x^3 + x^2 + 2", q=3), "full-enumeration"),
                         (construct_mds(gf9, 8, 6, 6, 6).c1, "bounds")):
        walk = code._enumerate()
        assert walk.d > 1
        assert walk.codewords_scanned == code.field.q ** code.k - 1
        report = code.min_distance()
        assert (report.d, report.method) == (walk.d, method)


@pytest.mark.parametrize("q, n", [(2, 20), (3, 14), (4, 11)])
def test_weight_one_word_stops_the_scan(q, n):
    whole = C(n, "[1]", q=q)  # every word of length n, q^n of them
    report = whole._enumerate()
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

    def fail(self, *args):
        raise AssertionError(f"a distance was recomputed: {type(self).__name__}{args}")

    monkeypatch.setattr(CyclicCode, "_enumerate", fail)
    monkeypatch.setattr(Factorization, "bch_bound", fail)
    again = construct_mds(gf11, 10, 4, 6, 2, with_distances=True)
    assert (again.report.d1, again.report.d2) == (first.report.d1, first.report.d2) == (7, 5)


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_a_bch_bound_at_singleton_settles_d_with_no_generator_weight(q, monkeypatch):
    # every divisor of x^(q-1) - 1: where the BCH bound reaches n - k + 1, as for the
    # Reed-Solomon codes of construct_mds, d is settled before weight_bound runs
    f = field_from_order(q)
    n, fac = q - 1, factor_xn1(q - 1, f)
    rs = construct_mds(f, n, 2, 2, 0).c1.vector
    vectors = [v for v in product((0, 1), repeat=n) if 0 < n - fac.degree(v) <= 3]
    singleton = [v for v in vectors if fac.bch_bound(v) == fac.degree(v) + 1]
    assert rs in singleton and len(singleton) < len(vectors)
    expected = {v: naive_min_distance(CyclicCode._from_vector(fac, v)) for v in vectors}
    fac.distances.clear()
    weight_bound = Factorization.weight_bound
    asked = []
    monkeypatch.setattr(Factorization, "weight_bound",
                        lambda self, v: asked.append(tuple(v)) or weight_bound(self, v))
    for v in vectors:
        report = CyclicCode._from_vector(fac, v).min_distance()
        assert report.d == expected[v], v
        if v in singleton:
            assert (report.method, report.codewords_scanned) == ("bounds", 0), v
    assert asked and not set(asked) & set(singleton)


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
    """Asked once per orbit, the store then holds every member.  A walked
    member's report equals a fresh walk of it, a settled one has its d and no
    word scanned, and the naive oracle agrees on small ones."""
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
        if stored.method == "bounds":
            assert (code._enumerate().d, stored.codewords_scanned) == (stored.d, 0), code
        else:
            assert code._enumerate() == stored, code
        if q ** code.k <= 1 << 12:
            assert naive_min_distance(code) == stored.d, code


def _naive_bch(fac, v):
    """1 + the longest run b, b + a, b + 2a, ... of zeros alpha^j, j mod n', over
    every step a coprime to n' (x -> x^a turns step a into step 1)."""
    n_prime, q = fac.n_prime, fac.field.q
    zeros = {e.coset_rep * q ** i % n_prime
             for e, ei in zip(fac.factors, v) if ei for i in range(e.poly.degree)}
    best = 0
    for a in (a for a in range(n_prime) if gcd(a, n_prime) == 1):
        for b in range(n_prime):
            run = 0
            while run < n_prime and (b + run * a) % n_prime in zeros:
                run += 1
            best = max(best, run)
    return 1 + best


ORACLE_LIMIT = 1 << 12  # q^k of the codes walked below


# every q of the bound checks, plus a repeated-root length (n = 4 * 3 over GF(2))
@pytest.mark.parametrize("n, q", [(15, 2), (21, 2), (13, 3), (15, 4), (12, 5), (8, 7), (7, 8),
                                  (8, 9), (10, 11), (12, 2)])
def test_every_walked_distance_lies_between_the_bch_and_weight_bounds(n, q):
    """Over every nonzero divisor code: the BCH bound is one value on each
    multiplier orbit and matches a run count over every step, bch <= walked
    d <= weight, and the store holds the same reports whichever orbit member
    is asked first."""
    f = field_from_order(q)
    fac = factor_xn1(n, f)
    vectors = [v for v in product(*(range(e.multiplicity + 1) for e in fac.factors))
               if fac.degree(v) < n]
    small = [v for v in vectors if q ** (n - fac.degree(v)) <= ORACLE_LIMIT]
    for v in vectors:
        bch = fac.bch_bound(v)
        assert bch == (_naive_bch(fac, v) if fac.nu == 0 else 1), v
        assert {fac.bch_bound(u) for u in fac.orbit(v)} == {bch}, v
    for v in small:
        d = CyclicCode._from_vector(fac, v)._enumerate().d
        assert fac.bch_bound(v) <= d <= fac.weight_bound(v), v
    stores = []
    for order in (small, small[::-1]):
        fac.distances.clear()
        for v in order:
            CyclicCode._from_vector(fac, v).min_distance()
        stores.append(dict(fac.distances))
    assert stores[0] == stores[1]
