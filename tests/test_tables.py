import random
from dataclasses import replace

import pytest

from cyclic_pairs import tables
from cyclic_pairs.codes import DEFAULT_CAP, CyclicCode
from cyclic_pairs.factorization import factor_xn1
from cyclic_pairs.fields import field_from_order, make_field
from cyclic_pairs.pairs import pair_analyze
from cyclic_pairs.poly import xn_minus_1
from cyclic_pairs.tables import (CHECK_NAMES, TableRow, all_divisors,
                                 load_table_rows, search_pairs, verify_row,
                                 verify_table)

from helpers import brute_force_divisor_degrees, divides, naive_min_distance

GF2 = make_field(2)


def test_bundled_corpus_shape():
    rows = load_table_rows()
    assert len(rows) == 42
    assert all(r.q == 2 for r in rows)
    by_ell = {}
    for r in rows:
        by_ell[r.ell] = by_ell.get(r.ell, 0) + 1
    assert by_ell == {0: 24, 1: 5, 2: 13}


def test_bundled_corpus_verifies():
    summary = verify_table(load_table_rows())
    failures = [o for o in summary.outcomes if not o.passed]
    assert not failures, failures
    assert summary.passed == 42 and summary.failed == 0


def test_verify_row_checks_all_seven_names():
    row = load_table_rows()[0]
    outcome = verify_row(row)
    assert set(outcome.checks) == set(CHECK_NAMES)
    assert outcome.passed and outcome.error is None


def test_verify_row_detects_each_kind_of_error():
    good = load_table_rows()[0]

    def tweak(**kw):
        d = {f: getattr(good, f) for f in
             ("n", "q", "k1", "d1", "k2", "d2", "ell",
              "g1_text", "g2_text", "lineno")}
        d.update(kw)
        return TableRow(**d)

    assert not verify_row(tweak(k1=good.k1 + 1)).checks["dim_c"]
    assert not verify_row(tweak(d2=good.d2 + 1)).checks["dist_d"]
    assert not verify_row(tweak(ell=good.ell + 1)).checks["ell"]
    bad = verify_row(tweak(g1_text="x^2 + 1" if good.n % 2 else "x^3 + 1"))
    assert not bad.passed
    broken = verify_row(tweak(g1_text="x^"))
    assert not broken.passed and broken.error is not None


def test_all_divisors_matches_brute_force_degrees():
    for (n, q) in [(7, 2), (12, 2), (8, 3)]:
        f = make_field(q) if q != 4 else make_field(2, 2)
        fact = factor_xn1(n, f)
        divisors = list(all_divisors(n, f))
        # each listed polynomial really divides, no duplicates, right count
        assert len(divisors) == len(set(d.coeffs for d in divisors))
        expected_count = 1
        for e in fact.factors:
            expected_count *= e.multiplicity + 1
        assert len(divisors) == expected_count
        xn1 = xn_minus_1(f, n)
        assert all(divides(d, xn1) for d in divisors)
        assert {d.degree or 0 for d in divisors} == \
            brute_force_divisor_degrees(fact)


def test_search_finds_known_pair():
    result = search_pairs(7, GF2, 0, min_d1=3, min_d2=3)
    assert not result.infeasible
    rendered = {(r.c1.k, r.d1, r.c2.k, r.d2) for r in result.reports}
    assert (3, 4, 4, 3) in rendered or (4, 3, 3, 4) in rendered


def test_search_respects_limit_and_order():
    full = search_pairs(15, GF2, 0, limit=1000)
    top = search_pairs(15, GF2, 0, limit=3)
    assert len(top.reports) == 3
    assert [r.render() for r in top.reports] == \
        [r.render() for r in full.reports[:3]]
    scores = [(r.d1 + r.d2, r.d1 * r.d2) for r in full.reports]
    assert scores == sorted(scores, reverse=True)


def test_search_refuses_a_negative_limit():
    assert search_pairs(7, GF2, 0, limit=0).reports == []
    with pytest.raises(ValueError, match="limit"):
        search_pairs(7, GF2, 0, limit=-1)


def test_search_refuses_too_many_divisors_before_listing_any(monkeypatch):
    # x^63 - 1 over GF(2), the largest length search targets, has exactly the bound
    assert tables.MAX_SEARCH_DIVISORS == 8192
    assert len(list(tables._exponent_vectors(factor_xn1(63, GF2)))) == 8192
    monkeypatch.setattr(tables, "exists_ell", lambda *args: pytest.fail("ell was checked"))
    monkeypatch.setattr(tables, "_exponent_vectors",
                        lambda *args: pytest.fail("divisors were listed"))
    with pytest.raises(ValueError, match="x\\^105 - 1 has 32768 divisors"):
        search_pairs(105, GF2, 0)


def test_search_infeasible_reports_reason():
    result = search_pairs(9, GF2, 4)
    assert result.infeasible and result.reports == []
    assert result.reason


def test_search_min_distance_filters():
    loose = search_pairs(7, GF2, 1, limit=1000)
    tight = search_pairs(7, GF2, 1, min_d1=3, min_d2=3, limit=1000)
    assert len(tight.reports) < len(loose.reports)
    assert all(r.d1 >= 3 and r.d2 >= 3 for r in tight.reports)
    assert all(r.ell == 1 for r in tight.reports)


def test_search_cap_skip_counter():
    result = search_pairs(31, GF2, 0, limit=5, cap=1 << 8)
    assert result.skipped_by_cap > 0


def test_cap_skips_do_not_depend_on_earlier_searches():
    before = search_pairs(31, GF2, 0, limit=5, cap=1 << 8).skipped_by_cap
    search_pairs(31, GF2, 0)  # stores the distance of every code up to 2^24 words
    assert search_pairs(31, GF2, 0, limit=5, cap=1 << 8).skipped_by_cap == before


def test_search_reports_codes_past_the_default_cap_when_the_cap_allows():
    result = search_pairs(25, GF2, 24, cap=2 ** 25)
    assert len(result.reports) == 3 and result.skipped_by_cap == 0
    whole = [c for r in result.reports for c in (r.c1, r.c2) if c.k == 25]
    assert whole and all(c.min_distance(cap=2 ** 25).d == 1 for c in whole)


def _report_fields(r):
    return (r.c1.n, r.c1.field.q, r.c1.k, r.c1.g.coeffs, r.d1,
            r.c2.k, r.c2.g.coeffs, r.d2, r.ell, r.sum_dim,
            r.intersection_generator.coeffs, r.sum_generator.coeffs)


def _brute_force_search(n, f):
    """ell -> every ordered pair of nonzero divisor codes with that ell, found
    by pair_analyze and ranked as search_pairs documents."""
    codes = [CyclicCode(n, f, g) for g in all_divisors(n, f)]
    dist = {c: naive_min_distance(c) for c in codes}
    reports = [replace(pair_analyze(c1, c2), d1=dist[c1], d2=dist[c2])
               for c1 in codes for c2 in codes if c1.k and c2.k]
    reports.sort(key=lambda r: (-(r.d1 + r.d2), -(r.d1 * r.d2),
                                r.c1.g.coeffs, r.c2.g.coeffs))
    return {ell: [r for r in reports if r.ell == ell] for ell in range(n + 1)}


@pytest.mark.parametrize("n, q, cap, min_d1, min_d2", [
    (12, 2, DEFAULT_CAP, 1, 1), (6, 3, DEFAULT_CAP, 1, 1), (9, 3, DEFAULT_CAP, 1, 1),
    (6, 4, DEFAULT_CAP, 1, 1),
    # ell = 0 is feasible, but no two nonzero codes meet in dimension 0
    (1, 2, DEFAULT_CAP, 1, 1), (2, 2, DEFAULT_CAP, 1, 1),
    (12, 2, 2 ** 6, 1, 1), (9, 3, DEFAULT_CAP, 3, 2)],
    ids=["12-2", "6-3", "9-3", "6-4", "1-2", "2-2", "12-2-cap64", "9-3-min3-2"])
def test_search_matches_brute_force_pair_analysis(n, q, cap, min_d1, min_d2):
    f = field_from_order(q)
    expected = _brute_force_search(n, f)
    for ell in range(n + 1):
        result = search_pairs(n, f, ell, min_d1, min_d2, limit=10 ** 6, cap=cap)
        pairs = expected[ell]
        # a pair with either side past the cap is skipped before the distance filter
        within = [r for r in pairs if q ** r.c1.k <= cap and q ** r.c2.k <= cap]
        assert result.skipped_by_cap == len(pairs) - len(within), ell
        assert [_report_fields(r) for r in result.reports] == \
            [_report_fields(r) for r in within if r.d1 >= min_d1 and r.d2 >= min_d2], ell
