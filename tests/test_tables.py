import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from cyclic_pairs import tables
from cyclic_pairs.codes import DEFAULT_CAP, CyclicCode
from cyclic_pairs.factorization import factor_xn1
from cyclic_pairs.fields import field_from_order, make_field
from cyclic_pairs.pairs import exists_ell, pair_analyze
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
    # a bad length is the row's error, as a bad q is, not a failed divisibility check
    for n in (0, 4097):
        outcome = verify_row(tweak(n=n))
        assert outcome.error == f"length must be in 1..4096, got {n}"
        assert not outcome.passed and outcome.checks == {}


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


def test_search_refuses_a_negative_limit(monkeypatch):
    _, walked = _count_lcm_work(monkeypatch)
    assert search_pairs(7, GF2, 0, limit=0).reports == []
    assert walked == []  # a limit of 0 builds no code
    with pytest.raises(ValueError, match="limit"):
        search_pairs(7, GF2, 0, limit=-1)


def test_search_refuses_too_many_divisors_before_listing_any(monkeypatch):
    # x^63 - 1 over GF(2), the largest length search targets, has exactly the bound
    assert tables.MAX_SEARCH_DIVISORS == 8192
    assert len(list(tables._exponent_vectors(factor_xn1(63, GF2)))) == 8192
    monkeypatch.setattr(tables, "pair_census", lambda *args: pytest.fail("ell was checked"))
    monkeypatch.setattr(tables, "_exponent_vectors",
                        lambda *args: pytest.fail("divisors were listed"))
    with pytest.raises(ValueError, match="x\\^105 - 1 has 32768 divisors"):
        search_pairs(105, GF2, 0)


def test_search_infeasible_reports_reason():
    result = search_pairs(9, GF2, 4)
    assert result.infeasible and result.reports == []
    assert result.reason


@pytest.mark.parametrize("ell", [-1, 8])
def test_search_refuses_an_ell_outside_zero_to_n(ell):
    with pytest.raises(ValueError, match=f"ell must satisfy 0 <= ell <= 7, got {ell}"):
        search_pairs(7, GF2, ell)


@pytest.mark.parametrize("n, q", [(9, 2), (21, 2), (8, 3), (15, 4)])
def test_search_is_infeasible_exactly_when_no_divisor_has_degree_ell(n, q):
    f = field_from_order(q)
    for ell in range(n + 1):
        infeasible = search_pairs(n, f, ell, limit=0).infeasible
        assert infeasible == (not exists_ell(n, f, ell).feasible), ell


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


def _search_walks(monkeypatch, n):
    """The vectors walked by a default search at ell = 0 on an empty distance
    store, after checking that each was one orbit and every reported code is stored."""
    fac = factor_xn1(n, GF2)
    fac.distances.clear()
    walked = []
    walk = CyclicCode._enumerate
    monkeypatch.setattr(CyclicCode, "_enumerate",
                        lambda code: walked.append(code.vector) or walk(code))
    result = search_pairs(n, GF2, 0)
    orbits = {frozenset(tuple(v[i] for i in sigma) for sigma in fac.multipliers.values())
              for v in walked}
    assert len(walked) == len(orbits)
    assert all(c.vector in fac.distances for r in result.reports for c in (r.c1, r.c2))
    return walked


def test_search_walks_each_multiplier_orbit_once(monkeypatch):
    # walking every enumerable code with a partner took 23 walks, and 4 before
    # a distance whose BCH and weight bounds meet was settled without a walk
    assert len(_search_walks(monkeypatch, 31)) <= 1


def test_search_at_n63_walks_only_orbits_that_can_reach_the_top(monkeypatch):
    # 399 walks without the bounds, 13 before the BCH bound settled distances
    assert len(_search_walks(monkeypatch, 63)) <= 8


def _clear_stores(fac):
    for store in (fac.distances, fac.generators, fac.bounds):
        store.clear()


PRUNING_CASES = [(15, 2, DEFAULT_CAP), (21, 2, DEFAULT_CAP), (31, 2, DEFAULT_CAP),
                 (12, 2, DEFAULT_CAP), (9, 3, DEFAULT_CAP), (6, 4, DEFAULT_CAP), (31, 2, 2 ** 8)]


@pytest.mark.parametrize("n, q, cap", PRUNING_CASES)
def test_search_with_a_limit_is_the_head_of_the_full_ranking(n, q, cap):
    f = field_from_order(q)
    fac = factor_xn1(n, f)
    for ell in range(n + 1):
        _clear_stores(fac)
        full = search_pairs(n, f, ell, limit=10 ** 6, cap=cap)
        for limit in (0, 1, 3, 20):
            _clear_stores(fac)
            head = search_pairs(n, f, ell, limit=limit, cap=cap)
            assert (head.infeasible, head.skipped_by_cap) == \
                (full.infeasible, full.skipped_by_cap), (ell, limit)
            assert [_report_fields(r) for r in head.reports] == \
                [_report_fields(r) for r in full.reports[:limit]], (ell, limit)


def _count_lcm_work(monkeypatch):
    """Record the (rows, columns) of every _lcm_degrees call and the vector of
    every code the walk builds."""
    calls, walked = [], []
    lcm, from_vector = tables._lcm_degrees, CyclicCode._from_vector
    monkeypatch.setattr(tables, "_lcm_degrees",
                        lambda A, B: calls.append((len(A), len(B))) or lcm(A, B))
    monkeypatch.setattr(CyclicCode, "_from_vector",
                        classmethod(lambda cls, fac, v: walked.append(v) or from_vector(fac, v)))
    return calls, walked


def _admitted(n, f, cap=DEFAULT_CAP):
    """E, the number of nonzero codes of length n whose q^k codewords the cap admits."""
    fac = factor_xn1(n, f)
    return sum(1 <= n - fac.degree(v) and f.q ** (n - fac.degree(v)) <= cap
               for v in tables._exponent_vectors(fac))


def test_search_walk_reads_its_partners_from_the_block_pass(monkeypatch):
    # one _lcm_degrees call per walked code made 398 calls over the 22 searches at n = 21,
    # and partner rows computed again in chunks as the walk grew made 68
    calls, walked = _count_lcm_work(monkeypatch)
    lcm = tables._lcm_degrees

    def before_the_walk(A, B):
        assert not walked, "an lcm call after the walk began"
        return lcm(A, B)

    monkeypatch.setattr(tables, "_lcm_degrees", before_the_walk)
    fac, admitted, total = factor_xn1(21, GF2), _admitted(21, GF2), 0
    for ell in range(22):
        _clear_stores(fac)
        calls.clear()
        walked.clear()
        result = search_pairs(21, GF2, ell, min_d1=2, min_d2=2)
        # the 63 nonzero codes' partner rows fit one block
        assert len(calls) <= (not result.infeasible) + len(walked).bit_length(), ell
        assert all(rows * cols <= max(tables._LCM_BLOCK, cols) for rows, cols in calls)
        assert sum(rows for rows, _ in calls) == (0 if result.infeasible else admitted), ell
        total += len(calls)
    assert total <= 70
    # the full ranking at (31, 2) in PRUNING_CASES walks 113 codes at ell = 0, and
    # the one pass before the walk gives every admitted code its row, once
    _clear_stores(factor_xn1(31, GF2))
    calls.clear()
    walked.clear()
    search_pairs(31, GF2, 0, limit=10 ** 6)
    admitted = _admitted(31, GF2)
    assert len(walked) == 113
    assert sum(rows for rows, _ in calls) == admitted and all(cols == admitted for _, cols in calls)


@pytest.mark.parametrize("block", [1, 40, 600])
def test_search_does_not_depend_on_the_lcm_block_size(monkeypatch, block):
    # small blocks split the partner table's pass into more calls, down to one row per call
    expected = {}
    for n, ell, limit in product((21, 31), (0, 1, 5), (3, 10 ** 6)):
        _clear_stores(factor_xn1(n, GF2))
        result = search_pairs(n, GF2, ell, limit=limit)
        expected[n, ell, limit] = [_report_fields(r) for r in result.reports]
    calls, _ = _count_lcm_work(monkeypatch)
    monkeypatch.setattr(tables, "_LCM_BLOCK", block)
    for (n, ell, limit), fields in expected.items():
        _clear_stores(factor_xn1(n, GF2))
        result = search_pairs(n, GF2, ell, limit=limit)
        assert [_report_fields(r) for r in result.reports] == fields, (n, ell, limit)
    assert all(rows * cols <= max(block, cols) for rows, cols in calls)


@pytest.mark.parametrize("n", [21, 31])
def test_pair_census_counts_every_pair_of_divisors(n):
    fac = factor_xn1(n, GF2)
    vectors = list(tables._exponent_vectors(fac))
    counts = Counter(fac.degree(map(max, a, b)) for a in vectors for b in vectors)
    assert [tables.pair_census(fac, ell) for ell in range(n + 1)] == \
        [counts[n - ell] for ell in range(n + 1)]


def test_all_divisors_leave_the_generator_store_empty():
    fac = factor_xn1(15, GF2)
    fac.generators.clear()
    assert len(list(all_divisors(15, GF2))) == 32
    assert not fac.generators


def _answers_in_any_order(limit):
    """search_pairs at n = 21 for every ell, asked on one store, on a cleared
    store each time, and in a shuffled order; all three must agree."""
    fac = factor_xn1(21, GF2)

    def answer(ell):
        result = search_pairs(21, GF2, ell, limit=limit)
        return (result.infeasible, result.skipped_by_cap,
                [_report_fields(r) for r in result.reports])

    _clear_stores(fac)
    shared = {ell: answer(ell) for ell in range(22)}
    cleared = {}
    for ell in range(22):
        _clear_stores(fac)
        cleared[ell] = answer(ell)
    order = list(range(22))
    random.Random(21).shuffle(order)
    _clear_stores(fac)
    shuffled = {ell: answer(ell) for ell in order}
    assert shared == cleared == shuffled


def test_search_does_not_depend_on_the_store_or_the_order_asked():
    _answers_in_any_order(10 ** 6)


def test_pruned_search_does_not_depend_on_the_store_or_the_order_asked():
    _answers_in_any_order(20)
