"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Criterion 7 runs the full MDS sweep, q <= 13.
"""

import random
import time
from math import gcd

from cyclic_pairs.constructions import construct_L, construct_mds, construct_repeated
from cyclic_pairs.cyclotomic import coset_count, mult_order
from cyclic_pairs.factorization import factor_xn1, split_length
from cyclic_pairs.fields import field_from_order, make_field
from cyclic_pairs.pairs import exists_ell, pair_analyze, small_ell_predicate
from cyclic_pairs.codes import CyclicCode
from cyclic_pairs.poly import Polynomial, xn_minus_1
from cyclic_pairs.tables import load_table_rows, verify_table

from helpers import (brute_force_divisor_degrees, divides, poly_gcd,
                     random_divisor, rank_over_field)


def _verdict(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} acceptance criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_table_reproduction():
    start = time.time()
    summary = verify_table(load_table_rows())
    elapsed = time.time() - start
    bad = [o.row.params() for o in summary.outcomes if not o.passed]
    ok = summary.all_passed and not bad and elapsed < 60
    _verdict(1, ok, f"bundled tables {summary.passed}/42 rows exact "
                    f"in {elapsed:.1f}s (failures: {bad or 'none'})")


def _poly_powmod(base, e, mod):
    result = Polynomial.one(base.field)
    cur = base % mod
    while e:
        if e & 1:
            result = (result * cur) % mod
        cur = (cur * cur) % mod
        e >>= 1
    return result


def _irreducible_recheck(f):
    """Independent irreducibility test via x^(q^r) == x mod f and
    gcd(x^(q^(r/t)) - x, f) = 1 for prime t | r, using only Polynomial ops."""
    q, r = f.field.q, f.degree
    if r == 0:
        return False
    x = Polynomial(f.field, (0, 1))
    if _poly_powmod(x, q ** r, f) != x % f:
        return False
    t, rem, primes = 2, r, set()
    while t * t <= rem:
        if rem % t == 0:
            primes.add(t)
            while rem % t == 0:
                rem //= t
        t += 1
    if rem > 1:
        primes.add(rem)
    for t in primes:
        probe = _poly_powmod(x, q ** (r // t), f) - x
        if probe.is_zero() or not poly_gcd(probe, f).is_one():
            return False
    return True


def test_criterion_2_factorization_round_trip():
    start = time.time()
    checked, failures = 0, []
    for q in (2, 3, 4, 5, 8, 9):
        f = field_from_order(q)
        for n in range(1, 65):
            fac = factor_xn1(n, f)
            if fac.product() != xn_minus_1(f, n):
                failures.append(("product", n, q))
            nu, n_prime = split_length(n, f)
            if len(fac.factors) != coset_count(n_prime, q):
                failures.append(("count", n, q))
            for e in fac.factors:
                if not _irreducible_recheck(e.poly):
                    failures.append(("irreducible", n, q, str(e.poly)))
            checked += 1
    elapsed = time.time() - start
    ok = not failures and elapsed < 120
    _verdict(2, ok, f"{checked} (n, q) factorizations round-trip with "
                    f"independent irreducibility re-checks in {elapsed:.1f}s "
                    f"(failures: {failures[:3] or 'none'})")


def test_criterion_3_existence_oracle_equivalence():
    failures = []
    cases = [(n, 2) for n in range(1, 25)] + [(n, 3) for n in range(1, 13)]
    for n, q in cases:
        f = field_from_order(q)
        fac = factor_xn1(n, f)
        attainable = brute_force_divisor_degrees(fac)
        for ell in range(n + 1):
            w = exists_ell(n, f, ell, fac)
            if w.feasible != (ell in attainable):
                failures.append((n, q, ell))
            elif w.feasible:
                deg = w.witness.degree or 0
                if deg != ell or not divides(w.witness, xn_minus_1(f, n)):
                    failures.append((n, q, ell, "bad witness"))
    _verdict(3, not failures,
             f"existence oracle matches brute-force divisor enumeration on "
             f"{len(cases)} lengths (mismatches: {failures[:3] or 'none'})")


def test_criterion_4_small_ell_shortcuts():
    failures = []
    for q in (2, 3, 5):
        f = field_from_order(q)
        for n in range(1, 65):
            for ell in (0, 1):
                ok, _ = small_ell_predicate(n, f, ell)
                if not ok:
                    failures.append((n, q, ell))
            ok2, _ = small_ell_predicate(n, f, 2)
            nu, n_prime = split_length(n, f)
            closed_form = (n % 2 == 0 or nu >= 1 or
                            any(n_prime % d == 0 and mult_order(q, d) == 2
                                for d in range(1, n_prime + 1)))
            if closed_form and not ok2:
                failures.append((n, q, 2, "closed-form case missed"))
            oracle = n >= 2 and exists_ell(n, f, 2).feasible
            if ok2 != oracle:
                failures.append((n, q, 2, "oracle disagrees"))
    _verdict(4, not failures,
             f"small-intersection feasibility shortcuts hold for n <= 64, "
             f"q in (2, 3, 5) (failures: {failures[:3] or 'none'})")


def test_criterion_5_L_construction_contract():
    rng = random.Random(20260826)
    instances, violations = 0, []
    while instances < 500:
        n = rng.randint(2, 30)
        q = rng.choice((2, 3, 4))
        f = field_from_order(q)
        fac = factor_xn1(n, f)
        L = random_divisor(rng, fac)
        g1 = random_divisor(rng, fac, of=xn_minus_1(f, n) // L)
        g2 = random_divisor(rng, fac, of=g1)
        res = construct_L(n, f, L, g1, g2)
        lo, hi = res.guaranteed_range
        if not lo <= res.measured_ell <= hi:
            violations.append((n, q, "range"))
        if res.exact and res.measured_ell != (L.degree or 0):
            violations.append((n, q, "gcd certificate"))
        if gcd(n, q) == 1 and res.measured_ell != (L.degree or 0):
            violations.append((n, q, "simple-root exactness"))
        instances += 1
    _verdict(5, not violations,
             f"prescribed-intersection construction kept its range and "
             f"exactness contract on {instances} randomized instances "
             f"(violations: {violations[:3] or 'none'})")


def test_criterion_6_repeated_root_ladder():
    rng = random.Random(42)
    checked, violations = 0, []
    for p, nu in ((2, 1), (3, 1), (2, 2)):
        f = make_field(p)
        pnu = p ** nu
        for n_prime in range(1, 16):
            if n_prime % p == 0:
                continue
            fac = factor_xn1(n_prime, f)
            for s in range(pnu + 1):
                for _ in range(4):
                    L = random_divisor(rng, fac)
                    g1 = random_divisor(rng, fac, of=xn_minus_1(f, n_prime) // L)
                    g2 = random_divisor(rng, fac, of=g1 ** pnu)
                    res = construct_repeated(n_prime, f, L, g1, g2, s, nu)
                    if res.measured_ell != (L.degree or 0) * s:
                        violations.append((n_prime, p, nu, s))
                    checked += 1
    _verdict(6, not violations,
             f"repeated-root ladder hit deg(L)*s exactly in all {checked} "
             f"randomized instances (violations: {violations[:3] or 'none'})")


def test_criterion_7_mds_pairs():
    start = time.time()
    checked, violations = 0, []
    for q in (5, 7, 8, 9, 11, 13):
        f = field_from_order(q)
        for n in range(2, q):
            if (q - 1) % n:
                continue
            for k1 in range(1, n + 1):
                for k2 in range(k1, n + 1):
                    if q ** k2 > 1 << 20:
                        continue
                    for ell in range(max(0, k1 + k2 - n), k1 + 1):
                        res = construct_mds(f, n, k1, k2, ell,
                                            with_distances=True)
                        if res.measured_ell != ell:
                            violations.append((q, n, k1, k2, ell, "ell"))
                        if (res.report.d1 != n - k1 + 1
                                or res.report.d2 != n - k2 + 1):
                            violations.append((q, n, k1, k2, ell, "singleton"))
                        checked += 1
    elapsed = time.time() - start
    ok = not violations and elapsed < 60
    _verdict(7, ok, f"full MDS sweep: {checked} (q, n, k1, k2, ell) "
                    f"pairs exact with Singleton-equality distances in "
                    f"{elapsed:.1f}s (violations: {violations[:3] or 'none'})")


def test_criterion_8_rank_oracle_equivalence():
    rng = random.Random(8)
    checked, mismatches = 0, []
    for q in (2, 3, 4):
        f = field_from_order(q)
        for n in range(1, 21):
            fac = factor_xn1(n, f)
            for _ in range(200):
                c1_g = random_divisor(rng, fac)
                c2_g = random_divisor(rng, fac)
                c1 = CyclicCode(n, f, c1_g)
                c2 = CyclicCode(n, f, c2_g)
                rep = pair_analyze(c1, c2)
                stacked = c1.generator_matrix() + c2.generator_matrix()
                rank = rank_over_field(stacked, f) if stacked else 0
                if rep.ell != c1.k + c2.k - rank:
                    mismatches.append((n, q))
                checked += 1
    _verdict(8, not mismatches,
             f"vector (elementwise max) intersection dimension matched independent rank "
             f"elimination on {checked} random pairs "
             f"(mismatches: {mismatches[:3] or 'none'})")
