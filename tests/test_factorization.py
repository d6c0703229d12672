import ast
import pathlib
import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_pairs import factorization, fields
from cyclic_pairs.cyclotomic import (additive_order, coset_count, coset_of, coset_partition,
                                     euler_phi, mult_order)
from cyclic_pairs.factorization import (CoercionError, factor_xn1,
                                        minimal_poly, root_of_unity,
                                        split_length)
from cyclic_pairs.fields import (FieldMismatchError, field_from_order,
                                 is_irreducible, make_field)
from cyclic_pairs.poly import Polynomial, parse_poly, xn_minus_1
from cyclic_pairs.codes import CyclicCode
from helpers import (embed, naive_min_distance, naive_minimal_poly, naive_poly_mul,
                     poly_gcd, solve_mod_p, traces_by_power_sums)

GF2 = make_field(2)


def test_split_length():
    assert split_length(7, GF2) == (0, 7)
    assert split_length(14, GF2) == (1, 7)
    assert split_length(56, GF2) == (3, 7)
    gf9 = make_field(3, 2)
    assert split_length(18, gf9) == (2, 2)
    with pytest.raises(ValueError):
        split_length(0, GF2)


def test_root_of_unity_deterministic():
    ext, gamma, alpha = root_of_unity(GF2, 7)
    assert ext.q == 8
    # the chosen root has exact order 7 and the embedding fixes GF(2)
    cur, seen = 1, set()
    for _ in range(7):
        cur = ext.mul(cur, alpha)
        seen.add(cur)
    assert cur == 1 and len(seen) == 7
    assert embed(GF2, ext, gamma, 0) == 0 and embed(GF2, ext, gamma, 1) == 1
    # same call again hits the cache and returns the identical objects
    assert root_of_unity(GF2, 7) == (ext, gamma, alpha)


def test_root_of_unity_stays_inside_field_when_possible():
    gf8 = make_field(2, 3)
    ext, gamma, alpha = root_of_unity(gf8, 7)
    assert ext.q == 8  # 7 | 8 - 1, no extension needed


def test_minimal_polys_mod_7():
    part_factors = factor_xn1(7, GF2)
    polys = {e.coset_rep: str(e.poly) for e in part_factors.factors}
    assert polys[0] == "x + 1"
    # the deterministic root assigns one cubic to each nonzero coset
    assert {polys[1], polys[3]} == {"x^3 + x + 1", "x^3 + x^2 + 1"}
    assert polys[1] == "x^3 + x^2 + 1"


def test_minimal_poly_is_irreducible_with_matching_degree():
    for (n_prime, q) in [(7, 2), (15, 2), (9, 2), (8, 3), (13, 3), (5, 4)]:
        f = field_from_order(q)
        fact = factor_xn1(n_prime, f)
        for e in fact.factors:
            assert e.poly.is_monic()
            if f.m == 1:
                assert is_irreducible(tuple(e.poly.coeffs), f.p)
            else:
                # a reducible polynomial of degree 2 or 3 has a linear factor,
                # so for these degrees having no root in GF(q) is irreducibility
                assert e.poly.degree <= 3
                assert e.poly.degree == 1 or all(
                    e.poly.evaluate(a) != 0 for a in range(q))
            assert len(
                [j for j in range(n_prime)
                 if _in_coset(n_prime, q, e.coset_rep, j)]) == e.poly.degree


def test_minimal_poly_matches_coset_product():
    # sympy covers prime q; these need GF(q) embedded in the extension
    cases = [(n, q) for q in (4, 8, 9, 16, 25, 27, 32) for n in range(1, 65)
             if n % field_from_order(q).p] + [(202, 3)]
    for n_prime, q in cases:
        f = field_from_order(q)
        for coset in coset_partition(n_prime, q).cosets:
            assert minimal_poly(n_prime, f, coset) == naive_minimal_poly(n_prime, f, coset), \
                (n_prime, q, coset)


@pytest.mark.parametrize("n_prime, q", [(7, 2), (21, 2), (63, 2), (127, 2), (255, 2),
                                        (5, 4), (21, 4), (9, 8), (13, 8), (17, 16)])
def test_binary_minimal_polys_make_no_extension_field_mul(n_prime, q, monkeypatch):
    # the alpha and gamma powers of the trace table are multiplied on the slot
    # ring of GF(2^(m t)), a trace's digits are negated mod p, and
    # Berlekamp-Massey reads the lookup lists of _scalar_ops
    f = field_from_order(q)
    root_of_unity(f, n_prime)  # the embedding has its own test below
    factorization._traces.cache_clear()
    factorization._scalar_ops.cache_clear()
    mul, calls = fields.Field.mul, []

    def counted(self, a, b):
        if self.m > 1:
            calls.append(self)
        return mul(self, a, b)

    monkeypatch.setattr(fields.Field, "mul", counted)
    cosets = coset_partition(n_prime, q).cosets
    got = [minimal_poly(n_prime, f, coset) for coset in cosets]
    assert calls == []
    monkeypatch.undo()
    assert got == [naive_minimal_poly(n_prime, f, coset) for coset in cosets]


def test_minimal_poly_refuses_a_non_coset():
    with pytest.raises(CoercionError):
        naive_minimal_poly(7, GF2, (1,))  # alpha is not in GF(2)
    # (1,), (1, 2) and (3, 6) are the first d members j * 2^i of a coset of 3,
    # but j * 2^d (2, 4 and 12 = 5 mod 7) is not back at j
    for coset in [(1,), (1, 2), (3, 6), (1, 3), (1, 1, 1), (0, 0), (), (8, 1, 2, 4)]:
        with pytest.raises(CoercionError):
            minimal_poly(7, GF2, coset)
    # a true coset is accepted in any order, and its first member is the root
    assert minimal_poly(7, GF2, (2, 4, 1)) == minimal_poly(7, GF2, (1, 2, 4))
    assert minimal_poly(7, GF2, (3, 5, 6)) == naive_minimal_poly(7, GF2, (3, 6, 5))


@pytest.mark.parametrize("n_prime, q, rep", [(63, 2, 9), (63, 2, 27), (56, 3, 7), (56, 9, 14)])
def test_minimal_poly_shifts_a_sequence_whose_traces_vanish(n_prime, q, rep):
    # p divides t/|C| here (t = 6, |C| = 3 over GF(2); t = 6, |C| = 2 over GF(3);
    # t = 3, |C| = 1 over GF(9)), so Tr(beta^k) = 0 for every k, and the sequence
    # has to start at a shift c > 0
    f = field_from_order(q)
    coset = coset_of(n_prime, q, rep)
    assert (mult_order(q, n_prime) // len(coset)) % f.p == 0
    table = factorization._traces(f, n_prime)
    assert not any(table[rep * k % n_prime] for k in range(len(coset)))
    assert minimal_poly(n_prime, f, coset) == naive_minimal_poly(n_prime, f, coset)


@pytest.mark.parametrize("n_prime, q", [(63, 4), (47, 9)])
def test_traces_are_read_by_solves_of_m_columns(n_prime, q, monkeypatch):
    # only a trace's m base-field digits are solved for, by the m x m W^-1 on
    # ints: each coset's alpha^rep is one product from the representative
    # before it (with the alpha^gap kept as met), plus m - 1 products by gamma
    # for the m traces down to GF(p) and the m Horner steps checking gamma,
    # with no ring product per digit solved
    f = field_from_order(q)
    root_of_unity(f, n_prime)
    factorization._trace_form(root_of_unity(f, n_prime)[0])
    factorization._digit_matrix(f)
    cosets = coset_partition(n_prime, q).cosets
    reps = [c[0] for c in cosets]
    top_gap = max(b - a for a, b in zip(reps, reps[1:]))
    mul, calls = fields._SlotRing.mul, []
    monkeypatch.setattr(fields._SlotRing, "mul",
                        lambda ring, a, b: calls.append(ring) or mul(ring, a, b))
    factorization._traces.cache_clear()
    table = factorization._traces(f, n_prime)
    monkeypatch.undo()
    assert len(calls) == (len(cosets) - 1) + (top_gap - 1) + (f.m - 1) * len(cosets) + f.m
    assert [len(row) for row in factorization._digit_matrix(f)] == [f.m] * f.m
    assert table == traces_by_power_sums(f, n_prime)


def _trace_cases():
    """(n', q) with t = ord_n'(q) > 1 and an extension of degree at most 200."""
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        m = field_from_order(q).m
        for n_prime in range(2, 80):
            if gcd(n_prime, q) == 1 and 1 < mult_order(q, n_prime) and m * mult_order(q, n_prime) <= 200:
                yield n_prime, q


def test_trace_tables_equal_the_sums_of_powers():
    # 481 tables: the Newton functional (and for m > 1 the digits W^-1 u) against
    # (t/|C| mod p) times each coset's sum of alpha powers, by Field calls
    cases = list(_trace_cases())
    assert len(cases) == 481
    for n_prime, q in cases:
        f = field_from_order(q)
        assert factorization._traces(f, n_prime) == traces_by_power_sums(f, n_prime), (n_prime, q)


# GF(2^256) and GF(2^260) have two-byte slots; GF(5^30) and GF(7^12) odd p past the sieve
@pytest.mark.parametrize("p, m", [(2, 2), (2, 7), (2, 64), (2, 256), (2, 260), (3, 5), (3, 22),
                                  (5, 4), (5, 30), (7, 12)])
def test_newton_power_sums_are_the_traces_of_x_powers(p, m):
    # P_k = sum over i < m of (x^k)^(p^i), the conjugates by Field.pow, for
    # k < 2m - 1 (every k up to m = 64, a sample beyond)
    f = make_field(p, m)
    sums = factorization._power_sums(f.modulus, p, 2 * m - 1)
    assert len(sums) == 2 * m - 1
    ks = range(2 * m - 1) if m <= 64 else sorted({0, 1, m - 1, m, m + 1, 2 * m - 2}
                                                 | set(random.Random(m).sample(range(2 * m - 1), 12)))
    x = p  # the class of x
    for k in ks:
        conj, total = f.pow(x, k) if k else 1, 0
        for _ in range(m):
            total = f.add(total, conj)
            conj = f.pow(conj, p)
        assert total == sums[k], (p, m, k)
    # the packed functional reads the same traces off one int product
    ring, form = f._ring, factorization._trace_form(f)
    rng = random.Random(p * m)
    for a in [1, x] + [rng.randrange(f.q) for _ in range(5)]:
        conj, total = a, 0
        for _ in range(m):
            total = f.add(total, conj)
            conj = f.pow(conj, p)
        slot = ring.pack(a) * form >> (ring.w * (m - 1)) & ((1 << ring.w) - 1)
        assert slot % p == total, (p, m, a)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 81, 121])
def test_digit_matrix_inverts_the_trace_form(q):
    # W[k][s] = Tr(g^(k+s)) by Field calls; column j of W^-1 solves W x = e_j
    f = field_from_order(q)
    p, m = f.p, f.m
    g = [f.pow(p, k) for k in range(2 * m - 1)]

    def trace(a):
        total = 0
        for _ in range(m):
            total, a = f.add(total, a), f.pow(a, p)
        return total

    w = [[trace(g[k + s]) for s in range(m)] for k in range(m)]
    inverse = factorization._digit_matrix(f)
    for j in range(m):
        assert [row[j] for row in inverse] == solve_mod_p(w, [int(i == j) for i in range(m)], p)


def test_an_inconsistent_embedding_raises_coercion_error(monkeypatch):
    # gamma = 0 makes the second column of the trace-digit solve zero, so no
    # trace over GF(4) has digits: the documented error, not a TypeError
    f = field_from_order(4)
    ext, _, alpha = root_of_unity(f, 9)
    monkeypatch.setattr(factorization, "root_of_unity", lambda field, n_prime: (ext, 0, alpha))
    factorization._traces.cache_clear()
    with pytest.raises(CoercionError):
        minimal_poly(9, f, (1, 4, 7))
    monkeypatch.undo()
    factorization._traces.cache_clear()
    assert minimal_poly(9, f, (1, 4, 7)) == naive_minimal_poly(9, f, (1, 4, 7))


@pytest.mark.parametrize("p, n_prime", [(3, 2), (5, 4), (17, 16), (257, 256), (4099, 683)])
def test_minimal_poly_over_the_prime_field_itself(p, n_prime):
    # n' | p - 1, so t = 1: ext is GF(p), and each factor is x - alpha^j, with no trace table
    f = make_field(p)
    assert root_of_unity(f, n_prime)[0] is f
    for coset in coset_partition(n_prime, p).cosets:
        assert len(coset) == 1
        assert minimal_poly(n_prime, f, coset) == naive_minimal_poly(n_prime, f, coset), coset


def _module_tree(module):
    return ast.parse(pathlib.Path(module.__file__).read_text())


def test_numpy_stays_out_of_the_factorization():
    imported = set()
    for node in ast.walk(_module_tree(factorization)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "numpy" for name in imported), imported
    # in fields.py only Field.tables(), the lookup tables, uses numpy
    tree = _module_tree(fields)
    tables = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "tables")
    np_lines = {node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "np"}
    assert np_lines and all(tables.lineno <= line <= tables.end_lineno for line in np_lines)


def _in_coset(n_prime, q, rep, j):
    cur = rep
    for _ in range(n_prime):
        if cur == j:
            return True
        cur = (cur * q) % n_prime
    return False


def test_factorization_product_round_trip_binary():
    for n in [1, 2, 3, 7, 8, 9, 14, 15, 21, 24, 31, 45, 63, 64]:
        fact = factor_xn1(n, GF2)
        assert fact.product() == xn_minus_1(GF2, n)
        assert fact.field.p ** fact.nu * fact.n_prime == n


def test_factorization_round_trip_other_fields():
    for q in [3, 4, 5, 8, 9]:
        f = field_from_order(q)
        for n in range(1, 31):
            fact = factor_xn1(n, f)
            assert fact.product() == xn_minus_1(f, n)
            nu, n_prime = split_length(n, f)
            assert len(fact.factors) == coset_count(n_prime, f.q)
            assert all(e.multiplicity == f.p ** nu for e in fact.factors)


def _entries(fact):
    return [(e.poly, e.multiplicity, e.coset_rep, e.order) for e in fact.factors]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_repeated_root_lengths_reuse_the_factors_of_n_prime(q):
    # every sweep length n = p^nu * n' with nu >= 1: the factors of x^n' - 1,
    # each with multiplicity p^nu, whichever of n and n' is asked first
    f = field_from_order(q)
    for n in range(f.p, 65, f.p):
        nu, n_prime = split_length(n, f)
        factor_xn1.cache_clear()
        fact, base = factor_xn1(n, f), factor_xn1(n_prime, f)
        assert (fact.nu, fact.n_prime) == (nu, n_prime) and base.nu == 0
        assert _entries(fact) == [(g, f.p ** nu, r, d) for g, _, r, d in _entries(base)]
        assert fact.product() == xn_minus_1(f, n)
        factor_xn1.cache_clear()
        base_first = factor_xn1(n_prime, f)
        assert _entries(base_first) == _entries(base)
        assert _entries(factor_xn1(n, f)) == _entries(fact)


def test_factors_pairwise_coprime():
    for (n, q) in [(45, 2), (26, 3), (21, 4), (24, 5)]:
        f = field_from_order(q)
        entries = factor_xn1(n, f).factors
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                assert poly_gcd(entries[i].poly, entries[j].poly).is_one()


def test_large_extension_lengths():
    # ord_31(2) = 5 and ord_23(2) = 11: forces work in GF(2^5) and GF(2^11)
    fact = factor_xn1(31, GF2)
    assert fact.factor_degrees() == (1, 5, 5, 5, 5, 5, 5)
    fact = factor_xn1(23, GF2)
    assert fact.factor_degrees() == (1, 11, 11)
    x23 = parse_poly("x^11+x^9+x^7+x^6+x^5+x+1", GF2)  # Golay generator
    assert any(e.poly == x23 for e in fact.factors)


def test_known_factorization_gf3_n8():
    gf3 = make_field(3)
    fact = factor_xn1(8, gf3)
    assert fact.product() == xn_minus_1(gf3, 8)
    assert sorted(fact.factor_degrees()) == [1, 1, 2, 2, 2]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.sampled_from([2, 3, 4, 5, 8, 9]))
def test_round_trip_property(n, q):
    f = field_from_order(q)
    fact = factor_xn1(n, f)
    assert fact.product() == xn_minus_1(f, n)
    assert sum(e.poly.degree * e.multiplicity for e in fact.factors) == n


def test_is_irreducible_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            m = rng.randint(1, 40)
            coeffs = tuple(rng.randrange(p) for _ in range(m)) + (1,)
            expected = sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible
            assert is_irreducible(coeffs, p) == expected, (p, coeffs)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_factor_xn1_matches_sympy(q):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    f = field_from_order(q)
    for n in range(1, 65):
        _, factors = sympy.Poly(x ** n - 1, x, modulus=q).factor_list()
        expected = sorted((tuple(int(c) % q for c in reversed(g.all_coeffs())), k)
                          for g, k in factors)
        got = sorted((e.poly.coeffs, e.multiplicity) for e in factor_xn1(n, f).factors)
        assert got == expected, n


VECTOR_CASES = [(7, 2), (12, 2), (15, 2), (6, 3), (9, 3), (13, 3), (6, 4), (15, 4), (10, 5),
                (20, 9)]


@pytest.mark.parametrize("n, q", VECTOR_CASES)
def test_vector_inverts_divisor_on_every_divisor(n, q):
    fac = factor_xn1(n, field_from_order(q))
    vectors = list(product(*(range(e.multiplicity + 1) for e in fac.factors)))
    for v in vectors:
        g = fac.divisor(v)
        assert fac.vector(g) == v
        assert fac.degree(v) == (g.degree or 0)


@pytest.mark.parametrize("n, q", VECTOR_CASES)
def test_divisor_store_matches_the_product_from_scratch(n, q):
    f = field_from_order(q)
    fac = factor_xn1(n, f)
    fac.generators.clear()
    assert fac.product() == xn_minus_1(f, n)
    assert not fac.generators  # product() multiplies out past the store
    vectors = list(product(*(range(e.multiplicity + 1) for e in fac.factors)))
    random.Random(n * q).shuffle(vectors)
    for v in vectors:
        expected = Polynomial.one(f)
        for e, entry in zip(v, fac.factors):
            for _ in range(e):
                expected = naive_poly_mul(expected, entry.poly)
        g = fac.divisor(v)
        assert g == expected and fac.generators[v] is g, v
        assert fac.divisor(v) is g


def test_divisor_refuses_exponents_outside_the_lattice():
    fac = factor_xn1(7, GF2)
    with pytest.raises(ValueError, match="outside 0..1"):
        fac.divisor((0, 2, 0))
    with pytest.raises(ValueError, match="2 exponents for 3 factors"):
        fac.divisor((0, 1))


@pytest.mark.parametrize("n, q", [(15, 2), (21, 2), (9, 3), (6, 4), (12, 2)])
def test_weight_bound_is_the_least_generator_weight_over_the_orbit(n, q):
    f = field_from_order(q)
    fac = factor_xn1(n, f)
    fac.bounds.clear()
    for v in product(*(range(e.multiplicity + 1) for e in fac.factors)):
        if fac.degree(v) == n:
            continue  # the zero code
        images = [tuple(v[i] for i in sigma) for sigma in fac.multipliers.values()]
        weights = [sum(map(bool, fac.divisor(u).coeffs)) for u in images]
        code = CyclicCode._from_vector(fac, v)
        bound = fac.weight_bound(v)
        assert bound == min(weights), v
        assert code.min_distance().d <= bound <= n - code.k + 1, v
        if code.k <= 8:
            assert naive_min_distance(code) == code.min_distance().d, v


def test_vector_refuses_a_non_divisor_and_a_foreign_field():
    fac = factor_xn1(7, GF2)
    for text in ("x^2+1", "x", "x^3+x+1 + x^4", "x^8+1"):
        g = parse_poly(text, GF2)
        with pytest.raises(ValueError, match=r"does not divide x\^7 - 1") as exc:
            fac.vector(g)
        assert str(g) in str(exc.value)
    with pytest.raises(FieldMismatchError):
        fac.vector(parse_poly("x+1", make_field(3)))
    # a unit multiple of a divisor has the divisor's vector
    gf3 = make_field(3)
    fac3 = factor_xn1(8, gf3)
    assert fac3.vector(parse_poly("2*x^2+2*x+1", gf3)) == \
        fac3.vector(parse_poly("x^2+x+2", gf3))


@pytest.mark.parametrize("q, n_prime", [(4, 7), (4, 5), (8, 3), (9, 5), (9, 7), (8, 59)])
def test_embedding_preserves_sums_and_products(q, n_prime):
    # gamma, found through the order-(q-1) generator of GF(q)'s copy in ext,
    # makes the embedding a one-to-one ring homomorphism GF(q) -> ext
    f = field_from_order(q)
    ext, gamma, _ = root_of_unity(f, n_prime)
    assert ext.m > f.m
    image = [embed(f, ext, gamma, v) for v in range(q)]
    assert len(set(image)) == q
    for a, b in product(range(q), repeat=2):
        assert image[f.add(a, b)] == ext.add(image[a], image[b])
        assert image[f.mul(a, b)] == ext.mul(image[a], image[b])


def test_root_of_unity_is_the_first_element_of_its_order():
    for q, n_prime in [(2, 7), (4, 5), (8, 3), (9, 7), (5, 4), (3, 1)]:
        f = field_from_order(q)
        ext, _, alpha = root_of_unity(f, n_prime)
        assert alpha == ext.element_of_order(n_prime)
        assert ext.pow(alpha, n_prime) == 1


def test_lengths_past_the_bound_are_refused():
    assert split_length(4096, GF2) == (12, 1)
    assert xn_minus_1(GF2, 4096).degree == 4096
    for n in (4097, 10 ** 9):
        with pytest.raises(ValueError, match="4096"):
            split_length(n, GF2)
        with pytest.raises(ValueError, match="4096"):
            xn_minus_1(GF2, n)


def test_root_of_unity_refuses_an_extension_degree_past_the_bound(monkeypatch):
    # ord_3079(5) = 513 and ord_1031(2) = 515, just past degree 512
    monkeypatch.setattr(factorization, "make_field",
                        lambda *args, **kwargs: pytest.fail("a field was built"))
    for q, n_prime in [(5, 3079), (2, 1031), (4, 1031)]:
        with pytest.raises(ValueError, match="past degree 512"):
            root_of_unity(field_from_order(q), n_prime)


def test_a_degree_past_the_bound_is_answered_when_every_coset_is_full(monkeypatch):
    # ord_523(2) = 522 = phi(523) and ord_4093(2) = 4092 = phi(4093): no coset
    # needs GF(2^522) or GF(2^4092), so neither is refused; nor is 1046 = 2 * 523.
    # __wrapped__ skips the factorization cache
    for attr in ("make_field", "minimal_poly"):
        monkeypatch.setattr(factorization, attr,
                            lambda *args, **kwargs: pytest.fail("a coset was solved"))
    for n in (523, 1046, 4093):
        fact = factor_xn1.__wrapped__(n, GF2)
        assert fact.product() == xn_minus_1(GF2, n), n


@pytest.mark.parametrize("n, q, ext_degree", [(509, 2, 508), (37, 5, 36), (59, 8, 174),
                                               (53, 5, 52)])
def test_lengths_with_only_full_cosets_build_no_extension_field(n, q, ext_degree,
                                                                monkeypatch):
    # every coset is full, so each factor is Phi_d mod p and GF(p^ext_degree)
    # is neither built nor asked for; __wrapped__ skips the factorization cache
    f = field_from_order(q)
    assert f.m * mult_order(q, n) == ext_degree
    for attr in ("make_field", "root_of_unity", "minimal_poly"):
        monkeypatch.setattr(factorization, attr,
                            lambda *args, **kwargs: pytest.fail("an extension was asked for"))
    fact = factor_xn1.__wrapped__(n, f)
    assert fact.product() == xn_minus_1(f, n)
    monkeypatch.undo()
    assert fact.factors == factor_xn1(n, f).factors


@pytest.mark.parametrize("q, n_prime", [(4, 7), (8, 3), (9, 5), (16, 7)])
def test_subfield_root_makes_no_extension_field_mul(q, n_prime, monkeypatch):
    # the base modulus is evaluated by Horner on the extension's packed ints
    f = field_from_order(q)
    expected = root_of_unity(f, n_prime)
    assert expected[0].m > f.m
    mul, calls = fields.Field.mul, []

    def counted(self, a, b):
        if self is not f:
            calls.append(self)
        return mul(self, a, b)

    monkeypatch.setattr(fields.Field, "mul", counted)
    assert root_of_unity.__wrapped__(f, n_prime) == expected  # cold, past the cache
    assert calls == []


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def test_cyclotomic_coeffs_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for d in range(1, 501):
        expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert factorization._cyclotomic_coeffs(d) == expected, d


def test_cyclotomic_coeffs_multiply_to_xn_minus_1():
    for n in range(1, 301):
        acc = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                acc = _int_poly_mul(acc, factorization._cyclotomic_coeffs(d))
        assert acc == [-1] + [0] * (n - 1) + [1], n


@pytest.mark.parametrize("ns, q", [(range(1, 65), q) for q in (2, 3, 4, 5, 8, 9)]
                         + [((509,), 2), ((202,), 3)])
def test_full_cosets_give_the_minimal_polynomial(ns, q):
    # Phi_d mod p for a full coset is minimal_poly's Berlekamp-Massey answer
    f, seen = field_from_order(q), 0
    for n in ns:
        if n % f.p == 0:
            continue  # the factors of n' < n
        for entry in factor_xn1(n, f).factors:
            coset = coset_of(n, q, entry.coset_rep)
            if len(coset) == euler_phi(entry.order):
                assert entry.poly == minimal_poly(n, f, coset), (n, q, coset)
                seen += 1
    assert seen


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_reciprocal_cosets_give_the_minimal_polynomial(q):
    # a coset C whose negation -C was solved before it takes the monic reciprocal
    # of M_-C: every factor is still minimal_poly's answer on its coset
    f, twins = field_from_order(q), 0
    for n in range(1, 65):
        if n % f.p == 0:
            continue  # the factors of n' < n
        for entry in factor_xn1(n, f).factors:
            coset = coset_of(n, q, entry.coset_rep)
            assert entry.poly == minimal_poly(n, f, coset), (n, q, coset)
            twins += (q - 1) % n != 0 and n - coset[-1] < coset[0]
    assert twins


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49])
def test_the_factor_of_p_times_a_coset_is_its_frobenius_image(q):
    # x -> x^p maps the roots of M_C onto those of M_pC, so M_pC is M_C with
    # each coefficient raised to the p-th power in GF(q); both by Berlekamp-Massey
    f = field_from_order(q)
    p, seen = f.p, 0
    for n in range(2, 41 if q > 16 else 65):
        if n % p == 0 or (q - 1) % n == 0:
            continue
        for coset in coset_partition(n, q).cosets:
            image = coset_of(n, q, p * coset[0] % n)
            if image == coset or len(coset) == euler_phi(additive_order(coset[0], n)):
                continue
            m_c, m_pc = minimal_poly(n, f, coset), minimal_poly(n, f, image)
            assert m_pc.coeffs == tuple(f.pow(c, p) for c in m_c.coeffs), (n, q, coset)
            seen += 1
    assert seen


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81])
def test_conjugate_cosets_give_the_minimal_polynomial(q):
    # every coset s p^i C (s = +-1) after the least of them takes its factor by
    # sigma^i and a reciprocal: still minimal_poly's answer on each coset; q = 64
    # and 81 run Berlekamp-Massey and the images on Field calls
    f, derived = field_from_order(q), 0
    for n in range(1, 41 if q > 16 else 65):
        if n % f.p == 0:
            continue
        fac = factor_xn1(n, f)
        for entry in fac.factors:
            coset = coset_of(n, q, entry.coset_rep)
            assert entry.poly == minimal_poly(n, f, coset), (n, q, coset)
        cosets = coset_partition(n, q).cosets
        if (q - 1) % n:
            orbits = {min(coset_of(n, q, s * f.p ** i * c[0] % n)[0]
                          for i in range(f.m) for s in (1, -1)) for c in cosets}
            derived += len(cosets) - len(orbits)
    assert derived
    assert isinstance(factorization._scalar_ops(f)[0], factorization._Calls) == (q > 49)


def test_subfield_root_is_evaluated_once_per_extension():
    # GF(4) at n' = 9 and 7 needs GF(2^6) both times, so one root is sought
    f = field_from_order(4)
    factorization._subfield_root.cache_clear()
    first = root_of_unity.__wrapped__(f, 9)
    second = root_of_unity.__wrapped__(f, 7)
    assert first[0] is second[0] and first[1] == second[1]
    info = factorization._subfield_root.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _counted_berlekamp_massey(monkeypatch) -> list:
    runs, solve = [], factorization._berlekamp_massey

    def counted(s, field):
        runs.append(field)
        return solve(s, field)

    monkeypatch.setattr(factorization, "_berlekamp_massey", counted)
    return runs


def test_one_berlekamp_massey_run_serves_a_coset_and_its_negation(monkeypatch):
    # over GF(2), {3, 5, 6} = -{1, 2, 4}: its factor is the reciprocal of the first
    runs = _counted_berlekamp_massey(monkeypatch)
    fac = factor_xn1.__wrapped__(7, GF2)
    assert len(runs) == 1
    assert [str(e.poly) for e in fac.factors] == ["x + 1", "x^3 + x^2 + 1", "x^3 + x + 1"]


def test_the_factor_sweep_runs_berlekamp_massey_444_times(monkeypatch):
    # the factor-sweep population, n <= 64 and q in {2, 3, 4, 5, 8, 9}: 940 runs
    # with one per coset that is not full, 577 with reciprocal cosets derived,
    # 444 with every coset s p^i C (s = +-1) derived from the least of them
    runs = _counted_berlekamp_massey(monkeypatch)
    for q in (2, 3, 4, 5, 8, 9):
        f = field_from_order(q)
        for n in range(1, 65):
            if n % f.p:  # a repeated-root length reuses the factors of n'
                factor_xn1.__wrapped__(n, f)
    assert len(runs) == 444


def test_linear_factors_build_no_lookup_lists(monkeypatch):
    # t = 1: x^10 - 1 over GF(11) splits into the x - alpha^j, with no
    # Berlekamp-Massey and no reciprocal, so no _scalar_ops and no log lists
    f = fields.Field(11, 1, (0, 1))
    built, ops = [], factorization._scalar_ops
    monkeypatch.setattr(factorization, "_scalar_ops",
                        lambda field: built.append(field) or ops(field))
    fac = factor_xn1(10, f)
    assert built == [] and f._lists is None
    assert fac.factor_degrees() == (1,) * 10


# simple roots over GF(2) (n = 15, 21, 31) and GF(4) (15), repeated roots over GF(2),
# GF(3) and GF(4) (14, 18, 12), and GF(11), where x^10 - 1 splits into linear factors
MULTIPLIER_CASES = [(15, 2), (21, 2), (31, 2), (14, 2), (18, 3), (12, 4), (15, 4), (10, 11)]


@pytest.mark.parametrize("n, q", MULTIPLIER_CASES)
def test_multiplier_maps_a_divisor_as_x_to_x_a(n, q):
    """g(x^a) mod (x^n - 1) generates the image code, so the divisor of
    sigma_a(v), of g's degree, divides it exactly when sigma_a is right."""
    f = field_from_order(q)
    fac = factor_xn1(n, f)
    xn1 = xn_minus_1(f, n)
    units = [a for a in range(1, n + 1) if gcd(a, n) == 1]
    # every unit mod n' lifts to a unit mod n
    assert set(fac.multipliers) == {a % fac.n_prime for a in units}
    for v in product(*(range(e.multiplicity + 1) for e in fac.factors)):
        g = fac.divisor(v)
        for a in units:
            sigma = fac.multipliers[a % fac.n_prime]
            image = tuple(v[i] for i in sigma)
            coeffs = [0] * (a * g.degree + 1)
            coeffs[::a] = g.coeffs
            _, rem = divmod(Polynomial(f, coeffs) % xn1, fac.divisor(image))
            assert rem.is_zero(), (v, a)
            assert fac.degree(image) == fac.degree(v)



@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_coset_masks_partition_z_n_prime(q):
    # the masks are the factors' cosets: disjoint, covering Z_{n'}, one bit per
    # root of each factor, and each holds its coset representative
    f = field_from_order(q)
    for n_prime in range(1, 65):
        if gcd(n_prime, q) != 1:
            continue
        fac = factor_xn1(n_prime, f)
        masks = fac.coset_masks
        assert len(masks) == len(fac.factors)
        union = 0
        for mask, entry in zip(masks, fac.factors):
            assert not union & mask, (n_prime, entry.coset_rep)
            union |= mask
            assert mask.bit_count() == entry.poly.degree
            assert mask >> entry.coset_rep & 1
        assert union == (1 << n_prime) - 1, n_prime
