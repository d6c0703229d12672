import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclic_pairs
from cyclic_pairs.fields import (Field, FieldMismatchError, field_from_order,
                                 lex_least_irreducible, make_field)
from cyclic_pairs.poly import Polynomial, PolyParseError, parse_poly, xn_minus_1
from helpers import divides, naive_poly_mul, poly_gcd, poly_lcm

GF2 = make_field(2)


def P(text, field=GF2):
    return parse_poly(text, field)


@st.composite
def poly_over(draw, q, max_degree=64):
    f = field_from_order(q)
    coeffs = draw(st.lists(st.integers(0, q - 1), max_size=max_degree + 1))
    return Polynomial(f, coeffs)


# -- arithmetic ---------------------------------------------------------------

def test_mul_examples():
    assert P("x+1") * P("x+1") == P("x^2+1")  # freshman's dream in char 2
    assert P("x+1") * P("x^3+x^2+1") == P("x^4+x^2+x+1")
    assert P("x+1") ** 0 == Polynomial.one(GF2)


def test_divmod_examples():
    q, r = divmod(P("x^2+1"), P("x+1"))
    assert q == P("x+1") and r.is_zero()
    q, r = divmod(P("x^7+1"), P("x^3+x+1"))
    assert q == P("x^4+x^2+x+1") and r.is_zero()
    gf7 = make_field(7)
    q, r = divmod(parse_poly("x^3", gf7), parse_poly("x^2", gf7))
    assert q == parse_poly("x", gf7) and r.is_zero()


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P("x+1"), Polynomial.zero(GF2))


def test_gcd_lcm_examples():
    a, b = P("x^4+x^2+x+1"), P("x^4+x^3+x^2+1")
    assert poly_gcd(a, b) == P("x+1")
    assert poly_lcm(a, b) == P("x^7+1")
    g = P("x^3+x+1")
    assert poly_gcd(g, g) == g and poly_lcm(g, g) == g
    assert poly_gcd(P("x+1"), P("x")).is_one()
    assert poly_lcm(P("x+1"), P("x")) == P("x^2+x")
    with pytest.raises(ValueError):
        poly_gcd(Polynomial.zero(GF2), Polynomial.zero(GF2))
    assert poly_lcm(Polynomial.zero(GF2), P("x+1")).is_zero()


def test_gcd_is_monic_over_nonbinary_fields():
    gf7 = make_field(7)
    a = parse_poly("2*x^2 + 6*x + 4", gf7)  # 2(x+1)(x+2)
    b = parse_poly("3*x + 3", gf7)
    g = poly_gcd(a, b)
    assert g.is_monic() and g == parse_poly("x + 1", gf7)


def test_eval_examples():
    assert P("x+1").evaluate(1) == 0
    gf4 = make_field(2, 2)
    # alpha, encoded as 2, is a root of its own modulus x^2+x+1
    assert P("x^2+x+1", gf4).evaluate(2) == 0
    assert P("x^3+x^2+1").evaluate(0) == 1


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2), (2, 20), (3, 40)])
def test_the_class_of_x_is_a_root_of_the_modulus(p, m):
    # table lane (GF(4), GF(9)), bit-packed lane (GF(2^20)) and odd-p packed lane (GF(3^40))
    f = make_field(p, m)
    modulus = Polynomial(f, f.modulus)
    assert modulus.evaluate(f.p) == 0
    assert modulus.evaluate(1) != 0  # irreducible of degree >= 2: no root in GF(p)


def test_degree_sentinel():
    assert Polynomial.zero(GF2).degree is None
    assert Polynomial.one(GF2).degree == 0
    assert P("x^5+x").degree == 5


# every multiply lane: GF(2), prime fields, translate rows in characteristic 2
# up to GF(256), log tables past it (GF(512)) and in odd characteristic, and the
# fields above the table limit (bit-packed 2^13, vector 3^9)
MUL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 27, 32, 256, 512, 2 ** 13, 3 ** 9]
# prime fields whose Kronecker slots are 2 to 8 bytes wide from the shortest
# operands on, packed through bytes (251) or by one struct.pack (the others)
WIDE_PRIMES = [251, 257, 65537, 1048573]


@st.composite
def sparse_poly_over(draw, q, max_len=12):
    """Nonzero length 1..max_len, about half the coefficients zero."""
    f = field_from_order(q)
    coeff = st.one_of(st.just(0), st.integers(1, q - 1))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=max_len))
    coeffs[-1] = draw(st.integers(1, q - 1))
    return Polynomial(f, coeffs)


@settings(max_examples=150)
@given(st.sampled_from(MUL_ORDERS + WIDE_PRIMES), st.data())
def test_mul_matches_naive_double_loop(q, data):
    a = data.draw(sparse_poly_over(q))
    b = data.draw(sparse_poly_over(q))
    assert a * b == naive_poly_mul(a, b)
    assert b * a == naive_poly_mul(b, a)


@pytest.mark.parametrize("q", MUL_ORDERS + WIDE_PRIMES)
def test_mul_of_constants_and_interior_zeros(q):
    f = field_from_order(q)
    c, d = q - 1, q // 2 or 1
    gappy = Polynomial(f, [c, 0, 0, d, 0, 1])
    for a, b in [(Polynomial(f, [c]), Polynomial(f, [d])), (Polynomial(f, [c]), gappy),
                 (gappy, gappy), (gappy, Polynomial(f, [0, 0, c])),
                 (gappy, Polynomial.zero(f))]:
        assert a * b == naive_poly_mul(a, b) == b * a
    # (x + c)(x - c): the two x terms cancel, which the Zech lane marks by a log past 2(q - 1)
    prod = Polynomial(f, [c, 1]) * Polynomial(f, [f.neg(c), 1])
    assert prod == Polynomial(f, [f.neg(f.mul(c, c)), 0, 1])


# (p, e): a prime-field product slot sums up to min(len a, len b) * (p - 1)^2,
# which crosses 2^e, and with it the Kronecker slot width, between the two
# lengths the test takes; 2^32 + 15, past MAX_ORDER, needs 16-byte slots
SLOT_EDGES = [(2, 8), (3, 8), (5, 8), (17, 8), (17, 16), (251, 16), (257, 16),
              (4099, 32), (65537, 32), (2 ** 32 + 15, 64)]


@pytest.mark.parametrize("p, e", SLOT_EDGES)
def test_mul_of_full_operands_at_each_slot_width_edge(p, e):
    # all coefficients p - 1, so the middle slots reach their largest sum
    f = make_field(p)
    shortest = -(-(1 << e) // (p - 1) ** 2)  # the least min(len a, len b) at or past 2^e
    for length in (shortest - 1, shortest):
        if length < 1:
            continue
        assert (length >= shortest) == (length * (p - 1) ** 2 >= 1 << e)
        a = Polynomial(f, [p - 1] * length)
        for b in (a, Polynomial(f, [p - 1] * (length + 3))):
            assert a * b == naive_poly_mul(a, b) == b * a, (p, length, len(b.coeffs))


def test_prime_field_products_make_no_field_mul_call(monkeypatch):
    def refuse(self, a, b):
        raise AssertionError(f"Field.mul called over {self!r}")

    monkeypatch.setattr(Field, "mul", refuse)
    for q in [2, 3, 5, 17] + WIDE_PRIMES:
        f = field_from_order(q)
        a = Polynomial(f, [q - 1, 0, 1] * 40)
        b = Polynomial(f, [1, q - 1, 0, 0, q // 2 or 1])
        for x, y in [(a, b), (a, a), (b, Polynomial.one(f)), (a, Polynomial.zero(f))]:
            x * y
        b ** 5


def _int_schoolbook(a, b, p):
    """The product's coefficients by a double loop on ints mod p, trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# (p, shorter): min(len a, len b) * (p - 1)^2 is 252 and 256 for p = 3, 255 and
# 256 for p = 2, 144 and 288 for p = 13; the first of each pair takes one-byte
# product slots, decided by one comparison, and the second two-byte slots
ONE_BYTE_EDGES = [(3, 63), (3, 64), (2, 255), (2, 256), (13, 1), (13, 2)]


@pytest.mark.parametrize("p, shorter", ONE_BYTE_EDGES)
def test_prime_field_products_at_the_one_byte_boundary_equal_schoolbook(p, shorter):
    f = make_field(p)
    rng = random.Random(1000 * p + shorter)
    operands = [([p - 1] * shorter, [p - 1] * (shorter + 5))]  # every slot at its largest sum
    for extra in (0, 1, 40):
        a = [rng.randrange(p) for _ in range(shorter - 1)] + [rng.randrange(1, p)]
        b = [rng.randrange(p) for _ in range(shorter + extra - 1)] + [rng.randrange(1, p)]
        operands.append((a, b))
    for a, b in operands:
        for x, y in ((a, b), (b, a)):
            assert (Polynomial(f, x) * Polynomial(f, y)).coeffs == _int_schoolbook(x, y, p)


def test_products_over_different_prime_fields_raise_field_mismatch():
    # fields compare by identity: a second GF(3) object is another field
    gf3, other_gf3 = make_field(3), Field(3, 1, (0, 1))
    for f, g in [(GF2, gf3), (gf3, other_gf3), (gf3, make_field(3, 2)), (gf3, GF2)]:
        for a, b in [(Polynomial(f, (1, 1)), Polynomial(g, (1, 1))),
                     (Polynomial.zero(f), Polynomial(g, (1,))),
                     (Polynomial(f, (0, 1)), Polynomial.zero(g))]:
            with pytest.raises(FieldMismatchError):
                a * b


@pytest.mark.parametrize("q", [4, 32, 256, 512])
def test_row_lane_products_with_either_operand_shorter(q):
    # GF(256) is the row lane's largest field and GF(512) the first past it
    f = field_from_order(q)
    c, d = q - 1, q // 2
    longer = Polynomial(f, [(7 * i + 3) % q for i in range(40)] + [1])
    for shorter in ([c], [1], [0, 0, d], [c, 0, 0, 1, 0, d], [0, 1, 0, c], [d, c, 1]):
        b = Polynomial(f, shorter)
        assert longer * b == naive_poly_mul(longer, b) == b * longer, shorter


def test_gf256_products_build_one_row_per_coefficient_and_no_field_mul(monkeypatch):
    # a field of its own, so no earlier product has built its rows
    f = Field(2, 8, lex_least_irreducible(2, 8))
    longer = Polynomial(f, [(37 * i + 11) % 256 for i in range(60)] + [1])
    shorter = Polynomial(f, [5, 0, 1, 200, 5, 0, 77, 1])
    expected = naive_poly_mul(longer, shorter)
    built, build = [], Field._mul_row

    def counted_row(self, c):
        built.append(c)
        return build(self, c)

    def refuse(self, *args):
        raise AssertionError(f"a product over {self!r} read Field.mul or the log lists")

    monkeypatch.setattr(Field, "_mul_row", counted_row)
    monkeypatch.setattr(Field, "mul", refuse)
    assert longer * shorter == expected == shorter * longer
    assert sorted(built) == [5, 77, 200]
    # with its rows built, a product reads no log list: no per-coefficient log loop
    monkeypatch.setattr(Field, "_logs", refuse)
    assert shorter * (longer + Polynomial.one(f)) == expected + shorter
    assert sorted(built) == [5, 77, 200]


def test_a_product_imports_no_module():
    # a fresh interpreter: numpy's import already brings _struct, so what a product
    # can add, array or anything else, shows as a change of sys.modules
    code = ("import sys, cyclic_pairs\n"
            "from cyclic_pairs import Polynomial, field_from_order\n"
            "loaded = set(sys.modules)\n"
            "for q in (2, 3, 65537):\n"
            "    f = field_from_order(q)\n"
            "    a = Polynomial(f, [1, 0, q - 1] * 30)\n"
            "    a * a\n"
            "print(sorted(set(sys.modules) - loaded), 'array' in sys.modules)\n")
    env = dict(os.environ)
    package_root = str(Path(cyclic_pairs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "False"]


@settings(max_examples=100)
@given(st.sampled_from(MUL_ORDERS), st.data())
def test_sub_and_neg_undo_add(q, data):
    a = data.draw(poly_over(q, max_degree=16))
    b = data.draw(poly_over(q, max_degree=16))
    assert (a - b) + b == a
    assert (a + (-a)).is_zero()
    assert -(-a) == a


@settings(max_examples=60)
@given(st.sampled_from(MUL_ORDERS), st.data())
def test_divmod_round_trip(q, data):
    a = data.draw(poly_over(q))
    b = data.draw(poly_over(q))
    if b.is_zero():
        return
    quo, rem = divmod(a, b)
    assert b * quo + rem == a
    assert rem.is_zero() or rem.degree < b.degree


@settings(max_examples=40)
@given(st.sampled_from([2, 3]), st.data())
def test_gcd_against_common_divisor_scan(q, data):
    f = field_from_order(q)
    a = data.draw(poly_over(q, max_degree=6))
    b = data.draw(poly_over(q, max_degree=6))
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    assert divides(g, a) and divides(g, b)
    # every common divisor (exhaustive scan up to degree 6) divides g
    for coeffs in product(range(q), repeat=min(7, 7)):
        cand = Polynomial(f, coeffs)
        if cand.is_zero():
            continue
        if divides(cand, a) and divides(cand, b):
            assert divides(cand, g)


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 4, 5]), st.data())
def test_lcm_times_gcd_is_the_product_up_to_a_unit(q, data):
    a = data.draw(poly_over(q, max_degree=16))
    b = data.draw(poly_over(q, max_degree=16))
    if a.is_zero() or b.is_zero():
        return
    g, l = poly_gcd(a, b), poly_lcm(a, b)
    assert g.degree + l.degree == a.degree + b.degree
    assert (g * l) == (a * b).monic().monic() if (a * b).is_monic() else True
    prod = a * b
    unit = prod.field.mul(prod.leading(), prod.field.inv((g * l).leading()))
    assert Polynomial(prod.field, [prod.field.mul(unit, c)
                                   for c in (g * l).coeffs]) == prod


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 4, 9]), st.integers(0, 9), st.data())
def test_pow_equals_repeated_product(q, e, data):
    f = data.draw(poly_over(q, max_degree=8))
    expected = Polynomial.one(f.field)
    for _ in range(e):
        expected = expected * f
    assert f ** e == expected


def test_negative_pow_rejected():
    with pytest.raises(ValueError):
        P("x") ** -1


# -- text round trips ----------------------------------------------------------

def test_parse_examples():
    assert P("x^4 + x^2 + x + 1").coeffs == (1, 1, 1, 0, 1)
    assert P("x + 1").coeffs == (1, 1)
    assert P("x^2 + x^2").is_zero()  # same-degree terms sum, char 2
    assert P("0").is_zero()


def test_parse_list_form():
    assert P("[1,1,1,0,1]") == P("x^4 + x^2 + x + 1")
    assert P("[]").is_zero()
    gf5 = make_field(5)
    assert parse_poly("[4, 0, 1]", gf5) == parse_poly("x^2 + 4", gf5)


def test_parse_minus_in_odd_characteristic():
    gf7 = make_field(7)
    assert parse_poly("x - 1", gf7).coeffs == (6, 1)
    assert parse_poly("x^2 - 3*x - 2", gf7).coeffs == (5, 4, 1)


def test_parse_rejects_out_of_field_coefficients():
    with pytest.raises(PolyParseError):
        P("2*x + 1")  # 2 >= field order 2, no implicit reduction
    gf5 = make_field(5)
    with pytest.raises(PolyParseError):
        parse_poly("7*x", gf5)
    with pytest.raises(PolyParseError):
        parse_poly("[5]", gf5)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(PolyParseError) as exc:
        P("x^2 + + x")
    assert exc.value.pos > 0
    with pytest.raises(PolyParseError):
        P("x^2 +")
    with pytest.raises(PolyParseError):
        P("")
    with pytest.raises(PolyParseError):
        P("x^2 y")


def test_parse_refuses_degrees_past_the_length_bound():
    # no divisor of x^n - 1 with n <= MAX_LENGTH = 4096 has a higher degree
    assert P("x^4096 + 1").degree == 4096
    assert P("[" + "0," * 4096 + "1]").degree == 4096
    with pytest.raises(PolyParseError, match="exponent 4097 > 4096") as exc:
        P("x + x^4097")
    assert exc.value.pos == 4
    with pytest.raises(PolyParseError, match="more than 4097 coefficients"):
        P("[" + "0," * 4097 + "1]")


def test_parse_refuses_huge_digit_strings_before_converting_them():
    nines = "9" * 5000  # past Python's 4300-digit limit on int(str)
    for text, pos, why in ((f"x^{nines}", 0, "exponent of 5000 digits > 4096"),
                           (nines, 0, "coefficient of 5000 digits >= field order 2"),
                           (f"[{nines}]", 1, "coefficient of 5000 digits >= field order 2")):
        with pytest.raises(PolyParseError, match=why) as exc:
            P(text)
        assert exc.value.pos == pos
    # leading zeros do not count towards the bound
    assert P("0" * 5000 + "1*x^" + "0" * 5000 + "3").coeffs == (0, 0, 0, 1)


def test_parse_error_quotes_a_window_around_the_position():
    text = "[" + "0," * 4097 + "1]"
    with pytest.raises(PolyParseError) as exc:
        P(text)
    message = str(exc.value)
    assert len(message.encode()) < 300
    assert "at position 0: more than 4097 coefficients" in message
    assert message.startswith("cannot parse '[0,0,") and "...'" in message
    with pytest.raises(PolyParseError, match=r"cannot parse '\.\.\.0,0,") as exc:
        P("[" + "0," * 100 + "7]")
    assert exc.value.pos == 201


def test_format_canonical_descending():
    assert str(P("[1,1,1,0,1]")) == "x^4 + x^2 + x + 1"
    assert str(Polynomial.zero(GF2)) == "0"
    gf7 = make_field(7)
    assert str(parse_poly("3*x^2 + x + 5", gf7)) == "3*x^2 + x + 5"


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5, 7, 9]), st.data())
def test_parse_format_round_trip(q, data):
    p = data.draw(poly_over(q, max_degree=12))
    f = field_from_order(q)
    assert parse_poly(str(p), f) == p
    assert parse_poly("[" + ",".join(map(str, p.coeffs)) + "]", f) == p


def test_xn_minus_1():
    assert xn_minus_1(GF2, 7) == P("x^7+1")
    gf3 = make_field(3)
    assert xn_minus_1(gf3, 2) == parse_poly("x^2 - 1", gf3)
    with pytest.raises(ValueError):
        xn_minus_1(GF2, 0)
