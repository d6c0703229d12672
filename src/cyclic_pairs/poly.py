"""Univariate polynomials over a Field.

Coefficients are stored as the field's plain integer elements, ascending
by degree, with no trailing zeros (the zero polynomial has an empty
coefficient tuple and degree ``None``).  Divisors of x^n - 1 are worked
with as exponent vectors (``Factorization``); polynomials are their
output form, so this module has no gcd or lcm.

Products take one lane per field, all giving the same coefficients:

* prime fields, GF(2) among them: Kronecker substitution (Harvey 2009),
  as in the field layer: each operand is packed once into an int,
  coefficient i in slot i of u bytes (one ``struct.pack`` for p >= 256),
  the ints are multiplied, and the product is unpacked once, its slots
  taken mod p by ``bytes.translate`` (u = 1) or over a ``memoryview.cast``
  (``_kronecker``).  One
  comparison, min(len a, len b)·(p − 1)² < 256, picks u = 1 before any
  loop, and ``__mul__`` compares the fields by identity and builds the
  product in place, so ``_kronecker`` is its only call;
* GF(2^m) with q <= 256, where an element is one byte: the loop runs
  over the shorter operand, and each nonzero coefficient c translates
  the longer operand's bytes by c's multiplication row
  (``Field._mul_row``, 256 bytes built from ``Field._logs`` the first
  time c is met), shifts the result and XORs it into one int, which is
  unpacked once;
* the other extension fields with log tables (``Field._small``:
  GF(2^m) with 512 <= q <= 4096 and odd p; the lists are built by
  ``Field._logs`` on the first such product): each term is
  ``exp[log a + log b]``, XORed in for p = 2 and added by the Zech
  logarithm table for odd p (Lidl & Niederreiter, §10.1);
* larger extension fields: ``Field.mul`` and ``Field.add`` per term.

Products are canonical by construction and skip the constructor's
per-coefficient check and trim: over a field the product of two nonzero
leading coefficients is nonzero.  Subtraction adds the negation, and
``divmod`` negates each quotient coefficient once and then adds.
"""

from __future__ import annotations

import re
import struct
import sys
from functools import lru_cache

from cyclic_pairs.fields import Field, FieldMismatchError

# longest code length x^n - 1 is built or factored for; longer ones are
# refused before anything is allocated
MAX_LENGTH = 1 << 12
_QUOTE_SPAN = 40  # most characters a parse error quotes on each side of its position


class PolyParseError(ValueError):
    """Polynomial text that does not match the grammar."""

    def __init__(self, text: str, pos: int, why: str):
        lo, hi = max(0, pos - _QUOTE_SPAN), pos + _QUOTE_SPAN
        quoted = ("..." if lo else "") + text[lo:hi] + ("..." if hi < len(text) else "")
        super().__init__(f"cannot parse {quoted!r} at position {pos}: {why}")
        self.pos = pos


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


# slot width in bytes -> memoryview and struct format of one unsigned slot
_SLOT_FORMAT = {2: "H", 4: "I", 8: "Q"}


@lru_cache(maxsize=None)
def _mod_table(p: int) -> bytes:
    return bytes(v % p for v in range(256))  # for bytes.translate: each byte mod p


def _pack(coeffs: tuple[int, ...], p: int, u: int) -> int:
    """Coefficient i in bytes [u*i, u*(i+1)) of a little-endian int, u > 1."""
    if p >= 256:  # a coefficient is more than one byte
        if u in _SLOT_FORMAT:  # "<": little-endian standard sizes on any host
            fmt = f"<{len(coeffs)}{_SLOT_FORMAT[u]}"
            return int.from_bytes(struct.pack(fmt, *coeffs), "little")
        return int.from_bytes(b"".join(c.to_bytes(u, "little") for c in coeffs), "little")
    slots = bytearray(u * len(coeffs))
    slots[::u] = bytes(coeffs)
    return int.from_bytes(slots, "little")


def _kronecker(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The coefficients of a * b over GF(p), by one int product.

    A product slot sums at most min(len a, len b) terms of at most
    (p - 1)^2, so a slot of u bytes, the least u in 1, 2, 4, 8, ... with
    that sum below 2^(8u), never carries.  For p < MAX_ORDER = 2^20,
    8 bytes cover every min(len a, len b) < 2^24.
    """
    top, n = min(len(a), len(b)) * (p - 1) ** 2, len(a) + len(b) - 1
    if top < 256:  # u = 1, so p <= 13: a coefficient is a byte
        prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
        return tuple(prod.to_bytes(n, "little").translate(_mod_table(p)))
    u = 2
    while top >> (8 * u):
        u *= 2
    raw = (_pack(a, p, u) * _pack(b, p, u)).to_bytes(u * n, "little")
    if u in _SLOT_FORMAT and sys.byteorder == "little":
        slots = memoryview(raw).cast(_SLOT_FORMAT[u])
    else:  # no native format of this width: one slot at a time
        slots = (int.from_bytes(raw[k:k + u], "little") for k in range(0, len(raw), u))
    return tuple([c % p for c in slots])


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = _trim([field._check(c) for c in coeffs])

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _product(cls, field: Field, coeffs) -> "Polynomial":
        """From a product's coefficients, canonical in ``field`` with a nonzero
        leading one: checks and trims nothing."""
        poly = object.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(coeffs)
        return poly

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (1,))

    # -- basic structure ------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (no -1 sentinel)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.field.inv(self.coeffs[-1])
        return Polynomial(self.field, [self.field.mul(c, inv) for c in self.coeffs])

    def _same_field(self, other: "Polynomial") -> None:
        if other.field is not self.field:
            raise FieldMismatchError(
                f"polynomials over {self.field!r} and {other.field!r}")

    # -- ring arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Polynomial(f, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        if other.field is not f:
            self._same_field(other)  # raises
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(f)
        if f.m == 1:  # built in place: the product lane is the only call
            poly = object.__new__(Polynomial)
            poly.field, poly.coeffs = f, _kronecker(a, b, f.p)
            return poly
        if f.p == 2 and f.q <= 256:
            # an element is one byte, so one translate multiplies a whole operand by c
            if len(a) < len(b):
                a, b = b, a
            longer, rows, acc = bytes(a), f._rows, 0
            for j, c in enumerate(b):
                if c:
                    term = longer if c == 1 else longer.translate(rows.get(c) or f._mul_row(c))
                    acc ^= int.from_bytes(term, "little") << (8 * j)
            return Polynomial._product(f, acc.to_bytes(len(a) + len(b) - 1, "little"))
        out = [0] * (len(a) + len(b) - 1)
        if f._small:
            exp, log, zech = f._logs()
            b_logs = [(j, log[cb]) for j, cb in enumerate(b) if cb]
            if f.p == 2:
                for i, ca in enumerate(a):
                    if ca:
                        la = log[ca]
                        for j, lb in b_logs:
                            out[i + j] ^= exp[la + lb]
            else:
                for i, ca in enumerate(a):
                    if ca:
                        la = log[ca]
                        for j, lb in b_logs:
                            k = i + j
                            acc = out[k]
                            if acc:
                                # log(acc + g^t) = log(acc) + zech[t - log(acc)], t = la + lb
                                lacc = log[acc]
                                out[k] = exp[lacc + zech[la + lb - lacc]]
                            else:
                                out[k] = exp[la + lb]
            return Polynomial._product(f, out)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = f.add(out[i + j], f.mul(ca, cb))
        return Polynomial._product(f, out)

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"polynomial exponent must be a non-negative integer, got {e!r}")
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Polynomial.one(self.field) if result is None else result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._same_field(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        db = other.degree
        rem = list(self.coeffs)
        if len(rem) - 1 < db:
            return Polynomial.zero(f), self
        quo = [0] * (len(rem) - db)
        inv_lead = f.inv(other.coeffs[-1])
        for shift in range(len(rem) - db - 1, -1, -1):
            c = f.mul(rem[shift + db], inv_lead)
            if c == 0:
                continue
            quo[shift] = c
            c = f.neg(c)
            for j, cb in enumerate(other.coeffs):
                if cb:
                    rem[shift + j] = f.add(rem[shift + j], f.mul(c, cb))
        return Polynomial(f, quo), Polynomial(f, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.field is self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, v: int) -> int:
        """Horner evaluation at the element ``v`` of the polynomial's field."""
        f, acc = self.field, 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, v), c)
        return acc

    # -- text form ----------------------------------------------------------------

    def __str__(self):
        return format_coeffs(self.coeffs)

    def __repr__(self):
        return f"Polynomial({self.field!r}, {list(self.coeffs)})"


def format_coeffs(coeffs) -> str:
    """Canonical descending text form, e.g. "x^4 + x^2 + x + 1"."""
    coeffs = _trim(list(coeffs))
    if not coeffs:
        return "0"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append("x" if k == 1 else f"x^{k}")
        else:
            terms.append(f"{c}*x" if k == 1 else f"{c}*x^{k}")
    return " + ".join(terms)


_TERM_RE = re.compile(
    r"\s*(?:(?P<coeff>\d+)\s*\*?\s*)?(?:(?P<x>x)(?:\s*\^\s*(?P<exp>\d+))?)?\s*")


def _bounded_int(digits: str, bound: int, text: str, pos: int, why: str) -> int:
    """A digit string's value, or PolyParseError above bound; long ones never reach int()."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(bound)) or int(digits) > bound:
        shown = digits if len(digits) <= _QUOTE_SPAN else f"of {len(digits)} digits"
        raise PolyParseError(text, pos, why.format(shown))
    return int(digits)


def parse_poly(text: str, field: Field) -> Polynomial:
    """Parse polynomial text or a compact ascending coefficient list.

    Accepted term forms: "x^k", "x", "c", "c*x^k" (also "c*x" and "cx^k");
    terms joined with "+" or "-".  Coefficients at or above the field
    order are rejected rather than reduced.  The "[c0,c1,...]" list form
    is ascending by degree.  Degrees above MAX_LENGTH are refused before
    anything is allocated.
    """
    too_big = f"coefficient {{}} >= field order {field.q}"
    s = text.strip()
    if not s:
        raise PolyParseError(text, 0, "empty input")
    if s.startswith("["):
        if not s.endswith("]"):
            raise PolyParseError(text, len(text) - 1, "unterminated coefficient list")
        body = s[1:-1].strip()
        items = [] if not body else [part.strip() for part in body.split(",")]
        if len(items) > MAX_LENGTH + 1:
            raise PolyParseError(text, text.index("["), f"more than {MAX_LENGTH + 1} coefficients")
        coeffs = []
        for part in items:
            if not re.fullmatch(r"\d+", part):
                raise PolyParseError(text, text.find(part), f"bad coefficient {part!r}")
            coeffs.append(_bounded_int(part, field.q - 1, text, text.find(part), too_big))
        return Polynomial(field, coeffs)

    coeffs: dict[int, int] = {}
    pos = 0
    sign = 1
    expect_term = True
    n = len(s)
    while pos < n:
        if s[pos].isspace():
            pos += 1
            continue
        if not expect_term:
            if s[pos] == "+":
                sign, pos, expect_term = 1, pos + 1, True
                continue
            if s[pos] == "-":
                sign, pos, expect_term = -1, pos + 1, True
                continue
            raise PolyParseError(text, pos, f"expected '+' or '-', found {s[pos]!r}")
        m = _TERM_RE.match(s, pos)
        if not m or (m.group("coeff") is None and m.group("x") is None):
            raise PolyParseError(text, pos, "expected a term")
        c = _bounded_int(m.group("coeff") or "1", field.q - 1, text, pos, too_big)
        if m.group("x") is None:
            k = 0
        elif m.group("exp") is None:
            k = 1
        else:
            k = _bounded_int(m.group("exp"), MAX_LENGTH, text, pos,
                             f"exponent {{}} > {MAX_LENGTH}")
        if sign == -1:
            c = field.neg(c)
        coeffs[k] = field.add(coeffs.get(k, 0), c)
        pos = m.end()
        expect_term = False
    if expect_term:
        raise PolyParseError(text, n, "dangling operator")
    top = max(coeffs)
    return Polynomial(field, [coeffs.get(k, 0) for k in range(top + 1)])


def xn_minus_1(field: Field, n: int) -> Polynomial:
    if not 1 <= n <= MAX_LENGTH:
        raise ValueError(f"length must be in 1..{MAX_LENGTH}, got {n}")
    coeffs = [0] * (n + 1)
    coeffs[0] = field.neg(1)
    coeffs[n] = 1
    return Polynomial(field, coeffs)
