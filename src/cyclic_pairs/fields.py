"""Exact arithmetic in GF(p^m).

A field is identified by its characteristic ``p`` and extension degree
``m``; the modulus is always the lexicographically least monic
irreducible polynomial of degree ``m`` over GF(p), coefficients compared
ascending from the constant term, so field presentations are
reproducible across runs.  Elements are plain integers in ``[0, p^m)``
whose base-p digits are the coefficients (ascending) of the
representative polynomial; every method takes and returns them.
``make_field`` builds degrees m up to ``MAX_EXTENSION_DEGREE`` and
``field_from_order``, the entry for user input, orders up to
``MAX_ORDER``.

``add``, ``mul`` and ``pow`` have one lane per kind of field:

* prime fields (m = 1) reduce integers mod p, and ``pow`` is Python's
  ``pow(a, e, p)``;
* extension fields pack the coefficients of an element into one int,
  coefficient i in its own slot of w bits (``_SlotRing``).  A product is
  one int multiply (Kronecker substitution; Harvey 2009), every slot is
  taken mod p at once, and the reduction mod f is Barrett's (Barrett
  1986) with mu = x^(2m-2) // f built with the ring.  The slot width,
  the slot reduction, the packing and the resultant depend on p: for odd
  p the slots are as wide as the largest slot sum needs, and one
  multiply, shift and mask takes them mod p (Granlund & Montgomery 1994);
  for p = 2 they are one or two bytes, one AND takes them mod 2, packing
  is a few C-level ``bytes`` operations, and the resultant's Euclid runs
  on the plain bits of the unpacked operands (``_BinarySlotRing``).
  ``mul`` packs its operands and unpacks the result; ``pow`` packs its
  operand once and squares and multiplies on slots.  For p = 2 ``add``
  stays XOR on the encodings; for odd p it adds packed slots.  Ben-Or's
  irreducibility test behind the modulus search runs on the same rings.

Every lane composes ``neg`` (times p - 1, the prime-field constant -1),
``sub`` (add the negation) and ``inv`` (Fermat's a^(q-2)) from these three.

The modulus search tests candidates in lexicographic order with Ben-Or's
test (Ben-Or 1981; Gao & Panario 1997): f of degree m is irreducible when
gcd(x^(p^i) - x, f) = 1 for every i <= m/2.  The x^(p^i) - x mod f are
multiplied over blocks of i of lengths 1, 2, 4, ..., the last cut at m/2,
with one gcd per block; an irreducible factor of f divides the product
exactly when it divides one factor, and a zero product gives gcd(0, f) = f.
Most reducible candidates fall in the first blocks.  A gcd is 1 exactly
when the resultant Res(f, b) in GF(p) is nonzero, and the ring reads it
off Euclid's remainders (``_SlotRing.resultant``), degrees off the bit
length.  For irreducible f the resultant is the norm of b down to GF(p),
by which ``element_of_order`` tells the r-th powers for r | p - 1.
Lex order varies only the top coefficients: the k-th candidate of a
constant term c0 has c_(m-1-i) = base-p digit i of k, so the search
builds each candidate as its few nonzero terms {j: c} from the digits of
k, and the root sieve, the orientation and the ring read only those.
When p <= m + 1 the search first drops a candidate with a root in
GF(p), in plain ints: the coefficient sum tests a = 1 and the sum of
c a^j over the terms every other a, which answers the block i = 1; for
larger p that sieve would cost more than the block, so it is skipped
and the block runs.  The test runs mod whichever of f and its monic
reciprocal x^m f(1/x) / f(0) has the shorter tail, told by the lowest and
highest inner term, where mu is closed-form (``_SlotRing``); the slot
constants are kept per (p, m), and while p^i < m, x^(p^i) is a monomial
set with no power.

Fields with at most ``_TABLE_LIMIT`` elements also have log/antilog
lists over a primitive element, and in odd characteristic a Zech
logarithm list (Lidl & Niederreiter, *Finite Fields*, §10.1), built once
by ``Field._logs`` when first read.  ``Field`` arithmetic reads none of
them: their four readers are the inline log lane of
``poly.Polynomial.__mul__`` (extension fields only), the multiplication
rows of ``Field._mul_row`` (one ``bytes.translate`` table per coefficient
met, for GF(2^m) with q <= 256, which that product reads in place of the
log lane), the lookup tables of ``Field.tables`` and the Berlekamp-Massey
lists of ``factorization`` (fields of order at most 49, prime fields
too), so a field that none uses builds none.
The trace tables behind the minimal polynomials of ``factorization`` are
built on a slot ring, as int products with a packed trace functional, and
its roots of unity come from ``element_of_order``, the one search for an
element of given order.
Only the lookup tables of ``Field.tables`` use numpy.
"""

from __future__ import annotations

from functools import lru_cache
import numpy as np

# largest extension degree make_field builds
MAX_EXTENSION_DEGREE = 512
# largest field order field_from_order accepts
MAX_ORDER = 1 << 20

# log/antilog and add/mul lookup tables are only built for fields this small
_TABLE_LIMIT = 1 << 12


class FieldMismatchError(ValueError):
    """Operands belong to different fields."""


# ---------------------------------------------------------------------------
# GF(p)[x] mod f on packed ints

class _SlotRing:
    """GF(p)[x]/f on packed ints: coefficient i sits in bits [w*i, w*(i+1)).

    A product is one int multiply (Kronecker substitution), and ``reduce``
    takes every slot mod p at once.  Reduction mod f is Barrett's, with
    mu = x^(2m-2) // f, which is x^(m-2) - r // x^2 for f = x^m + r with
    2 deg r <= m + 1.  The slot width, ``reduce``, the packing and
    ``resultant`` depend on p: for odd p, w holds the largest slot sum
    times the constant c of ``reduce``, so nothing carries into the next
    slot.  That sum is m(p-1)^2 in a product and p(p-1) in a multiply-add
    a + c*b of reduced slots (division and Euclid steps); the second is
    larger only for m = 1.  The trace functional of
    ``factorization._trace_form`` is a product of two reduced elements,
    so its slot m - 1 is within the first.  p = 2 is ``_BinarySlotRing``.
    The slot constants are kept per (p, m), so a ring costs only the
    packing of its terms and, past the closed form, the division for mu.
    """

    __slots__ = ("p", "m", "w", "k", "c", "qmask", "low", "f", "mu", "negf")

    def __init__(self, terms: dict[int, int], p: int):
        """The ring mod f = sum of c x^j over ``terms`` {j: c}, monic of degree
        max(terms), coefficients in [0, p); zero terms may be left out."""
        m = max(terms)
        self.p, self.m = p, m
        self._set_width()
        w = self.w
        self.low = (1 << (w * m)) - 1
        self.f = sum(c << (w * j) for j, c in terms.items())
        self.negf = negf = sum(-c % p << (w * j) for j, c in terms.items() if j < m)
        if m > 1 and 2 * ((negf.bit_length() - 1) // w) <= m + 1:  # 2 deg r <= m + 1
            # x^(2m-2) - f * mu = r * (r // x^2) - x^(m-2) * (r mod x^2) has degree < m
            self.mu = (1 << (w * (m - 2))) + (negf >> (2 * w))
        else:
            self.mu = self._divide_mu()

    def _set_width(self) -> None:
        self.w, self.k, self.c, self.qmask = _odd_slot_constants(self.p, self.m)

    def pack_coeffs(self, coeffs) -> int:
        return sum(x << (self.w * i) for i, x in enumerate(coeffs))

    def pack(self, v: int) -> int:
        """The packed form of a field element's base-p encoding."""
        p, w, out, shift = self.p, self.w, 0, 0
        while v:
            v, d = divmod(v, p)
            out |= d << shift
            shift += w
        return out

    def unpack(self, a: int) -> int:
        """The base-p encoding of a packed element with reduced slots."""
        p, w, v = self.p, self.w, 0
        mask = (1 << w) - 1
        for shift in range(w * (self.m - 1), -1, -w):
            v = v * p + (a >> shift & mask)
        return v

    def reduce(self, a: int) -> int:
        """Every slot (at most max(m(p-1), p) * (p-1)) mod p at once; one
        multiply, shift and mask gives the quotients."""
        return a - self.p * ((a * self.c >> self.k) & self.qmask)

    def mul(self, a: int, b: int) -> int:
        """a * b mod f; Barrett's quotient is (C // x^m) * mu // x^(m-2)."""
        w, m, low = self.w, self.m, self.low
        prod = self.reduce(a * b)
        quo = self.reduce((prod >> (w * m)) * self.mu >> (w * (m - 2)))
        return self.reduce((prod & low) + (quo * self.negf & low))

    def pow(self, a: int, e: int) -> int:
        """a^e mod f for e >= 1, left to right from the leading bit of e."""
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def _divide_mu(self) -> int:
        """mu = x^(2m-2) // f by long division: f is monic, so quotient slot i
        is the dividend's slot m + i once the slots above it are cleared."""
        p, w, m, f = self.p, self.w, self.m, self.f
        mu, a = 0, 1 << (w * (2 * m - 2))
        for i in range(m - 2, -1, -1):
            lead = a >> (w * (m + i))
            mu |= lead << (w * i)
            a = self.reduce(a + ((-lead % p) * f << (w * i)))
        return mu

    def resultant(self, b: int) -> int:
        """Res(f, b) in GF(p), from Euclid's remainders, which it keeps only:
        Res(A, B) = (-1)^(deg A deg B) lc(B)^(deg A - deg R) Res(B, R) with
        R = A mod B, and a constant B gives B^(deg A).  It is 0 exactly when
        gcd(b, f) != 1 (so for b = 0), and the norm b^((p^m-1)/(p-1)) of b
        when f is irreducible."""
        p, w, a, da, res = self.p, self.w, self.f, self.m, 1
        while b:
            db = (b.bit_length() - 1) // w
            lead = b >> (w * db)
            if not db:
                return res * pow(lead, da, p) % p
            inv, dr = pow(lead, -1, p), da
            while dr >= db:
                c = (a >> (w * dr)) * inv % p
                a = self.reduce(a + ((p - c) * b << (w * (dr - db))))
                dr = (a.bit_length() - 1) // w
            if da & db & 1:
                res = p - res
            res = res * pow(lead, da - dr, p) % p
            a, da, b = b, db, a
        return 0


@lru_cache(maxsize=None)
def _odd_slot_constants(p: int, m: int) -> tuple[int, int, int, int]:
    top = (p - 1) * max(m * (p - 1), p)
    # floor(s * c / 2^k) = s // p for every slot value s <= top (Granlund & Montgomery)
    k = top.bit_length() + p.bit_length()
    c = -(-(1 << k) // p)
    w = (top * c).bit_length()
    return w, k, c, ((1 << (w - k)) - 1) * (((1 << (w * (2 * m - 1))) - 1) // ((1 << w) - 1))


# one byte per bit of a binary numeral, and back
_BIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")
_BYTE_TO_BIT = bytes.maketrans(b"\x00\x01", b"01")


class _BinarySlotRing(_SlotRing):
    """GF(2)[x]/f on packed ints with byte-aligned slots.

    A slot of a product sums at most m products of bits, so w = 8 for
    m <= 255 and w = 16 up to ``MAX_EXTENSION_DEGREE`` never carries, nor
    does Barrett's step, whose sums are smaller, nor the slot m - 1 of a
    trace functional's product.  Mod 2 is one AND with the slots' low
    bits, kept per m with the width.  Packing
    spreads the bits of an element's encoding into bytes with C-level
    ``bytes`` operations, not a loop over slots.
    """

    __slots__ = ("ones",)

    def _set_width(self) -> None:
        self.w, self.ones = _binary_slot_constants(self.m)

    def pack(self, v: int) -> int:
        k = self.w // 8
        bits = format(v, "b").encode().translate(_BIT_TO_BYTE)  # leading bit first
        slots = bytearray(k * len(bits))
        slots[k - 1::k] = bits
        return int.from_bytes(slots, "big")

    def unpack(self, a: int) -> int:
        k = self.w // 8
        return int(a.to_bytes(k * self.m, "big")[k - 1::k].translate(_BYTE_TO_BIT), 2)

    def reduce(self, a: int) -> int:
        return a & self.ones

    def resultant(self, b: int) -> int:
        """Res(f, b), which over GF(2) is 1 when gcd(b, f) = 1 and 0 otherwise,
        for b of degree < m: Euclid on the plain bits of f and b."""
        a, b = self.unpack(self.f & self.low) | 1 << self.m, self.unpack(b)
        while b:
            db = b.bit_length()
            while (da := a.bit_length()) >= db:
                a ^= b << (da - db)
            a, b = b, a
        return int(a == 1)


@lru_cache(maxsize=None)
def _binary_slot_constants(m: int) -> tuple[int, int]:
    w = 8 if m <= 255 else 16
    return w, ((1 << (w * (2 * m - 1))) - 1) // ((1 << w) - 1)  # bit 0 of each slot


def _slot_ring(terms: dict[int, int], p: int) -> _SlotRing:
    return _BinarySlotRing(terms, p) if p == 2 else _SlotRing(terms, p)


# ---------------------------------------------------------------------------
# Irreducibility and deterministic modulus selection

def _prime_divisors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _has_root(terms: dict[int, int], p: int) -> bool:
    """True when the polynomial sum of c x^j over ``terms`` {j: c} vanishes at
    some nonzero a in GF(p): at 1 when the coefficients sum to 0 mod p, at
    a >= 2 by one power of a per term."""
    if sum(terms.values()) % p == 0:
        return True
    return any(sum(c * pow(a, j, p) for j, c in terms.items()) % p == 0 for a in range(2, p))


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Ben-Or irreducibility test for a monic polynomial over GF(p).

    Coefficients are integers taken mod p, ascending.  gcd(x^(p^i) - x, f)
    = 1 is checked for i <= m/2, one resultant per block of i, on the
    packed ints of a slot ring mod f, or mod its monic reciprocal when that
    has the shorter tail.  When p <= m + 1 (so always for p = 2) a
    candidate with a root in GF(p) is rejected first, and i = 1 is
    skipped.
    """
    if not isinstance(p, int) or _prime_divisors(p) != [p]:
        raise ValueError(f"characteristic must be prime, got {p!r}")
    if not all(isinstance(c, int) for c in coeffs):
        raise ValueError(f"coefficients must be integers, got {coeffs!r}")
    coeffs = tuple(c % p for c in coeffs)
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    return m == 1 or _ben_or({j: c for j, c in enumerate(coeffs) if c}, p)


def _ben_or(terms: dict[int, int], p: int) -> bool:
    """``is_irreducible`` for the monic polynomial of degree m = max(terms) >= 2
    whose nonzero coefficients in [1, p) are ``terms`` {j: c}."""
    m = max(terms)
    sieved = p <= m + 1  # always for p = 2
    if 0 not in terms or (sieved and _has_root(terms, p)):
        return False
    # f and f* = x^m f(1/x) / c0 are irreducible together: test f* when its tail,
    # of degree m - (f's lowest inner term), is shorter than f's, so that the
    # ring's mu is closed-form
    inner = [j for j in terms if 0 < j < m]
    if inner and max(inner) > m - min(inner):
        inv = pow(terms[0], -1, p)
        terms = {m - j: c * inv % p for j, c in terms.items()}
    ring = _slot_ring(terms, p)
    w = ring.w
    x, power = 1 << w, 1  # power = p^i while x^(p^i) is a monomial
    t, acc = x, None
    for i in range(1, m // 2 + 1):
        if power * p < m:  # x^(p^i) has degree below m
            power *= p
            t = 1 << (w * power)
        else:
            t = ring.pow(t, p)  # x^(p^i)
        if i == 1 and sieved:
            continue
        diff = ring.reduce(t + (p - 1) * x)  # t - x
        acc = diff if acc is None else ring.mul(acc, diff)
        if i & (i + 1) == 0 or i == m // 2:  # blocks end at 2^k - 1 and at m/2
            if not ring.resultant(acc):
                return False
            acc = None
    return True


@lru_cache(maxsize=None)
def lex_least_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Deterministic field modulus: lex-least monic irreducible of degree m.

    Candidates are ordered by (c0, c1, ..., c_{m-1}), c0 = 0 skipped (x
    divides them).  Within c0 the k-th candidate has c_{m-1-i} = base-p
    digit i of k, so its terms are built from the digits of k alone.
    """
    if m == 1:
        return (0, 1)  # the polynomial x
    for c0 in range(1, p):
        for k in range(p ** (m - 1)):
            terms, j = {0: c0, m: 1}, m - 1
            while k:
                k, digit = divmod(k, p)
                if digit:
                    terms[j] = digit
                j -= 1
            if _ben_or(terms, p):
                return tuple(terms.get(j, 0) for j in range(m + 1))
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# Field

class Field:
    """The finite field GF(p^m) with canonical integer element encoding."""

    __slots__ = ("p", "m", "q", "modulus", "_ring", "_small", "_orders", "_powers",
                 "_lists", "_rows", "_add_table", "_mul_table")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self._small = m > 1 and self.q <= _TABLE_LIMIT
        self._ring = _slot_ring(dict(enumerate(modulus)), p) if m > 1 else None
        self._orders = {}  # n -> element_of_order(n)
        self._powers = {}  # prime r -> the beta element_of_order found to be r-th powers
        self._lists = None  # log/antilog (and, for odd p, Zech) lists; see _logs()
        self._rows = {}  # c -> bytes.translate table of v -> c * v; see _mul_row()
        self._add_table = None
        self._mul_table = None

    # -- encoding helpers ---------------------------------------------------

    def _check(self, v: int) -> int:
        if not isinstance(v, int) or not 0 <= v < self.q:
            raise ValueError(f"{v!r} is not a canonical element of {self}")
        return v

    def _logs(self) -> tuple[list[int], list[int], list[int] | None]:
        """(exp, log, zech), the lookup lists of a field of order at most
        ``_TABLE_LIMIT``, built on first call.

        With g the least primitive element and n = q - 1: ``exp[i]`` is
        g^(i mod n) for i < 2n and 0 beyond, ``log[g^i] = i``; for odd p
        ``zech[k]`` is log(1 + g^k), or 2n when 1 + g^k = 0, repeated
        twice so that differences of logs index it directly, and for
        p = 2 zech is None.  g is ``element_of_order(n)`` and its powers
        are one multiply chain on the slot ring, or on ints mod p for a
        prime field, whose lists ``tables`` and the Berlekamp-Massey lists
        of ``factorization`` (q <= 49) read.
        """
        if self._lists is not None:
            return self._lists
        p, q, ring = self.p, self.q, self._ring
        pack, mul, unpack = ((int, self.mul, int) if ring is None
                             else (ring.pack, ring.mul, ring.unpack))
        n = q - 1
        g = pack(self.element_of_order(n))
        exp, power = [], 1  # packed 1 is 1
        for _ in range(n):
            exp.append(unpack(power))
            power = mul(power, g)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        zech = None
        if p != 2:
            one_plus = (v - v % p + (v + 1) % p for v in exp)
            zech = [log[u] if u else 2 * n for u in one_plus] * 2
        self._lists = exp * 2 + [0] * n, log, zech
        return self._lists

    def _mul_row(self, c: int) -> bytes:
        """Build, keep in ``_rows`` and return the ``bytes.translate`` table of
        v -> c * v, c != 0, of a field of order at most 256; bytes at q and
        above are 0.  Products call it for a c not kept yet."""
        exp, log, _ = self._logs()
        lc = log[c]
        row = bytes([0] + [exp[lc + log[v]] for v in range(1, self.q)]).ljust(256, b"\0")
        self._rows[c] = row
        return row

    # -- arithmetic on integer encodings ------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        ring = self._ring
        return ring.unpack(ring.reduce(ring.pack(a) + ring.pack(b)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # -1 is the prime-field constant p - 1

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        ring = self._ring
        return ring.unpack(ring.mul(ring.pack(a), ring.pack(b)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.q - 2)  # Fermat: a^(q-1) = 1

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if self.m == 1:
            return pow(a, e, self.p)
        ring = self._ring  # pack once, square and multiply on slots
        return ring.unpack(ring.pow(ring.pack(a), e)) if e else 1

    def element_of_order(self, n: int) -> int:
        """The first gamma = beta^((q-1)/n), beta = 1, 2, ..., of order exactly n.

        gamma^n = 1 holds by construction, so gamma has order n when
        gamma^(n/r) != 1 for every prime r | n.  A prime-field constant
        beta < p gives a gamma in GF(p)*, whose order divides p - 1, so
        when n does not divide p - 1 the scan starts at beta = p and finds
        the same gamma.  gamma^(n/r) = beta^((q-1)/r), so a beta that fails
        the check at r is an r-th power and fails it for every n with r | n:
        such beta are kept per r and skipped.  For m > 1 and r | p - 1,
        beta^((q-1)/r) = N(beta)^((p-1)/r) with N(beta) the norm down to
        GF(p), the resultant of the modulus and beta: those primes are
        checked first, and a beta that fails one needs no power at all.
        ValueError unless n | q - 1.
        """
        if n < 1 or (self.q - 1) % n:
            raise ValueError(f"{self!r} has no element of order {n}")
        if n in self._orders:
            return self._orders[n]
        p, ring = self.p, self._ring
        cofactor, primes = (self.q - 1) // n, _prime_divisors(n)
        known = [self._powers.get(r, ()) for r in primes]
        by_norm = [r for r in primes if (p - 1) % r == 0] if ring else []
        by_power = [r for r in primes if r not in by_norm]
        for beta in range(1 if (p - 1) % n == 0 else p, self.q):
            if any(beta in powers for powers in known):
                continue
            if by_norm:
                norm = ring.resultant(ring.pack(beta))
                r = next((r for r in by_norm if pow(norm, (p - 1) // r, p) == 1), None)
                if r is not None:
                    self._powers.setdefault(r, set()).add(beta)
                    continue
            gamma = self.pow(beta, cofactor)
            for r in by_power:
                if self.pow(gamma, n // r) == 1:
                    self._powers.setdefault(r, set()).add(beta)
                    break
            else:
                return self._orders.setdefault(n, gamma)
        raise RuntimeError(f"no element of order {n} in {self!r}")  # GF(q)* is cyclic

    # -- lookup tables for vectorized codeword enumeration -------------------

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(add, mul) q-by-q lookup tables, uint8 (q <= 256) or uint16; small fields only.

        Both are built in uint16, with no q-by-q intermediate of a wider
        dtype: the product is exp[log a + log b] over ``_logs``, its row
        and column 0 zeroed.
        """
        if self.q > _TABLE_LIMIT:
            raise ValueError(f"lookup tables limited to order {_TABLE_LIMIT}")
        if self._add_table is None:
            p, q = self.p, self.q
            v = np.arange(q, dtype=np.uint16)  # a sum of two digits fits
            if p == 2:
                add = np.bitwise_xor.outer(v, v)
            else:
                add = np.zeros((q, q), dtype=np.uint16)
                for i in range(self.m):
                    digit = v // p ** i % p
                    add += np.add.outer(digit, digit) % p * p ** i
            exp, log, _ = self._logs()
            # exp[i + j] for every pair of logs, read through a Hankel view of exp
            hankel = np.lib.stride_tricks.sliding_window_view(np.array(exp, np.uint16), q)
            mul = hankel[np.ix_(log, log)]
            mul[0, :] = 0
            mul[:, 0] = 0
            dtype = np.uint8 if q <= 256 else np.uint16
            self._add_table, self._mul_table = (add.astype(dtype, copy=False),
                                                mul.astype(dtype, copy=False))
        return self._add_table, self._mul_table

    # -- text form ------------------------------------------------------------

    def modulus_str(self) -> str:
        from cyclic_pairs.poly import format_coeffs
        return format_coeffs(self.modulus)

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __str__(self):
        return f"{self!r}, modulus={self.modulus_str()}"


@lru_cache(maxsize=None)
def _field_cached(p: int, m: int) -> Field:
    return Field(p, m, lex_least_irreducible(p, m))


def make_field(p: int, m: int = 1) -> Field:
    """GF(p^m) with the deterministic (lex-least irreducible) modulus.

    Degrees m above MAX_EXTENSION_DEGREE are refused before any modulus
    search.
    """
    if not isinstance(p, int) or _prime_divisors(p) != [p]:
        raise ValueError(f"characteristic must be prime, got {p!r}")
    if not isinstance(m, int) or not 1 <= m <= MAX_EXTENSION_DEGREE:
        raise ValueError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}, got {m!r}")
    return _field_cached(p, m)


def field_from_order(q: int) -> Field:
    """GF(q) for a prime power q, at most MAX_ORDER."""
    if not 2 <= q <= MAX_ORDER:
        raise ValueError(f"field order must be a prime power in 2..{MAX_ORDER}, got {q}")
    p = min(_prime_divisors(q))
    m = 0
    t = q
    while t % p == 0:
        t //= p
        m += 1
    if t != 1:
        raise ValueError(f"{q} is not a prime power")
    return make_field(p, m)
