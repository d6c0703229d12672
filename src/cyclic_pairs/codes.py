"""Cyclic codes: construction, generator matrix, dual, exact distance.

A code keeps its generator both as a polynomial and as an exponent vector
over the factors of x^n - 1; the dual is a permutation of that vector.

Distance is exact.  The cap on q^k is checked first; then the report is
looked up, by exponent vector, in the distance store of
``factor_xn1(n, field)``, shared by every code of that length and field.
A miss answers once and stores the report under every vector of the
multiplier orbit: x -> x^a, gcd(a, n) = 1, permutes coordinates, so d is
the same for every member.  Where the BCH bound and the least generator
weight, both over the orbit (``Factorization.bch_bound`` and
``weight_bound``), meet, d is their value and no word is scanned (method
"bounds").  The BCH bound comes first: the weight is at most deg g + 1 =
n - k + 1 (Singleton), so a BCH bound of n - k + 1 settles d with no
generator built, as for every Reed-Solomon code.  Otherwise the code is
walked over all q^k codewords (method "full-enumeration"), with q^k - 1
words scanned for every member (only g = 1 would stop early, at d = 1,
and the bounds settle it).

The walk is one for every field.  The span of the first generator rows
(at most _BLOCK words) is built once as a table, and every codeword is a
word of that table plus one offset in the span of the remaining rows, so
one numpy op over the table scans a block of codewords.  The offsets
run in modular p-ary Gray order (Knuth, TAOCP 4A, 7.2.1.1) over the
GF(p)-basis {p^j * row : j < m} of that span: each offset is the one
before plus one basis vector.  Only the encoding of a word depends on
the field: a binary word is ceil(n/64) uint64 words, added by XOR and
weighed with np.bitwise_count (one word, summed over nothing, for
n <= 64); any other word is n field elements, added through
``Field.tables()``.  Memory is O(_BLOCK * n) for any q^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cyclic_pairs.factorization import Factorization, factor_xn1
from cyclic_pairs.fields import Field
from cyclic_pairs.poly import Polynomial

DEFAULT_CAP = 1 << 24
_BLOCK = 1 << 14


class EnumerationCapExceeded(RuntimeError):
    """q^k exceeds the codeword cap; use a smaller instance or raise it."""


@dataclass(frozen=True)
class DistanceReport:
    d: int | None                # None for the zero code (no nonzero codewords)
    codewords_scanned: int
    method: str = "full-enumeration"  # or "bounds": BCH bound = generator weight


class CyclicCode:
    """A cyclic code of length n over a field, given by its monic generator
    and by its exponent vector over the factors of ``factor_xn1(n, field)``."""

    __slots__ = ("n", "field", "g", "k", "vector")

    def __init__(self, n: int, field: Field, g: Polynomial):
        if g.is_zero():
            raise ValueError("the zero polynomial generates no cyclic code")
        g = g.monic()
        self._set(n, field, g, factor_xn1(n, field).vector(g))

    @classmethod
    def _from_vector(cls, fac: Factorization, vector) -> "CyclicCode":
        """The code generated by a divisor the factorization gives, its generator
        read through the factorization's store; nothing to check."""
        vector, code = tuple(vector), object.__new__(cls)
        code._set(fac.n, fac.field, fac.divisor(vector), vector)
        return code

    def _set(self, n: int, field: Field, g: Polynomial, vector: tuple[int, ...]) -> None:
        self.n = n
        self.field = field
        self.g = g
        self.k = n - g.degree
        self.vector = vector

    def __eq__(self, other):
        return (isinstance(other, CyclicCode) and other.n == self.n
                and other.field is self.field and other.g == self.g)

    def __hash__(self):
        return hash((self.n, id(self.field), self.g.coeffs))

    def __repr__(self):
        return f"[{self.n},{self.k}]_{self.field.q} g={self.g}"

    def generator_matrix(self) -> list[tuple[int, ...]]:
        """k rows; row i holds the coefficients of x^i * g(x)."""
        gc = self.g.coeffs
        rows = []
        for i in range(self.k):
            row = [0] * self.n
            row[i:i + len(gc)] = gc
            rows.append(tuple(row))
        return rows

    def dual(self) -> "CyclicCode":
        """Generator = monic reciprocal of the check polynomial (x^n-1)/g."""
        fac = factor_xn1(self.n, self.field)
        return CyclicCode._from_vector(fac, fac.dual(self.vector))

    def min_distance(self, cap: int = DEFAULT_CAP) -> DistanceReport:
        """Exact distance; q^k above the cap raises whatever the store holds."""
        q, k = self.field.q, self.k
        if k == 0:
            return DistanceReport(None, 0)
        if q ** k > cap:
            raise EnumerationCapExceeded(
                f"{q}^{k} = {q ** k} codewords exceed the cap {cap}; "
                "use a smaller instance or raise the cap")
        fac = factor_xn1(self.n, self.field)
        report = fac.distances.get(self.vector)
        if report is None:
            # x -> x^a preserves weights: one answer serves the vector's whole orbit;
            # bch <= d <= weight <= n - k + 1, so a BCH bound at Singleton's settles d
            d = fac.bch_bound(self.vector)
            report = (DistanceReport(d, 0, "bounds")
                      if d == self.n - k + 1 or d == fac.weight_bound(self.vector)
                      else self._enumerate())
            fac.distances.update(dict.fromkeys(fac.orbit(self.vector), report))
        return report

    def _enumerate(self) -> DistanceReport:
        """Least weight of table word + offset over every table column and offset.

        The first offset is zero, so column 0 (the zero word) is skipped there;
        every other sum is a distinct nonzero codeword.
        """
        n, field = self.n, self.field
        G = np.array(self.generator_matrix())
        if field.q == 2:
            packed = np.packbits(np.pad(G, ((0, 0), (0, -n % 64))), axis=1, bitorder="little")
            multiples = packed.view(np.uint64)[:, :, None] * np.arange(2, dtype=np.uint64)
            add = np.bitwise_xor
            if n <= 64:  # one uint64 word per codeword
                weight = lambda t, off: np.bitwise_count(t[0] ^ off[0])
            else:
                weight = lambda t, off: np.bitwise_count(t ^ off).sum(axis=0)
        else:
            add_table, mul = field.tables()
            multiples = mul[:, G].transpose(1, 2, 0)
            add = lambda a, b: add_table[a, b]
            # table word t minus offset h is zero exactly where t equals h, and
            # the offsets run over the whole high span, closed under negation
            weight = lambda t, off: n - (t == off).sum(axis=0)
        # multiples[i, j, c] = (c * row_i)_j; j runs over the words of a codeword
        low = _low_rows(field.q, self.k)
        table = np.zeros((multiples.shape[1], 1), dtype=multiples.dtype)
        for m in multiples[:low]:
            table = add(table[:, None, :], m[:, :, None]).reshape(len(table), -1)
        basis = [m[:, field.p ** j, None] for m in multiples[low:] for j in range(field.m)]
        off = table[:, :1]
        best, scanned = n + 1, 0
        for s in range(field.p ** len(basis)):
            if s:
                off = add(off, basis[_trailing_zero_digits(s, field.p)])
            w = weight(table, off)[0 if s else 1:]
            scanned += w.size
            best = min(best, int(w.min()))
            if best == 1:
                break
        return DistanceReport(best, scanned)


def _low_rows(q: int, k: int) -> int:
    """The most generator rows (at most k) whose span of q^a words fits a block."""
    a = 0
    while a < k and q ** (a + 1) <= _BLOCK:
        a += 1
    return a


def _trailing_zero_digits(s: int, p: int) -> int:
    """v_p(s), the number of trailing zero base-p digits of s > 0: the basis
    vector that step s of the modular p-ary Gray walk adds."""
    v = 0
    while s % p == 0:
        s, v = s // p, v + 1
    return v
