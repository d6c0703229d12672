"""Cyclic codes: construction, generator matrix, dual, exact distance.

A code keeps its generator both as a polynomial and as an exponent vector
over the factors of x^n - 1; the dual is a permutation of that vector.

Distance is exact full enumeration of all q^k codewords.  The cap on q^k
is checked first; then the report is looked up, by exponent vector, in
the distance store of ``factor_xn1(n, field)``, shared by every code of
that length and field, and computed on a miss by span tables: the span
of the first generator rows (at most _BLOCK words) is built once by
doubling, and every codeword is a word of that table plus one
combination of the remaining rows, so one numpy op over the table scans
a block of codewords.  Binary codes pack a codeword into uint64 words,
combine by XOR, count weights with np.bitwise_count and walk the
remaining rows in Gray-code order; nonbinary codes build the table with
the field's add/mul lookup tables.  Memory is O(_BLOCK * n) for any q^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    method: str = "full-enumeration"


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
        """The code generated by a divisor the factorization gives; nothing to check."""
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
        store = factor_xn1(self.n, self.field).distances
        if self.vector not in store:
            store[self.vector] = (self._distance_binary() if q == 2
                                  else self._distance_tables())
        return store[self.vector]

    def _scan(self, table: np.ndarray, offsets, weights) -> DistanceReport:
        """Least weight of table word + offset over every table column and offset.

        The first offset is zero, so column 0 (the zero word) is skipped there;
        every other sum is a distinct nonzero codeword.
        """
        best, scanned = self.n + 1, 0
        for i, off in enumerate(offsets):
            w = weights(table, off)[0 if i else 1:]
            scanned += w.size
            best = min(best, int(w.min()))
            if best == 1:
                break
        return DistanceReport(best, scanned)

    def _distance_binary(self) -> DistanceReport:
        # a codeword is ceil(n/64) uint64 words, one column of the span table
        bits = np.array(self.generator_matrix(), dtype=np.uint8)
        packed = np.packbits(bits, axis=1, bitorder="little")
        nwords = -(-self.n // 64)
        packed = np.pad(packed, ((0, 0), (0, 8 * nwords - packed.shape[1])))
        rows = packed.view(np.uint64)[:, :, None]
        low = _low_rows(2, self.k)
        table = np.zeros((nwords, 1), dtype=np.uint64)
        for r in rows[:low]:
            table = np.concatenate([table, table ^ r], axis=1)

        def gray_walk(high):
            cur = np.zeros((nwords, 1), dtype=np.uint64)
            yield cur
            for s in range(1, 1 << len(high)):
                cur = cur ^ high[(s & -s).bit_length() - 1]
                yield cur

        return self._scan(table, gray_walk(rows[low:]),
                          lambda t, off: np.bitwise_count(t ^ off).sum(axis=0))

    def _distance_tables(self) -> DistanceReport:
        n, q = self.n, self.field.q
        add, mul = (t.astype(np.uint8 if q <= 256 else np.uint16)
                    for t in self.field.tables())
        G = np.array(self.generator_matrix(), dtype=np.intp)
        multiples = mul[:, G].transpose(1, 2, 0)     # [i, j, c] = (c * row_i)_j
        low = _low_rows(q, self.k)
        table = np.zeros((n, 1), dtype=add.dtype)
        for m in multiples[:low]:
            table = add[table[:, None, :], m[:, :, None]].reshape(n, -1)

        def combinations(high):
            for parts in product(*(m.T for m in high)):
                off = np.zeros(n, dtype=add.dtype)
                for part in parts:
                    off = add[off, part]
                yield off[:, None]

        # table word t minus offset h is zero exactly where t equals h, and the
        # offsets run over the whole high span, which is closed under negation
        return self._scan(table, combinations(multiples[low:]),
                          lambda t, off: n - (t == off).sum(axis=0))


def _low_rows(q: int, k: int) -> int:
    """The most generator rows (at most k) whose span of q^a words fits a block."""
    a = 0
    while a < k and q ** (a + 1) <= _BLOCK:
        a += 1
    return a

