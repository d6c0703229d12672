"""Cyclic codes: construction, generator matrix, dual, exact distance.

Distance is exact full enumeration of all q^k codewords, guarded by a
codeword-count cap, by span tables: the span of the first generator rows
(at most _BLOCK words) is built once by doubling, and every codeword is a
word of that table plus one combination of the remaining rows, so one
numpy op over the table scans a block of codewords.  Binary codes pack a
codeword into uint64 words, combine by XOR, count weights with
np.bitwise_count and walk the remaining rows in Gray-code order; nonbinary
codes build the table with the field's add/mul lookup tables.  Memory is
O(_BLOCK * n) whatever q^k is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from cyclic_pairs.fields import Field, FieldMismatchError
from cyclic_pairs.poly import Polynomial, xn_minus_1

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
    """A cyclic code of length n over a field, given by its monic generator."""

    __slots__ = ("n", "field", "g", "k", "_distance")

    def __init__(self, n: int, field: Field, g: Polynomial):
        if g.field is not field:
            raise FieldMismatchError("generator polynomial is over a different field")
        if g.is_zero():
            raise ValueError("the zero polynomial generates no cyclic code")
        g = g.monic()
        rem = xn_minus_1(field, n) % g
        if not rem.is_zero():
            raise ValueError(
                f"{g} does not divide x^{n} - 1 over {field!r} (remainder {rem})")
        self.n = n
        self.field = field
        self.g = g
        self.k = n - g.degree
        self._distance = None

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
        h = xn_minus_1(self.field, self.n) // self.g
        return CyclicCode(self.n, self.field, h.reciprocal().monic())

    def contains(self, word: Polynomial) -> bool:
        """Membership: the word's polynomial is divisible by the generator."""
        return self.g.divides(word % xn_minus_1(self.field, self.n)
                              if word.degree is not None and word.degree >= self.n
                              else word)

    def min_distance(self, cap: int = DEFAULT_CAP) -> DistanceReport:
        # an exact distance, once computed, is valid whatever the cap
        if self._distance is None:
            self._distance = self._compute_distance(cap)
        return self._distance

    def _compute_distance(self, cap: int) -> DistanceReport:
        q, k, n = self.field.q, self.k, self.n
        if k == 0:
            return DistanceReport(None, 0)
        total = q ** k
        if total > cap:
            raise EnumerationCapExceeded(
                f"{q}^{k} = {total} codewords exceed the cap {cap}; "
                "use a smaller instance or raise the cap")
        if q == 2:
            return self._distance_binary()
        return self._distance_tables()

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


def make_code(n: int, field: Field, g: Polynomial) -> CyclicCode:
    return CyclicCode(n, field, g)
