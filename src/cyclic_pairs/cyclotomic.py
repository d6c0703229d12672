"""q-cyclotomic cosets of Z_{n'} and the coset-count formula."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from cyclic_pairs.fields import _prime_divisors


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"phi needs a positive integer, got {n}")
    out = n
    for r in _prime_divisors(n):
        out -= out // r
    return out


def mult_order(q: int, d: int) -> int:
    """Least t >= 1 with q^t = 1 (mod d); requires gcd(q, d) = 1."""
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d}")
    if gcd(q, d) != 1:
        raise ValueError(f"gcd({q}, {d}) != 1, multiplicative order undefined")
    if d == 1:
        return 1
    t, acc = 1, q % d
    while acc != 1:
        acc = (acc * q) % d
        t += 1
        if t > d:
            raise RuntimeError("order loop exceeded modulus, non-coprime input?")
    return t


def additive_order(a: int, n_prime: int) -> int:
    """Least t >= 1 with t*a = 0 in Z_{n'}; the order of 0 is 1."""
    return n_prime // gcd(a, n_prime) if a else 1


def coset_of(n_prime: int, q: int, a: int) -> tuple[int, ...]:
    """The q-cyclotomic coset of Z_{n'} containing a, sorted."""
    if gcd(n_prime, q) != 1:
        raise ValueError(f"gcd({n_prime}, {q}) != 1")
    if not 0 <= a < n_prime:
        raise ValueError(f"residue {a} out of range for Z_{n_prime}")
    seen = {a}
    cur = (a * q) % n_prime
    while cur != a:
        seen.add(cur)
        cur = (cur * q) % n_prime
    return tuple(sorted(seen))


@dataclass(frozen=True)
class CosetPartition:
    n_prime: int
    q: int
    cosets: tuple[tuple[int, ...], ...]      # sorted by representative
    by_order: MappingProxyType[int, tuple[tuple[int, ...], ...]]  # read-only, ascending d

    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.cosets)


@lru_cache(maxsize=1)
def coset_partition(n_prime: int, q: int) -> CosetPartition:
    """The q-cyclotomic cosets of Z_{n'}, read-only.  The last one is kept:
    ``factor_xn1`` asks for it, then its trace table for the same (n', q)."""
    if gcd(n_prime, q) != 1:
        raise ValueError(f"gcd({n_prime}, {q}) != 1")
    cosets = []
    seen = [False] * n_prime
    for a in range(n_prime):
        if seen[a]:
            continue
        c = coset_of(n_prime, q, a)
        for x in c:
            seen[x] = True
        cosets.append(c)
    by_order: dict[int, list] = {}
    for c in cosets:
        by_order.setdefault(additive_order(c[0], n_prime), []).append(c)
    return CosetPartition(n_prime, q,
                          tuple(cosets),
                          MappingProxyType({d: tuple(v) for d, v in sorted(by_order.items())}))


def coset_count(n_prime: int, q: int) -> int:
    """Number of q-cyclotomic cosets: sum over d | n' of phi(d)/ord_d(q)."""
    if gcd(n_prime, q) != 1:
        raise ValueError(f"gcd({n_prime}, {q}) != 1")
    total = 0
    for d in range(1, n_prime + 1):
        if n_prime % d == 0:
            total += euler_phi(d) // mult_order(q, d)
    return total
