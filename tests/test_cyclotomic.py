import dataclasses
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_pairs.cyclotomic import (additive_order, coset_count, coset_of,
                                     coset_partition, euler_phi, mult_order)


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(97) == 96
    assert euler_phi(360) == 96


def test_mult_order_examples():
    assert mult_order(2, 7) == 3
    assert mult_order(2, 15) == 4
    assert mult_order(3, 8) == 2
    assert mult_order(2, 1) == 1
    with pytest.raises(ValueError):
        mult_order(2, 4)  # gcd != 1


def test_coset_examples_mod_7():
    assert coset_of(7, 2, 0) == (0,)
    assert coset_of(7, 2, 1) == (1, 2, 4)
    assert coset_of(7, 2, 3) == (3, 5, 6)
    part = coset_partition(7, 2)
    assert part.cosets == ((0,), (1, 2, 4), (3, 5, 6))
    assert part.representatives() == (0, 1, 3)


def test_coset_examples_mod_15():
    part = coset_partition(15, 2)
    assert part.cosets == ((0,), (1, 2, 4, 8), (3, 6, 9, 12),
                           (5, 10), (7, 11, 13, 14))
    assert coset_count(15, 2) == 5


def test_cosets_mod_8_over_gf3():
    part = coset_partition(8, 3)
    assert part.cosets == ((0,), (1, 3), (2, 6), (4,), (5, 7))
    assert coset_count(8, 3) == 5


def test_by_order_grouping():
    part = coset_partition(15, 2)
    assert set(part.by_order) == {1, 3, 5, 15}
    assert part.by_order[1] == ((0,),)
    assert part.by_order[3] == ((5, 10),)
    assert part.by_order[5] == ((3, 6, 9, 12),)
    assert set(part.by_order[15]) == {(1, 2, 4, 8), (7, 11, 13, 14)}


def test_a_kept_partition_is_shared_and_read_only():
    # the kept partition serves every caller asking for its (n', q), so none may change it
    part = coset_partition(15, 2)
    assert coset_partition(15, 2) is part
    with pytest.raises(TypeError):
        part.by_order[1] = ((0, 1),)
    with pytest.raises(TypeError):
        del part.by_order[15]
    with pytest.raises(dataclasses.FrozenInstanceError):
        part.by_order = {}
    assert part.by_order[1] == ((0,),) and set(part.by_order) == {1, 3, 5, 15}


def test_partition_rejects_shared_factor():
    with pytest.raises(ValueError):
        coset_partition(6, 2)
    with pytest.raises(ValueError):
        coset_count(9, 3)


@settings(max_examples=120)
@given(st.integers(1, 80), st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
def test_partition_properties(n_prime, q):
    if gcd(n_prime, q) != 1:
        return
    part = coset_partition(n_prime, q)
    # exact cover of Z_{n'}
    flat = sorted(x for c in part.cosets for x in c)
    assert flat == list(range(n_prime))
    for c in part.cosets:
        # closed under multiplication by q, and |c| = ord_d(q) for d = ord(c)
        assert set((x * q) % n_prime for x in c) == set(c)
        d = additive_order(c[0], n_prime)
        assert len(c) == mult_order(q, d)
        assert all(additive_order(x, n_prime) == d for x in c)
    # counting formula agrees with the explicit partition
    assert coset_count(n_prime, q) == len(part.cosets)


@settings(max_examples=80)
@given(st.integers(2, 60), st.integers(2, 9))
def test_mult_order_is_an_order(q, d):
    if gcd(q, d) != 1:
        return
    e = mult_order(q, d)
    assert pow(q, e, d) == 1
    assert all(pow(q, i, d) != 1 for i in range(1, e))
