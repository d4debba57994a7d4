"""Subspace counting: Gaussian binomials and maximal-field-of-definition counts."""

from itertools import product

import pytest

from qcenum.counting import (
    maximal_counts,
    maximal_counts_inclusion_exclusion,
    subspace_total,
)
from qcenum.numth import InvalidParameterError, divisors_of
from reference import gaussian_binomial


def spans_by_brute_force(n, k, p):
    """Count k-dimensional subspaces of F_p^n by enumerating all spans.

    Independent of the package: subspaces are collected as frozensets of
    vectors, spans built by closing k-tuples of vectors under the space
    operations. Only feasible for tiny parameters.
    """
    vectors = list(product(range(p), repeat=n))

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    def scale(c, u):
        return tuple(c * a % p for a in u)

    spaces = set()
    for basis in product(vectors, repeat=k):
        span = {tuple([0] * n)}
        for b in basis:
            new = set()
            for c in range(p):
                cb = scale(c, b)
                for w in span:
                    new.add(add(w, cb))
            span = new
        if len(span) == p**k:
            spaces.add(frozenset(span))
    return len(spaces)


def test_gaussian_binomial_small_against_brute_force():
    assert gaussian_binomial(4, 2, 2) == spans_by_brute_force(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 2) == spans_by_brute_force(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 3) == spans_by_brute_force(3, 2, 3) == 13
    assert gaussian_binomial(2, 1, 5) == spans_by_brute_force(2, 1, 5) == 6


def test_gaussian_binomial_edges():
    for n in range(0, 8):
        assert gaussian_binomial(n, 0, 2) == 1
        assert gaussian_binomial(n, n, 3) == 1
    assert gaussian_binomial(4, 5, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


def test_gaussian_binomial_symmetry():
    for q in (2, 3, 4, 5):
        for n in range(0, 10):
            for k in range(0, n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


def test_gaussian_binomial_recurrence():
    # [n,k]_q = [n-1,k-1]_q + q^k [n-1,k]_q
    for q in (2, 3, 5):
        for n in range(1, 10):
            for k in range(1, n + 1):
                lhs = gaussian_binomial(n, k, q)
                rhs = gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(n - 1, k, q)
                assert lhs == rhs, (n, k, q)


def test_gaussian_binomial_rejects_bad_domain():
    with pytest.raises(InvalidParameterError):
        gaussian_binomial(4, 2, 1)
    with pytest.raises(InvalidParameterError):
        gaussian_binomial(-1, 0, 2)


def test_subspace_total_known_values():
    # nonzero subspaces of F_{q^n} as an F_q-space
    expect = {
        (3, 4): 43, (2, 8): 10, (6, 2): 2824, (4, 2): 66, (4, 3): 211,
        (8, 2): 417198, (3, 8): 147, (2, 32): 34, (3, 32): 2115,
        (4, 4): 528, (2, 16): 18, (2, 9): 11,
    }
    for (n, q), total in expect.items():
        assert subspace_total(n, q) == total, (n, q)


def test_subspace_total_matches_sum_of_binomials():
    cases = [(n, q) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(1, 13)]
    for n, q in cases + [(60, 2), (120, 2)]:
        assert subspace_total(n, q) == sum(
            gaussian_binomial(n, k, q) for k in range(1, n + 1)
        ), (n, q)


def test_subspace_total_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        subspace_total(0, 2)


def test_maximal_counts_known_tables():
    assert maximal_counts(6, 2).counts == {1: 2772, 2: 42, 3: 9, 6: 1}
    assert maximal_counts(4, 3).counts == {1: 200, 2: 10, 4: 1}
    assert maximal_counts(4, 2).counts == {1: 60, 2: 5, 4: 1}
    assert maximal_counts(2, 3).counts == {1: 4, 2: 1}


def test_maximal_counts_partition_identity():
    # every nonzero subspace has exactly one maximal field of scalars
    for q in (2, 3):
        for n in range(1, 25):
            table = maximal_counts(n, q)
            assert set(table.counts) == set(divisors_of(n))
            assert sum(table.counts.values()) == subspace_total(n, q), (n, q)
    for q in (4, 5, 9):
        for n in range(1, 13):
            assert sum(maximal_counts(n, q).counts.values()) == subspace_total(n, q)


def test_maximal_counts_moebius_equals_inclusion_exclusion():
    # 30, 60 and 210 have three and four distinct primes, so the alternating
    # sum runs over subsets of size 3 and 4 as well
    for q in (2, 3, 4, 5):
        for n in [*range(1, 19), 30, 60, 210]:
            a = maximal_counts(n, q)
            b = maximal_counts_inclusion_exclusion(n, q)
            assert a.counts == b.counts, (n, q)


def test_maximal_counts_top_divisor_is_whole_field():
    for q in (2, 3, 5):
        for n in range(1, 13):
            assert maximal_counts(n, q).counts[n] == 1


def test_maximal_counts_prime_degree_split():
    # for prime n the only proper subfield is F_q itself
    for q in (2, 3):
        for n in (2, 3, 5, 7, 11):
            table = maximal_counts(n, q).counts
            assert set(table) == {1, n}
            assert table[n] == 1
            assert table[1] == subspace_total(n, q) - 1
