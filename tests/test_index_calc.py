"""Shift-index arithmetic: subfield steps, contributions, achievable index sets."""

import math
from itertools import product

import pytest

from qcenum.index_calc import (
    contribution_matrix,
    index_contribution,
    index_set,
    subfield_index,
)
from qcenum.numth import InvalidParameterError, divisors_of, validate_spec


def index_set_combinations(spec) -> set[int]:
    """Debug form of index_set: literal lcms over all nonempty selections.

    Picks at most one (divisor, contribution) entry per zero column, at least
    one column overall, and collects the lcms with N discarded.  Used only to
    cross-check the fold.
    """
    matrix = contribution_matrix(spec)
    columns = [
        [matrix.rows[d][j] for d in matrix.divisors] for j in range(spec.s)
    ]
    values = set()
    for picks in product(*[[None] + col for col in columns]):
        chosen = [x for x in picks if x is not None]
        if not chosen:
            continue
        values.add(math.lcm(*chosen))
    values.discard(spec.N)
    return values


def test_subfield_index_known_values():
    assert subfield_index(2, 4, 2) == 5
    assert subfield_index(2, 4, 1) == 15
    assert subfield_index(2, 6, 3) == 9
    assert subfield_index(2, 6, 2) == 21
    assert subfield_index(2, 6, 1) == 63
    assert subfield_index(3, 4, 2) == 10
    assert subfield_index(3, 4, 1) == 40
    for q, n in [(2, 6), (3, 4), (5, 4)]:
        assert subfield_index(q, n, n) == 1


def test_subfield_index_rejects_non_divisor():
    with pytest.raises(InvalidParameterError):
        subfield_index(2, 6, 4)
    with pytest.raises(InvalidParameterError):
        subfield_index(2, 6, 0)


def test_index_contribution_values():
    assert index_contribution(1, 15) == 15
    assert index_contribution(3, 21) == 7
    assert index_contribution(5, 15) == 3
    assert index_contribution(6, 4) == 2
    # least nu with zero * nu a multiple of step, by brute force
    for zero in range(1, 40):
        for step in range(1, 40):
            nu = 1
            while (zero * nu) % step:
                nu += 1
            assert index_contribution(zero, step) == nu


def test_contribution_matrix_columns():
    # columns run over ascending divisors d of n
    spec = validate_spec(2, 6, [1, 3])
    m = contribution_matrix(spec)
    assert m.divisors == (1, 2, 3, 6)
    assert m.column(1) == (63, 21, 9, 1)
    assert m.column(3) == (21, 7, 3, 1)

    spec = validate_spec(2, 8, [1, 3])
    assert contribution_matrix(spec).column(3) == (85, 85, 17, 1)

    spec = validate_spec(2, 10, [1, 3])
    assert contribution_matrix(spec).column(3) == (341, 341, 11, 1)

    spec = validate_spec(3, 6, [1, 2])
    assert contribution_matrix(spec).column(2) == (182, 91, 14, 1)


def test_contribution_matrix_divisibility_monotone():
    # a larger subfield forces a shift period dividing the smaller one's
    for q, n, zeros in [(2, 6, [1, 3, 5]), (2, 12, [1, 3]), (3, 6, [1, 2]), (5, 4, [1, 2])]:
        spec = validate_spec(q, n, zeros)
        m = contribution_matrix(spec)
        for d in m.divisors:
            for e in m.divisors:
                if e % d == 0:
                    for j in range(spec.s):
                        assert m.rows[d][j] % m.rows[e][j] == 0, (d, e, j)


def test_contribution_coset_invariance_exhaustive():
    # contribution depends on a zero only through its cyclotomic coset
    cases = []
    for q in (2, 3, 4, 5):
        n = 2
        while q**n <= 2**12:
            cases.append((q, n))
            n += 1
    assert cases
    for q, n in cases:
        N = q**n - 1
        for d in divisors_of(n):
            step = subfield_index(q, n, d)
            for i in range(1, N):
                assert index_contribution(i * q % N, step) == index_contribution(i, step), (
                    q, n, d, i,
                )


def test_index_set_known():
    assert tuple(index_set(validate_spec(2, 4, [1]))) == (1, 5)
    assert tuple(index_set(validate_spec(2, 6, [1, 3]))) == (1, 3, 7, 9, 21)
    assert tuple(index_set(validate_spec(3, 4, [1, 2]))) == (1, 5, 10, 20, 40)


def test_index_set_excluded_n_flag():
    # q=2 simplex reaches lcm = N via subspaces defined only over F_2
    assert index_set(validate_spec(2, 4, [1])).excluded_n
    # q>2 never reaches N: every contribution divides N/(q-1) < N
    assert not index_set(validate_spec(3, 4, [1, 2])).excluded_n
    assert not index_set(validate_spec(5, 2, [1])).excluded_n


def test_index_set_contains_one_and_divides_N():
    for q, n, zeros in [
        (2, 4, [1]), (2, 6, [1, 3]), (2, 9, [1, 3]), (3, 4, [1, 2]),
        (3, 6, [1, 2, 4]), (4, 3, [1]), (5, 4, [1, 2]), (7, 2, [1, 2]),
    ]:
        spec = validate_spec(q, n, zeros)
        iset = index_set(spec)
        assert 1 in iset
        assert spec.N not in iset
        for x in iset:
            assert spec.N % x == 0, (q, n, zeros, x)
        assert list(iset) == sorted(set(iset))


def test_index_set_fold_equals_literal_combinations():
    for q, n, zeros in [
        (2, 4, [1]), (2, 6, [1, 3]), (2, 6, [1, 3, 5]), (2, 12, [1, 3]),
        (3, 4, [1, 2]), (3, 6, [1, 2, 4]), (5, 4, [1, 2]), (4, 6, [1, 2]),
    ]:
        spec = validate_spec(q, n, zeros)
        assert set(index_set(spec).values) == index_set_combinations(spec), (q, n, zeros)


def test_index_set_divisor_gaps_exist():
    # not every divisor of N is achievable: length 15 has no index-3 subcode
    iset = index_set(validate_spec(2, 4, [1]))
    assert 3 not in iset
    assert set(iset) == {1, 5}
