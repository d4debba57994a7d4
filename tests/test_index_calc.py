"""Shift-index arithmetic: subfield steps, contributions, achievable index sets."""

import math
import random
from itertools import product

import pytest

import test_golden_tables as golden
from qcenum import index_calc
from qcenum.counting import maximal_counts
from qcenum.index_calc import (
    contribution_matrix,
    index_contribution,
    index_set,
    lcm_fold,
    subfield_index,
)
from qcenum.numth import InvalidParameterError, divisors_of, validate_spec
from reference import pairwise_lcm_fold, shift_fixed_tuples


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


def fold_specs() -> list:
    """60 seeded valid specs on the sweep's (n, q) grid with 1-8 zeros,
    then two large rows whose folds run to thousands of digits."""
    rng = random.Random(2024)
    specs = []
    while len(specs) < 60:
        n = rng.choice((24, 36, 48, 60, 120))
        q = rng.choice((2, 3, 4, 5, 9))
        try:
            specs.append(validate_spec(q, n, rng.sample(range(1, 64), rng.randint(1, 8))))
        except InvalidParameterError:
            continue
    return specs + [validate_spec(2, 360, [1, 3, 5, 7]), validate_spec(2, 240, [1, 3, 5, 7, 9, 11])]


def test_lcm_fold_equals_pairwise_fold():
    for spec in fold_specs():
        matrix = contribution_matrix(spec)
        weights = maximal_counts(spec.n, spec.q).counts
        fold = lcm_fold(matrix, weights)
        assert fold == pairwise_lcm_fold(matrix, weights), (spec.q, spec.n, spec.zeros)
        iset = index_set(spec)
        assert set(iset.values) == set(fold) - {spec.N}, (spec.q, spec.n, spec.zeros)
        assert iset.excluded_n == (spec.N in fold), (spec.q, spec.n, spec.zeros)


# the golden grid, prime-power q, and bench/workloads.py's EngineCold.GRID
SHIFT_COUNT_SPECS = (
    [(2, n, zeros) for n, zeros in golden.BINARY_ROWS]
    + [(3, n, zeros) for n, zeros in golden.TERNARY_ROWS]
    + [(q, n, (1, 2) if q == 9 else (1, 3)) for q in (4, 8, 9, 16) for n in range(2, 7)]
    + [
        (2, 120, (1, 3, 5)),
        (2, 240, (1, 3)),
        (2, 360, (1, 3, 5, 7)),
        (2, 480, (1, 3)),
        (4, 60, (1, 3)),
        (8, 40, (1, 3)),
        (9, 40, (1, 2)),
        (3, 100, (1, 2, 4)),
    ]
)


def shift_count_failures(q, n, zeros) -> list[int]:
    """The D | N at which the fold's counts at the keys dividing D do not add
    up to the subspace tuples the D-fold shift fixes.  D runs over every
    divisor of N when N has at most 40 bits, so factoring it is quick, and
    otherwise over the lcm-closure, as the pairwise fold finds it, and N."""
    spec = validate_spec(q, n, list(zeros))
    matrix = contribution_matrix(spec)
    weights = maximal_counts(spec.n, spec.q).counts
    fold = lcm_fold(matrix, weights)
    if spec.N.bit_length() <= 40:
        points = divisors_of(spec.N)
    else:
        points = sorted({*pairwise_lcm_fold(matrix, weights), spec.N})
    return [
        D
        for D in points
        if sum(c for E, c in fold.items() if D % E == 0) != shift_fixed_tuples(spec, D)
    ]


@pytest.mark.parametrize(
    "q, n, zeros",
    SHIFT_COUNT_SPECS,
    ids=[f"q{q}-n{n}-z{'_'.join(map(str, zs))}" for q, n, zs in SHIFT_COUNT_SPECS],
)
def test_fold_counts_the_tuples_each_shift_fixes(q, n, zeros):
    assert shift_count_failures(q, n, zeros) == []


def test_shift_count_check_catches_a_missing_closure_element(monkeypatch):
    closure = index_calc._lcm_closure

    def short_closure(columns):
        values = closure(columns)
        del values[len(values) // 2]
        return values

    monkeypatch.setattr(index_calc, "_lcm_closure", short_closure)
    assert shift_count_failures(2, 12, (1, 3)) != []
    assert shift_count_failures(2, 120, (1, 3, 5)) != []
