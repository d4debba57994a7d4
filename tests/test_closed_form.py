"""Family formulas: literal values, normalization, cross-checks, rejections."""

import pytest

from qcenum.closed_form import (
    FAMILIES,
    ClosedFormTable,
    bch2_binary_primepower,
    bch2_binary_twoprimes,
    bch3_pary_twoprimes,
    cross_check,
    family_table,
    simplex_counts,
)
from qcenum.counting import maximal_counts, subspace_total
from qcenum.enumeration import multiplicity_table
from qcenum.index_calc import index_set, subfield_index
from qcenum.numth import InvalidParameterError, validate_spec

SIMPLEX_N = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20]


def test_simplex_structure():
    # one entry per divisor of n, keyed by subfield step, counting maximal
    # subspaces; binary tables drop the prime-field bucket (full length)
    t = simplex_counts(2, 6)
    assert t.literal == {1: 1, 9: 9, 21: 42}
    assert t.normalized() == {1: 0, 9: 9, 21: 42}
    t = simplex_counts(3, 4)
    assert t.literal == {1: 1, 10: 10, 40: 200}
    counts = maximal_counts(4, 3).counts
    assert t.literal == {subfield_index(3, 4, d): counts[d] for d in counts}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", SIMPLEX_N)
def test_simplex_cross_check(q, n):
    report = cross_check(simplex_counts(q, n))
    assert report.ok, (q, n, report.mismatches)


def test_bch2_primepower_hand_values():
    assert bch2_binary_primepower(2, 3).literal == {1: 3, 5: 465}
    assert bch2_binary_primepower(2, 4).literal == {1: 3, 17: 357, 85: 220697910}
    assert bch2_binary_primepower(3, 3).literal == {1: 3, 73: 21900}
    # prime n: only cyclic proper subcodes remain in the table
    assert bch2_binary_primepower(3, 2).literal == {1: 3}
    assert bch2_binary_primepower(5, 2).literal == {1: 3}


@pytest.mark.parametrize("u, a", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_bch2_primepower_cross_check(u, a):
    report = cross_check(bch2_binary_primepower(u, a))
    assert report.ok, (u, a, report.mismatches)


def test_bch2_twoprimes_worked_constants():
    # the n=6 table is stated outright: 18, 84, 99, 124194
    t = bch2_binary_twoprimes(2, 3)
    assert t.literal == {1: 3, 3: 18, 7: 84, 9: 99, 21: 124194}


def test_bch2_twoprimes_regimes():
    # u=2, v>3: four indices 1, L3/3, L3, L2
    t = bch2_binary_twoprimes(2, 5)
    Y = subspace_total(2, 2**5)
    assert t.literal[11] == 2 * Y - 2 == 66
    assert t.literal[33] == Y * Y - 1 == 1155
    assert set(t.literal) == {1, 11, 33, 341}
    # both odd: three indices 1, L3, L2
    t = bch2_binary_twoprimes(3, 5)
    Y = subspace_total(3, 2**5)
    assert Y == 2115
    assert t.literal[1057] == 2 * Y + Y * Y - 3 == 4477452
    assert set(t.literal) == {1, 1057, 4681}


@pytest.mark.parametrize("u, v", [(2, 3), (2, 5), (3, 5)])
def test_bch2_twoprimes_cross_check(u, v):
    report = cross_check(bch2_binary_twoprimes(u, v))
    assert report.ok, (u, v, report.mismatches)


def test_bch3_pary_hand_values():
    t = bch3_pary_twoprimes(3, 2, 3)
    assert t.literal == {
        1: 3, 14: 56, 28: 840, 91: 33852, 182: 10386376, 364: 3196762296,
    }
    t = bch3_pary_twoprimes(3, 2, 5)
    assert t.literal[122] == 488
    assert t.literal[244] == 60024
    assert t.literal[7381] == 1501232661500


@pytest.mark.parametrize("p, u, v", [(3, 2, 3), (3, 2, 5), (5, 2, 3)])
def test_bch3_pary_cross_check(p, u, v):
    report = cross_check(bch3_pary_twoprimes(p, u, v))
    assert report.ok, (p, u, v, report.mismatches)


def test_argument_order_normalized():
    assert bch2_binary_twoprimes(3, 2).literal == bch2_binary_twoprimes(2, 3).literal
    assert bch3_pary_twoprimes(3, 3, 2).literal == bch3_pary_twoprimes(3, 2, 3).literal


def test_normalized_subtracts_code_itself():
    for table in [
        simplex_counts(2, 6),
        bch2_binary_twoprimes(2, 3),
        bch3_pary_twoprimes(3, 2, 3),
    ]:
        normalized = table.normalized()
        assert normalized[1] == table.literal[1] - 1
        generic = multiplicity_table(table.spec)
        assert normalized[1] == generic.entries[1]
        assert list(normalized) == sorted(normalized)


def test_family_index_sets_match_generic():
    for table in [
        simplex_counts(2, 12),
        simplex_counts(3, 18),
        bch2_binary_primepower(2, 4),
        bch2_binary_twoprimes(2, 5),
        bch3_pary_twoprimes(3, 2, 5),
    ]:
        assert set(table.normalized()) == set(index_set(table.spec).values)


def test_family_rejections():
    with pytest.raises(InvalidParameterError):
        bch2_binary_primepower(2, 2)
    with pytest.raises(InvalidParameterError):
        bch2_binary_primepower(4, 3)
    with pytest.raises(InvalidParameterError):
        bch2_binary_primepower(3, 1)
    with pytest.raises(InvalidParameterError):
        bch2_binary_twoprimes(2, 2)
    with pytest.raises(InvalidParameterError):
        bch2_binary_twoprimes(3, 3)
    with pytest.raises(InvalidParameterError):
        bch2_binary_twoprimes(4, 3)
    with pytest.raises(InvalidParameterError):
        bch3_pary_twoprimes(2, 2, 3)
    with pytest.raises(InvalidParameterError):
        bch3_pary_twoprimes(9, 2, 3)
    with pytest.raises(InvalidParameterError):
        bch3_pary_twoprimes(3, 5, 5)


def test_family_table_dispatch():
    assert family_table("simplex", q=2, n=6).literal == simplex_counts(2, 6).literal
    t = family_table("bch2-binary-twoprimes", u=2, v=3)
    assert t.literal[21] == 124194
    with pytest.raises(InvalidParameterError):
        family_table("simplex", q=2)  # missing n
    with pytest.raises(InvalidParameterError):
        family_table("simplex", q=2, n=6, u=2)  # stray parameter
    with pytest.raises(InvalidParameterError):
        family_table("no-such-family", q=2, n=6)
    for name in FAMILIES:
        assert isinstance(name, str)


def test_cross_check_flags_corruption():
    good = bch2_binary_twoprimes(2, 3)
    bad_literal = dict(good.literal)
    bad_literal[9] += 1
    bad = ClosedFormTable(
        family=good.family, params=good.params, spec=good.spec, literal=bad_literal
    )
    report = cross_check(bad)
    assert not report.ok
    assert [row.index for row in report.mismatches] == [9]
    assert report.mismatches[0].closed_count == 100
    assert report.mismatches[0].generic_count == 99


def test_spec_embedded_in_table():
    t = bch2_binary_primepower(2, 4)
    assert t.spec == validate_spec(2, 8, [1, 3])
    t = bch3_pary_twoprimes(5, 2, 3)
    assert t.spec == validate_spec(5, 6, [1, 2])
