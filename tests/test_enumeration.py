"""Multiplicity tables: golden values, accounting identities, option behavior."""

import pytest

from qcenum.counting import subspace_total
from qcenum.enumeration import (
    DEFAULT_OPTIONS,
    EnumerationOptions,
    multiplicity_table,
    tabulate,
)
from qcenum.index_calc import index_set
from qcenum.numth import InvalidParameterError, validate_spec
from reference import grand_total


def test_golden_double_bch_length_63():
    spec = validate_spec(2, 6, [1, 3])
    table = multiplicity_table(spec)
    assert table.entries == {1: 2, 3: 18, 7: 84, 9: 99, 21: 124194}
    assert table.index_n_count == 7856226


def test_golden_simplex_length_15():
    spec = validate_spec(2, 4, [1])
    table = multiplicity_table(spec)
    assert table.entries == {1: 0, 5: 5}
    assert table.index_n_count == 60


def test_golden_ternary_length_80():
    spec = validate_spec(3, 4, [1, 2])
    table = multiplicity_table(spec)
    assert table.entries == {1: 2, 5: 20, 10: 120, 20: 2400, 40: 42400}
    assert table.index_n_count == 0


CANDIDATE_ZEROS = {
    2: [[1], [1, 3], [1, 3, 5]],
    3: [[1], [1, 2], [1, 2, 4]],
    4: [[1], [1, 2], [1, 2, 3]],
    8: [[1], [1, 2], [1, 2, 3]],
    9: [[1], [1, 2], [1, 2, 4]],
}


def sweep_specs(max_n=12):
    out = []
    for q, zero_lists in CANDIDATE_ZEROS.items():
        for n in range(2, max_n + 1):
            for zeros in zero_lists:
                try:
                    out.append(validate_spec(q, n, zeros))
                except InvalidParameterError:
                    continue
    return out


def test_accounting_identity():
    # every subspace tuple is counted exactly once:
    # table + full-length bucket + the two excluded trivial codes
    for spec in sweep_specs():
        table = multiplicity_table(spec)
        total = sum(table.entries.values()) + table.index_n_count + 2
        assert total == grand_total(spec), spec
        assert grand_total(spec) == (subspace_total(spec.n, spec.q) + 1) ** spec.s


def test_index_one_count_is_two_power_s_minus_two():
    # proper nonzero cyclic subcodes come from zero-or-full choices per zero
    for spec in sweep_specs():
        table = multiplicity_table(spec)
        assert table.entries[1] == 2**spec.s - 2, spec


def test_all_counts_positive_except_index_one():
    for spec in sweep_specs():
        table = multiplicity_table(spec)
        for k, v in table.entries.items():
            if k != 1:
                assert v > 0, (spec, k)
            assert spec.N % k == 0


def test_support_matches_index_set():
    for spec in sweep_specs():
        table = multiplicity_table(spec)
        assert set(table.entries) == set(index_set(spec).values), spec


def test_support_matches_with_exclusions_off():
    opts = EnumerationOptions(exclude_zero_code=False, exclude_full_code=False)
    for spec in sweep_specs(max_n=8):
        table = multiplicity_table(spec, opts)
        assert set(table.entries) == set(index_set(spec).values), spec
        assert table.entries[1] == 2**spec.s


def test_q_greater_than_two_has_no_full_length_bucket():
    for spec in sweep_specs():
        if spec.q > 2:
            assert multiplicity_table(spec).index_n_count == 0, spec


def test_report_index_n_off_keeps_bucket_inline():
    spec = validate_spec(2, 4, [1])
    opts = EnumerationOptions(report_index_n=False)
    table = multiplicity_table(spec, opts)
    assert table.entries == {1: 0, 5: 5, 15: 60}
    assert table.index_n_count == 0


def test_include_flags_adjust_index_one():
    spec = validate_spec(2, 6, [1, 3])
    base = multiplicity_table(spec).entries[1]
    no_zero = EnumerationOptions(exclude_zero_code=False)
    no_full = EnumerationOptions(exclude_full_code=False)
    assert multiplicity_table(spec, no_zero).entries[1] == base + 1
    assert multiplicity_table(spec, no_full).entries[1] == base + 1


def test_tabulate_sorts_and_leaves_the_tally_unmutated():
    spec = validate_spec(2, 4, [1])
    tally = {15: 60, 5: 5, 1: 2}
    table = tabulate(spec, tally)
    assert tally == {15: 60, 5: 5, 1: 2}
    assert list(table.entries.items()) == [(1, 0), (5, 5)]
    assert table.index_n_count == 60
    every = EnumerationOptions(False, False, False)
    assert list(tabulate(spec, tally, every).entries.items()) == [
        (1, 2), (5, 5), (15, 60)
    ]


def test_zero_scaling_invariance():
    # replacing every zero i by r*i mod N (r coprime to N) renames the
    # primitive element and must not change any multiplicity
    base = multiplicity_table(validate_spec(2, 6, [1, 3]))
    scaled = multiplicity_table(validate_spec(2, 6, [5, 15]))
    assert scaled.entries == base.entries
    assert scaled.index_n_count == base.index_n_count

    base = multiplicity_table(validate_spec(3, 4, [1, 2]))
    scaled = multiplicity_table(validate_spec(3, 4, [7, 14]))
    assert scaled.entries == base.entries


def test_single_zero_table_keys_are_subfield_steps():
    # a single full-coset zero at exponent 1 realizes exactly the steps L_d
    spec = validate_spec(2, 6, [1])
    table = multiplicity_table(spec)
    assert set(table.entries) == {1, 9, 21}
    assert table.entries == {1: 0, 9: 9, 21: 42}
    assert table.index_n_count == 2772
