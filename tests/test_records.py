"""The result records are immutable named tuples: fields cannot be assigned,
and defaults and IndexSet's own sequence protocol hold.  The JSON the CLI
builds from them is pinned in test_cli."""

import copy
import pickle

import pytest

from qcenum.closed_form import DiscrepancyRow, cross_check, family_table
from qcenum.counting import maximal_counts
from qcenum.enumeration import EnumerationOptions, multiplicity_table
from qcenum.index_calc import contribution_matrix, index_set
from qcenum.numth import validate_spec
from qcenum.oracle import DistinctnessReport, NondegeneracyReport, ShiftLemmaReport

SPEC = validate_spec(2, 6, [1, 3])


def _records() -> list:
    table = family_table("simplex", q=2, n=4)
    return [
        SPEC,
        maximal_counts(6, 2),
        EnumerationOptions(),
        multiplicity_table(SPEC),
        contribution_matrix(SPEC),
        index_set(SPEC),
        table,
        DiscrepancyRow(1, 2, 3),
        cross_check(table),
        DistinctnessReport(3, 3),
        NondegeneracyReport(16, 1),
        ShiftLemmaReport(16, 0),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = None


def test_index_set_sequence_protocol_is_over_values():
    iset = index_set(SPEC)
    assert iset.values == (1, 3, 7, 9, 21)
    assert iset.excluded_n is True
    assert len(iset) == 5
    assert list(iset) == [1, 3, 7, 9, 21]
    assert 21 in iset and 63 not in iset


def test_index_set_copies_and_pickles():
    iset = index_set(SPEC)
    for twin in (copy.copy(iset), copy.deepcopy(iset), pickle.loads(pickle.dumps(iset))):
        assert type(twin) is type(iset)
        assert (twin.values, twin.excluded_n) == (iset.values, iset.excluded_n)


def test_record_equals_plain_tuple_of_its_fields():
    assert SPEC == (2, 6, (1, 3), 63)
    assert EnumerationOptions() == (True, True, True)
