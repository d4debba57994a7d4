"""Multiplicities of quasi-cyclic subcodes per shift index.

Distinct subspace tuples give distinct subcodes, so counting subcodes reduces
to counting tuples.  Each dual zero independently picks either the zero space
(index contribution 1) or a subspace maximally defined over some intermediate
field F_{q^d} (contribution step_d/gcd(i, step_d), with multiplicity the
maximal-subspace count M(d)); contributions combine under lcm and
multiplicities multiply.  tabulate turns a count of every tuple per index into
a table under the counting conventions, for this fold and for the oracle's
measured tally alike.
"""

from collections import namedtuple

from .counting import maximal_counts
from .index_calc import contribution_matrix, lcm_fold
from .numth import CodeSpec


class EnumerationOptions(
    namedtuple(
        "EnumerationOptions",
        "exclude_zero_code exclude_full_code report_index_n",
        defaults=(True, True, True),
    )
):
    """Counting conventions.

    Defaults count proper nonzero subcodes: the zero code (all subspaces zero)
    and the code itself (all subspaces the full field) are dropped from the
    index-1 bucket, and selections whose lcm equals the full length N are
    reported separately rather than as an index.
    """

    __slots__ = ()


DEFAULT_OPTIONS = EnumerationOptions()


class IndexTable(namedtuple("IndexTable", "spec entries index_n_count options")):
    """Multiplicity of subcodes per achievable index, keys ascending."""

    __slots__ = ()


def tabulate(
    spec: CodeSpec, tally: dict[int, int], options: EnumerationOptions = DEFAULT_OPTIONS
) -> IndexTable:
    """Apply the counting conventions to a count of every subspace tuple per
    index, leaving tally unmutated.

    tally holds the zero tuple and the full tuple at key 1 and the
    full-length selections at key N, so the trivial-code exclusions only ever
    touch an existing bucket.
    """
    acc = dict(tally)
    if options.exclude_zero_code:
        acc[1] -= 1
    if options.exclude_full_code:
        acc[1] -= 1
    index_n = acc.pop(spec.N, 0) if options.report_index_n else 0
    entries = {k: acc[k] for k in sorted(acc)}
    return IndexTable(
        spec=spec, entries=entries, index_n_count=index_n, options=options
    )


def multiplicity_table(
    spec: CodeSpec, options: EnumerationOptions = DEFAULT_OPTIONS
) -> IndexTable:
    """The lcm fold of the contribution matrix weighted by the maximal
    subspace counts M(d), tabulated under the chosen counting conventions."""
    weights = maximal_counts(spec.n, spec.q).counts
    return tabulate(spec, lcm_fold(contribution_matrix(spec), weights), options)

