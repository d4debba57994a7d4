"""Multiplicities of quasi-cyclic subcodes per shift index.

Distinct subspace tuples give distinct subcodes, so counting subcodes reduces
to counting tuples.  Each dual zero independently picks either the zero space
(index contribution 1) or a subspace maximally defined over some intermediate
field F_{q^d} (contribution step_d/gcd(i, step_d), with multiplicity the
maximal-subspace count M(d)); contributions combine under lcm and
multiplicities multiply.
"""

from dataclasses import dataclass

from .counting import maximal_counts, subspace_total
from .index_calc import contribution_matrix, lcm_fold
from .numth import CodeSpec


@dataclass(frozen=True)
class EnumerationOptions:
    """Counting conventions.

    Defaults count proper nonzero subcodes: the zero code (all subspaces zero)
    and the code itself (all subspaces the full field) are dropped from the
    index-1 bucket, and selections whose lcm equals the full length N are
    reported separately rather than as an index.
    """

    exclude_zero_code: bool = True
    exclude_full_code: bool = True
    report_index_n: bool = True


DEFAULT_OPTIONS = EnumerationOptions()


@dataclass(frozen=True)
class IndexTable:
    """Multiplicity of subcodes per achievable index, keys ascending."""

    spec: CodeSpec
    entries: dict[int, int]
    index_n_count: int
    options: EnumerationOptions


def multiplicity_table(
    spec: CodeSpec, options: EnumerationOptions = DEFAULT_OPTIONS
) -> IndexTable:
    """The lcm fold of the contribution matrix weighted by the maximal
    subspace counts M(d), under the chosen counting conventions.

    The index-1 key always exists (the all-zero tuple lands there), so the
    trivial-code exclusions only ever touch an existing bucket.
    """
    weights = maximal_counts(spec.n, spec.q).counts
    acc = lcm_fold(contribution_matrix(spec), weights)
    if options.exclude_zero_code:
        acc[1] -= 1
    if options.exclude_full_code:
        acc[1] -= 1
    index_n = acc.pop(spec.N, 0) if options.report_index_n else 0
    entries = {k: acc[k] for k in sorted(acc)}
    return IndexTable(
        spec=spec, entries=entries, index_n_count=index_n, options=options
    )


def grand_total(spec: CodeSpec) -> int:
    """Total number of subcodes over all subspace tuples, zero space included:
    (subspace_total(n, q) + 1)^s."""
    return (subspace_total(spec.n, spec.q) + 1) ** spec.s
