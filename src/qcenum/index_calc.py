"""Index arithmetic: which shift periods a subcode can have.

For a primitive element of F_{q^n}, the least positive power landing in the
subfield F_{q^d} is (q^n - 1)/(q^d - 1).  A dual zero exponent i reaches that
subfield after lcm(i, step)/i further steps.  The indices are the lcms of one
contribution per zero (1 for the zero subspace): that lcm-closure is the
achievable index set, and Moebius inversion on it, ordered by divisibility,
folds the contributions weighted by subspace counts into every index's
multiplicity.
"""

import math
from collections import namedtuple

from .numth import CodeSpec, InvalidParameterError, divisors_of


def subfield_index(q: int, n: int, d: int) -> int:
    """Multiplicative index (q^n - 1)/(q^d - 1) of F_{q^d}* inside F_{q^n}*.

    Equivalently the least e > 0 with alpha^e in F_{q^d} for alpha primitive;
    alpha^e is then itself primitive in F_{q^d}.
    """
    if d < 1 or n % d != 0:
        raise InvalidParameterError(f"d = {d} does not divide n = {n}")
    return (q**n - 1) // (q**d - 1)


def index_contribution(zero: int, step: int) -> int:
    """Least ell > 0 such that zero * ell is a multiple of step.

    This is lcm(zero, step)/zero = step/gcd(zero, step), the shift period a
    single dual zero forces when its subspace lives exactly over the subfield
    with the given step.
    """
    if zero < 1 or step < 1:
        raise InvalidParameterError(f"need positive zero and step, got {zero}, {step}")
    return step // math.gcd(zero, step)


class ContributionMatrix(namedtuple("ContributionMatrix", "spec divisors rows")):
    """Per-(divisor, zero) shift contributions for a code spec.

    rows[d][j] is the contribution of spec.zeros[j] for a subspace maximally
    defined over F_{q^d}.
    """

    __slots__ = ()

    def column(self, zero: int) -> tuple[int, ...]:
        j = self.spec.zeros.index(zero)
        return tuple(self.rows[d][j] for d in self.divisors)


def contribution_matrix(spec: CodeSpec) -> ContributionMatrix:
    divs = tuple(divisors_of(spec.n))
    rows = {
        d: tuple(
            index_contribution(i, subfield_index(spec.q, spec.n, d)) for i in spec.zeros
        )
        for d in divs
    }
    return ContributionMatrix(spec=spec, divisors=divs, rows=rows)


class IndexSet(namedtuple("IndexSet", "values excluded_n")):
    """Achievable proper shift indices, ascending; always contains 1.

    Selections whose combined lcm equals the full length N are not indices of
    proper quasi-cyclic structure; excluded_n records whether any exist.
    len, iteration and `in` go over values, so the tuple helpers _make,
    _replace and _asdict do not apply.
    """

    __slots__ = ()

    def __getnewargs__(self):
        # copy and pickle rebuild from this; tuple(self) would give the values
        return (self.values, self.excluded_n)

    def __iter__(self):
        return iter(self.values)

    def __contains__(self, x) -> bool:
        return x in self.values

    def __len__(self) -> int:
        return len(self.values)


def _lcm_closure(columns) -> list[int]:
    """Every lcm of one entry per column, ascending; each column holds 1, so
    the closure holds 1 and every entry."""
    closure = {1}
    for column in columns:
        closure = {math.lcm(a, x) for a in closure for x in column}
    return sorted(closure)


def lcm_fold(matrix: ContributionMatrix, weights: dict[int, int]) -> dict[int, int]:
    """Weighted count of subspace selections per lcm of their contributions.

    Each zero independently contributes 1 with weight 1 (the zero subspace)
    or its column entry for divisor d with weight weights[d]; contributions
    combine under lcm and weights multiply.  Equal entries within a column
    are merged first.  The keys are the lcm-closure L of the columns, so every
    key divides N and key 1 is always present.

    A selection's lcm divides D exactly when each of its entries does, so the
    weight of the selections with lcm dividing D is the product over columns
    of the weights of the entries dividing D.  That is the zeta transform of
    the wanted counts on L ordered by divisibility, and walking L upwards
    Moebius-inverts it: each count is its product minus the counts at its
    proper divisors in L.
    """
    columns = []
    for zero in matrix.spec.zeros:
        options = {1: 1}
        for d, x in zip(matrix.divisors, matrix.column(zero)):
            options[x] = options.get(x, 0) + weights[d]
        columns.append(options)
    exact = {}
    for top in _lcm_closure(columns):
        zeta = 1
        for options in columns:
            zeta *= sum(w for x, w in options.items() if top % x == 0)
        exact[top] = zeta - sum(c for key, c in exact.items() if top % key == 0)
    return exact


def index_set(spec: CodeSpec) -> IndexSet:
    """All indices achievable by some choice of subspaces, with N removed:
    the lcm-closure of the contribution columns, each with 1 added for the
    zero subspace."""
    matrix = contribution_matrix(spec)
    reachable = _lcm_closure({1, *matrix.column(zero)} for zero in spec.zeros)
    # every value divides N, so N can only come last
    excluded = reachable[-1] == spec.N
    if excluded:
        reachable.pop()
    return IndexSet(values=tuple(reachable), excluded_n=excluded)
