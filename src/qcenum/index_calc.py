"""Index arithmetic: which shift periods a subcode can have.

For a primitive element of F_{q^n}, the least positive power landing in the
subfield F_{q^d} is (q^n - 1)/(q^d - 1).  A dual zero exponent i reaches that
subfield after lcm(i, step)/i further steps; folding these contributions under
lcm across all zeros, weighted by subspace counts, yields every index with
its multiplicity; the achievable index set is the support of that fold.
"""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ContributionMatrix:
    """Per-(divisor, zero) shift contributions for a code spec.

    rows[d][j] is the contribution of spec.zeros[j] for a subspace maximally
    defined over F_{q^d}.
    """

    spec: CodeSpec
    divisors: tuple[int, ...]
    rows: dict[int, tuple[int, ...]]

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


@dataclass(frozen=True)
class IndexSet:
    """Achievable proper shift indices, ascending; always contains 1.

    Selections whose combined lcm equals the full length N are not indices of
    proper quasi-cyclic structure; excluded_n records whether any exist.
    """

    values: tuple[int, ...]
    excluded_n: bool

    def __iter__(self):
        return iter(self.values)

    def __contains__(self, x) -> bool:
        return x in self.values

    def __len__(self) -> int:
        return len(self.values)


def lcm_fold(matrix: ContributionMatrix, weights: dict[int, int]) -> dict[int, int]:
    """Weighted count of subspace selections per lcm of their contributions.

    Each zero independently contributes 1 with weight 1 (the zero subspace)
    or its column entry for divisor d with weight weights[d]; contributions
    combine under lcm and weights multiply.  Equal entries within a column
    are merged before folding.  Every key divides N, and key 1 is always
    present.
    """
    acc = {1: 1}
    for zero in matrix.spec.zeros:
        options = {1: 1}
        for d, x in zip(matrix.divisors, matrix.column(zero)):
            options[x] = options.get(x, 0) + weights[d]
        # lcm(l0, 1) = l0, so contribution 1 only scales every bucket
        stay = options.pop(1)
        nxt = {l0: c0 * stay for l0, c0 in acc.items()}
        for l0, c0 in acc.items():
            for l1, c1 in options.items():
                key = math.lcm(l0, l1)
                nxt[key] = nxt.get(key, 0) + c0 * c1
        acc = nxt
    return acc


def index_set(spec: CodeSpec) -> IndexSet:
    """All indices achievable by some choice of subspaces, with N removed:
    the support of the lcm fold under unit weights."""
    matrix = contribution_matrix(spec)
    reachable = set(lcm_fold(matrix, dict.fromkeys(matrix.divisors, 1)))
    excluded = spec.N in reachable
    reachable.discard(spec.N)
    return IndexSet(values=tuple(sorted(reachable)), excluded_n=excluded)
