"""Exact subspace counting over finite fields.

subspace_total counts the nonzero subspaces of F_q^n by the Galois-number
recurrence, and maximal_counts sorts the nonzero subspaces of F_{q^n} by their
largest field of scalars through Moebius inversion on the divisor lattice of n.
All counts are plain Python integers, so they stay exact at any size; several
of the interesting multiplicities run to dozens of digits.
"""

from collections import namedtuple
from itertools import combinations
from math import prod

from .numth import InvalidParameterError, divisors_of, factorize, moebius


def subspace_total(n: int, q: int) -> int:
    """Number of nonzero F_q-subspaces of an n-dimensional space.

    The Galois number G_n counts every subspace, zero included, and obeys
    G_{m+1} = 2*G_m + (q^m - 1)*G_{m-1} with G_0 = 1 and G_1 = 2 (Goldman and
    Rota), so this is G_n - 1 after n - 1 steps of the recurrence.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got n={n}")
    if q < 2:
        raise InvalidParameterError(f"need q >= 2, got q={q}")
    prev, cur, qm = 1, 2, 1
    for _ in range(1, n):
        qm *= q
        prev, cur = cur, 2 * cur + (qm - 1) * prev
    return cur - 1


class MaximalCountTable(namedtuple("MaximalCountTable", "q n counts")):
    """Counts of nonzero subspaces of F_{q^n} by their largest field of scalars.

    counts[d] is the number of subspaces closed under F_{q^d}-multiplication
    but under no larger intermediate field.
    """

    __slots__ = ()


def maximal_counts(n: int, q: int) -> MaximalCountTable:
    """Per-divisor counts of subspaces maximally defined over F_{q^d}.

    A subspace defined over F_{q^d} is an F_{q^d}-subspace of an (n/d)-dimensional
    F_{q^d}-space, so Moebius inversion over the divisor lattice of n/d gives

        M(d) = sum_{m | n/d} mu(m) * subspace_total(n/(d*m), q^(d*m)).

    The term depends on d and m only through e = d*m, a divisor of n, so the
    tau(n) totals are computed once and every pair (d, m) reads its own.
    """
    totals = {e: subspace_total(n // e, q**e) for e in divisors_of(n)}
    counts = {
        d: sum(moebius(m) * totals[d * m] for m in divisors_of(n // d))
        for d in divisors_of(n)
    }
    return MaximalCountTable(q=q, n=n, counts=counts)


def maximal_counts_inclusion_exclusion(n: int, q: int) -> MaximalCountTable:
    """Same counts via alternating sums over subsets of the primes dividing n/d.

    A subspace defined over F_{q^d} has a larger field of scalars exactly when
    it is defined over F_{q^(d*u)} for some prime u | n/d, and it is defined
    over F_{q^(d*u)} for every u in a set S of such primes exactly when it is
    defined over F_{q^e}, e = d * prod(S).  Inclusion-exclusion over S gives

        M(d) = sum_S (-1)^|S| * subspace_total(n/e, q^e).

    Kept alongside the Moebius form as an internal cross-check, since both
    must agree on every divisor.
    """
    counts = {}
    for d in divisors_of(n):
        primes = [u for u, _ in factorize(n // d)]
        total = 0
        for r in range(len(primes) + 1):
            for subset in combinations(primes, r):
                e = d * prod(subset)
                total += (-1) ** r * subspace_total(n // e, q**e)
        counts[d] = total
    return MaximalCountTable(q=q, n=n, counts=counts)
