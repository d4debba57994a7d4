"""Exact subspace counting over finite fields.

All counts are plain Python integers, so they stay exact at any size; several
of the interesting multiplicities run to dozens of digits.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .numth import InvalidParameterError, divisors_of, factorize, moebius


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional F_q-subspaces of an n-dimensional F_q-space.

    Computed as prod_{i=1..k} (q^(n-k+i) - 1) / (q^i - 1).  After i steps the
    partial product equals the (n-k+i choose i) Gaussian binomial, so every
    intermediate division is exact.
    """
    if n < 0:
        raise InvalidParameterError(f"need n >= 0, got n={n}")
    if q < 2:
        raise InvalidParameterError(f"need q >= 2, got q={q}")
    if k < 0 or k > n:
        return 0
    result = 1
    for i in range(1, k + 1):
        result = result * (q ** (n - k + i) - 1) // (q**i - 1)
    return result


@lru_cache(maxsize=None)
def subspace_total(n: int, q: int) -> int:
    """Number of nonzero F_q-subspaces of an n-dimensional space.

    The zero subspace is not counted, so this is sum_{k=1..n} of the Gaussian
    binomials.
    """
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got n={n}")
    return sum(gaussian_binomial(n, k, q) for k in range(1, n + 1))


@dataclass(frozen=True)
class MaximalCountTable:
    """Counts of nonzero subspaces of F_{q^n} by their largest field of scalars.

    counts[d] is the number of subspaces closed under F_{q^d}-multiplication
    but under no larger intermediate field.
    """

    q: int
    n: int
    counts: dict[int, int]


def maximal_counts(n: int, q: int) -> MaximalCountTable:
    """Per-divisor counts of subspaces maximally defined over F_{q^d}.

    A subspace defined over F_{q^d} is an F_{q^d}-subspace of an (n/d)-dimensional
    F_{q^d}-space, so Moebius inversion over the divisor lattice of n/d gives

        M(d) = sum_{m | n/d} mu(m) * subspace_total((n/d)/m, q^(d*m)).
    """
    counts = {}
    for d in divisors_of(n):
        c = n // d
        counts[d] = sum(
            moebius(m) * subspace_total(c // m, q ** (d * m)) for m in divisors_of(c)
        )
    return MaximalCountTable(q=q, n=n, counts=counts)


def maximal_counts_inclusion_exclusion(n: int, q: int) -> MaximalCountTable:
    """Same counts via alternating sums over subsets of the primes dividing n.

    For d = prod u_j^(i_j) dividing n = prod u_j^(a_j), subtract for every
    nonempty subset S of primes the subspaces already defined over the larger
    field obtained by raising each i_j, j in S, by one; terms where i_j + 1
    exceeds a_j contribute nothing.  Kept alongside the Moebius form as an
    internal cross-check, since both must agree on every divisor.
    """
    fact = factorize(n)
    primes = [u for u, _ in fact]
    exps = {u: a for u, a in fact}
    counts = {}
    for d in divisors_of(n):
        dexp = {u: e for u, e in factorize(d)} if d > 1 else {}
        total = 0
        for r in range(len(primes) + 1):
            for subset in combinations(primes, r):
                bumped = {u: dexp.get(u, 0) + (1 if u in subset else 0) for u in primes}
                if any(bumped[u] > exps[u] for u in subset):
                    continue
                dim = 1
                base_exp = 1
                for u in primes:
                    dim *= u ** (exps[u] - bumped[u])
                    base_exp *= u ** bumped[u]
                total += (-1) ** r * subspace_total(dim, q**base_exp)
        counts[d] = total
    return MaximalCountTable(q=q, n=n, counts=counts)
