"""Integer arithmetic underlying the subcode engines.

Everything here is exact: factorization and the divisor lattice, the Moebius
function, q-cyclotomic cosets mod N, and validation of cyclic-code parameters
(q, n, zeros) into a canonical CodeSpec.
"""

import math
from collections import namedtuple
from functools import lru_cache


class InvalidParameterError(ValueError):
    """An argument outside an operation's domain."""


class ShortCosetError(InvalidParameterError):
    """A dual zero whose q-cyclotomic coset mod N is smaller than n."""


class DuplicateCosetError(InvalidParameterError):
    """Two dual zeros lying in the same q-cyclotomic coset mod N."""


# (prime, exponent) pairs, primes ascending
Factorization = tuple[tuple[int, int], ...]

# Witness set making Miller-Rabin exact for n < 3.3 * 10^24, far past desk scale.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1 by trial division, ascending primes.

    A primality test on the remaining cofactor cuts the division loop short
    once only one prime can be left, so n is factored quickly unless its
    second-largest prime factor is large.
    """
    if n < 1:
        raise InvalidParameterError(f"cannot factor {n}")
    pairs = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            pairs.append((d, e))
            if m > 1 and is_prime(m):
                break
        d += 1 if d == 2 else 2
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


def divisors_of(n: int) -> list[int]:
    """All divisors of n >= 1, ascending."""
    out = [1]
    for p, a in factorize(n):
        out = [d * p**e for d in out for e in range(a + 1)]
    return sorted(out)


def moebius(m: int) -> int:
    """Moebius function: 0 on non-squarefree m, else (-1)^(number of primes)."""
    fact = factorize(m)
    if any(e > 1 for _, e in fact):
        return 0
    return -1 if len(fact) % 2 else 1


def _iroot(x: int, k: int) -> int:
    """The integer k-th root floor(x^(1/k)) of x >= 1, by Newton's method
    descending from a power of two above the root."""
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power_base(q: int) -> int | None:
    """The prime p with q = p^k, or None when q >= 2 is not a prime power.

    Tries each exponent k with 2^k <= q by an integer k-th root and a
    primality test, so no factoring is needed: a product of two large primes
    is rejected as fast as a prime power is found.
    """
    if q < 2:
        return None
    for k in range(1, q.bit_length()):
        r = _iroot(q, k)
        if r**k == q and is_prime(r):
            return r
    return None


def cyclotomic_coset(i: int, q: int, N: int) -> frozenset[int]:
    """The orbit {i * q^k mod N : k >= 0} of i under multiplication by q.

    Requires gcd(q, N) = 1 so that multiplication by q permutes Z/N.
    """
    if N < 1:
        raise InvalidParameterError(f"modulus {N} must be positive")
    if math.gcd(q, N) != 1:
        raise InvalidParameterError(f"q = {q} is not coprime to N = {N}")
    if not 0 <= i < N:
        raise InvalidParameterError(f"exponent {i} out of range [0, {N})")
    orbit = {i}
    j = i * q % N
    while j != i:
        orbit.add(j)
        j = j * q % N
    return frozenset(orbit)


class CodeSpec(namedtuple("CodeSpec", "q n zeros N")):
    """A cyclic code of length N = q^n - 1 given by canonical dual-zero exponents.

    Every zero has a full-size (= n) cyclotomic coset and the zeros lie in
    pairwise distinct cosets; each is the smallest member of its coset.
    """

    __slots__ = ()

    @property
    def s(self) -> int:
        return len(self.zeros)


def validate_spec(q: int, n: int, zeros) -> CodeSpec:
    """Check (q, n, zeros) and canonicalize each zero to its least coset member.

    Raises ShortCosetError when some zero's coset has size < n, and
    DuplicateCosetError when two zeros share a coset.
    """
    if prime_power_base(q) is None:
        raise InvalidParameterError(f"q = {q} is not a prime power")
    if n < 2:
        raise InvalidParameterError(f"extension degree n = {n} must be at least 2")
    zeros = list(zeros)
    if not zeros:
        raise InvalidParameterError("at least one dual zero is required")
    N = q**n - 1
    seen: dict[int, int] = {}
    reps = []
    for i in zeros:
        if not 1 <= i <= N - 1:
            raise InvalidParameterError(f"zero {i} out of range [1, {N - 1}]")
        coset = cyclotomic_coset(i, q, N)
        if len(coset) != n:
            raise ShortCosetError(
                f"ShortCoset: zero {i} has a cyclotomic coset of size {len(coset)}, need {n}"
            )
        rep = min(coset)
        if rep in seen:
            raise DuplicateCosetError(
                f"DuplicateCoset: zeros {seen[rep]} and {i} generate the same cyclotomic coset"
            )
        seen[rep] = i
        reps.append(rep)
    return CodeSpec(q=q, n=n, zeros=tuple(sorted(reps)), N=N)
