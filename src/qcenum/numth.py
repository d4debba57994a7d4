"""Integer arithmetic underlying the subcode engines.

Everything here is exact: factorization and the divisor lattice, the Moebius
function, q-cyclotomic cosets mod N, and validation of cyclic-code parameters
(q, n, zeros) into a canonical CodeSpec.
"""

import math
from dataclasses import dataclass
from functools import lru_cache


class InvalidParameterError(ValueError):
    """An argument outside an operation's domain."""


class ShortCosetError(InvalidParameterError):
    """A dual zero whose q-cyclotomic coset mod N is smaller than n."""

    def __init__(self, zero: int, size: int, required: int):
        super().__init__(
            f"ShortCoset: zero {zero} has a cyclotomic coset of size {size}, need {required}"
        )
        self.zero = zero
        self.size = size
        self.required = required


class DuplicateCosetError(InvalidParameterError):
    """Two dual zeros lying in the same q-cyclotomic coset mod N."""

    def __init__(self, zero: int, other: int):
        super().__init__(
            f"DuplicateCoset: zeros {other} and {zero} generate the same cyclotomic coset"
        )
        self.zero = zero
        self.other = other


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
def factorize(n: int, limit: int | None = None) -> Factorization | None:
    """Prime factorization of n >= 1 by trial division, ascending primes.

    A primality test on the remaining cofactor cuts the division loop short
    once only one prime can be left.  With a limit, trial divisors stop at
    limit and the result is None whenever a cofactor >= limit^2 remains,
    since trial division up to limit cannot certify it prime.
    """
    if n < 1:
        raise InvalidParameterError(f"cannot factor {n}")
    pairs = []
    m = n
    d = 2
    top = n if limit is None else limit
    while d <= top and d * d <= m:
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
        if limit is not None and m >= limit**2:
            return None
        pairs.append((m, 1))
    return tuple(pairs)


def divisors(fact: Factorization) -> list[int]:
    """All divisors of the factored integer, ascending."""
    out = [1]
    for p, a in fact:
        out = [d * p**e for d in out for e in range(a + 1)]
    return sorted(out)


def divisors_of(n: int) -> list[int]:
    return divisors(factorize(n))


def moebius(m: int) -> int:
    """Moebius function: 0 on non-squarefree m, else (-1)^(number of primes)."""
    fact = factorize(m)
    if any(e > 1 for _, e in fact):
        return 0
    return -1 if len(fact) % 2 else 1


def prime_power_base(q: int) -> int | None:
    """The prime p with q = p^k, or None when q >= 2 is not a prime power."""
    if q < 2:
        return None
    fact = factorize(q)
    return fact[0][0] if len(fact) == 1 else None


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


@dataclass(frozen=True)
class CodeSpec:
    """A cyclic code of length N = q^n - 1 given by canonical dual-zero exponents.

    Every zero has a full-size (= n) cyclotomic coset and the zeros lie in
    pairwise distinct cosets; each is the smallest member of its coset.
    """

    q: int
    n: int
    zeros: tuple[int, ...]
    N: int

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
            raise ShortCosetError(i, len(coset), n)
        rep = min(coset)
        if rep in seen:
            raise DuplicateCosetError(i, seen[rep])
        seen[rep] = i
        reps.append(rep)
    return CodeSpec(q=q, n=n, zeros=tuple(sorted(reps)), N=N)
