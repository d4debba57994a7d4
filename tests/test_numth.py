"""Number-theoretic helpers and code parameter validation."""

import math

import pytest

from qcenum.numth import (
    CodeSpec,
    DuplicateCosetError,
    InvalidParameterError,
    ShortCosetError,
    cyclotomic_coset,
    divisors_of,
    factorize,
    is_prime,
    moebius,
    prime_power_base,
    validate_spec,
)

PRIMES_BELOW_200 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]


def trial_is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_range():
    for m in range(-3, 2000):
        assert is_prime(m) == trial_is_prime(m), m


def test_is_prime_known_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    # strong pseudoprime to several bases, composite
    assert not is_prime(3215031751)
    assert is_prime(10**18 + 9)


@pytest.mark.parametrize(
    "m", [2, 12, 360, 97, 1024, 6469693230, 1, 101 * 103, 2 * 10007, 4 * 101**2, 9973 * 10007]
)
def test_factorize_reconstructs(m):
    fact = factorize(m)
    prod = 1
    for p, e in fact:
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == m
    primes = [p for p, _ in fact]
    assert primes == sorted(primes)
    # a limited result is the full factorization, or None exactly when a part
    # of m above the limit remains and is at least limit^2 (trial division up
    # to limit cannot certify it prime)
    for limit in (1, 2, 3, 10, 100, 10**4, 10**6):
        cofactor = math.prod(p**e for p, e in fact if p > limit)
        expect = None if cofactor > 1 and cofactor >= limit**2 else fact
        assert factorize(m, limit=limit) == expect, limit


def test_factorize_edge_cases():
    # 1 has the empty factorization; nonpositive input is rejected
    assert factorize(1) == ()
    with pytest.raises(InvalidParameterError):
        factorize(0)
    with pytest.raises(InvalidParameterError):
        factorize(-6)


def test_divisors_exhaustive():
    for m in range(1, 400):
        expect = [d for d in range(1, m + 1) if m % d == 0]
        assert divisors_of(m) == expect, m


def test_moebius_values():
    # mu(1)=1, squarefree with k factors -> (-1)^k, else 0
    expect = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
              10: 1, 12: 0, 30: -1, 210: 1}
    for m, v in expect.items():
        assert moebius(m) == v, m


def test_moebius_divisor_sum_identity():
    # sum of mu(d) over d | m is 1 for m = 1 and 0 otherwise
    for m in range(1, 300):
        total = sum(moebius(d) for d in divisors_of(m))
        assert total == (1 if m == 1 else 0), m


@pytest.mark.parametrize(
    "q, base", [(2, 2), (4, 2), (8, 2), (3, 3), (9, 3), (25, 5), (7, 7), (49, 7)]
)
def test_prime_power_base(q, base):
    assert prime_power_base(q) == base


@pytest.mark.parametrize("q", [1, 6, 12, 15, 100, 0, -4])
def test_prime_power_base_non_prime_power(q):
    assert prime_power_base(q) is None


def test_cyclotomic_coset_basic():
    # q=2, N=15: coset of 1 is {1,2,4,8}, coset of 5 is {5,10}
    assert cyclotomic_coset(1, 2, 15) == {1, 2, 4, 8}
    assert cyclotomic_coset(5, 2, 15) == {5, 10}
    assert cyclotomic_coset(0, 2, 15) == {0}
    assert cyclotomic_coset(3, 2, 15) == {3, 6, 12, 9}


def test_cyclotomic_coset_partitions():
    # cosets partition Z_N and each has size dividing ord_N(q)
    for q, N in [(2, 15), (2, 63), (3, 80), (5, 24)]:
        seen = {}
        for i in range(N):
            coset = cyclotomic_coset(i, q, N)
            assert i in coset
            key = min(coset)
            if key in seen:
                assert seen[key] == set(coset)
            else:
                seen[key] = set(coset)
        covered = set()
        for members in seen.values():
            assert not (covered & members)
            covered |= members
        assert covered == set(range(N))
        ord_q = 1
        power = q % N
        while power != 1:
            power = power * q % N
            ord_q += 1
        for members in seen.values():
            assert ord_q % len(members) == 0


def test_validate_spec_accepts_and_canonicalizes():
    spec = validate_spec(2, 4, [1])
    assert spec == CodeSpec(q=2, n=4, zeros=(1,), N=15)
    assert spec.s == 1
    # representative is the smallest coset member, order sorted
    spec = validate_spec(2, 4, [3, 2])
    assert spec.zeros == (1, 3)
    spec = validate_spec(3, 4, [2, 1])
    assert spec.zeros == (1, 2)


def test_validate_spec_short_coset():
    # coset of 5 mod 15 has size 2 < 4
    with pytest.raises(ShortCosetError) as err:
        validate_spec(2, 4, [1, 3, 5])
    assert "ShortCoset" in str(err.value)
    assert "5" in str(err.value)


def test_validate_spec_duplicate_coset():
    # 3 and 6 share a 2-cyclotomic coset mod 15
    with pytest.raises(DuplicateCosetError) as err:
        validate_spec(2, 4, [3, 6])
    assert "DuplicateCoset" in str(err.value)


def test_validate_spec_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        validate_spec(6, 4, [1])
    with pytest.raises(InvalidParameterError):
        validate_spec(2, 0, [1])
    with pytest.raises(InvalidParameterError):
        validate_spec(2, 4, [])
    with pytest.raises(InvalidParameterError):
        validate_spec(2, 4, [0])
    with pytest.raises(InvalidParameterError):
        validate_spec(2, 4, [15])
    with pytest.raises(InvalidParameterError):
        validate_spec(2, 4, [-1])


def test_validate_spec_zero_exponent_multiple_of_n():
    # exponent 0 would give the all-constant coset of size 1
    with pytest.raises(InvalidParameterError):
        validate_spec(2, 4, [0, 1])


def test_coset_sizes_divide_n_in_valid_specs():
    for q, n, zeros in [(2, 6, [1, 3, 5]), (3, 4, [1, 2, 4]), (5, 2, [1, 2])]:
        spec = validate_spec(q, n, zeros)
        for z in spec.zeros:
            assert len(cyclotomic_coset(z, q, spec.N)) == n


def test_spec_N_matches():
    for q, n in [(2, 4), (3, 4), (4, 3), (5, 2)]:
        spec = validate_spec(q, n, [1])
        assert spec.N == q**n - 1
        assert math.gcd(q, spec.N) == 1
