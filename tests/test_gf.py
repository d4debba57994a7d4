"""Explicit finite fields: canonical construction, tables, trace, subfields."""

import pytest

from qcenum.gf import CapExceededError, build_field, is_irreducible
from qcenum.numth import InvalidParameterError
from reference import (
    coeffs,
    from_coeffs,
    primitive_elements,
    subfield,
    subfield_generator,
    with_alpha,
)


def poly_divides(p, g, f):
    """Whether monic g divides f over F_p, by long division on coefficient lists."""
    r = list(f)
    while len(r) >= len(g) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            break
        c = r[-1]
        shift = len(r) - len(g)
        for j, b in enumerate(g):
            r[shift + j] = (r[shift + j] - c * b) % p
    return not any(r)


def brute_irreducible(p, f):
    """No monic divisor of degree 1..deg(f)//2: direct trial division."""
    m = len(f) - 1
    for k in range(1, m // 2 + 1):
        for val in range(p**k):
            g = []
            v = val
            for _ in range(k):
                g.append(v % p)
                v //= p
            g.append(1)
            if poly_divides(p, g, f):
                return False
    return True


def all_monic(p, m):
    for val in range(p**m):
        coeffs = []
        v = val
        for _ in range(m):
            coeffs.append(v % p)
            v //= p
        yield coeffs + [1]


@pytest.mark.parametrize(
    "p, m",
    [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (2, 6), (2, 8), (3, 4), (7, 2)],
)
def test_is_irreducible_against_trial_division(p, m):
    for f in all_monic(p, m):
        assert is_irreducible(p, f) == brute_irreducible(p, f), (p, f)


def test_is_irreducible_degree_one():
    # linear polynomials are always irreducible
    assert is_irreducible(2, [0, 1])
    assert is_irreducible(2, [1, 1])
    assert is_irreducible(5, [3, 1])


def test_is_irreducible_rejects_non_monic():
    with pytest.raises(InvalidParameterError):
        is_irreducible(3, [1, 1, 2])
    with pytest.raises(InvalidParameterError):
        is_irreducible(2, [1])


def test_canonical_fields_pinned():
    f2 = build_field(2, 1)
    assert f2.modulus == (1, 1)
    assert f2.alpha == 1
    f4 = build_field(2, 2)
    assert f4.modulus == (1, 1, 1)
    assert f4.alpha == 2
    f16 = build_field(2, 4)
    assert f16.modulus == (1, 1, 0, 0, 1)
    assert f16.alpha == 2
    f9 = build_field(3, 2)
    assert f9.modulus == (1, 0, 1)
    assert f9.alpha == 4
    f256 = build_field(2, 8)  # the smallest irreducible, t is not primitive
    assert f256.modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert f256.alpha == 3


def test_build_field_deterministic():
    a = build_field(3, 4)
    b = build_field(3, 4)
    assert a.modulus == b.modulus
    assert a.alpha == b.alpha
    assert a.exp == b.exp
    assert a.log == b.log


def test_canonical_modulus_is_smallest_irreducible():
    for p, m in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
        field = build_field(p, m)
        for f in all_monic(p, m):
            if tuple(f) == field.modulus:
                break
            assert not is_irreducible(p, f), (p, m, f)


def test_exp_log_roundtrip():
    for p, m in [(2, 4), (3, 2), (5, 2), (2, 1)]:
        field = build_field(p, m)
        assert len(set(field.exp)) == max(field.order, 1)
        for x in range(1, field.size):
            assert field.exp[field.log[x]] == x
        assert field.log[1] == 0


def independent_mul(field, a, b):
    """Product in F_p[t]/(modulus) computed from scratch in the test."""
    p, m = field.p, field.m
    da, db = coeffs(field, a), coeffs(field, b)
    prod = [0] * (2 * m)
    for i, ca in enumerate(da):
        for j, cb in enumerate(db):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    for i in range(2 * m - 1, m - 1, -1):
        c = prod[i]
        prod[i] = 0
        for j in range(m):
            prod[i - m + j] = (prod[i - m + j] - c * field.modulus[j]) % p
    return from_coeffs(field, prod[:m])


@pytest.mark.parametrize("p, m", [(2, 4), (3, 2), (2, 3)])
def test_table_mul_matches_polynomial_mul(p, m):
    field = build_field(p, m)
    for a in range(field.size):
        for b in range(field.size):
            assert field.mul(a, b) == independent_mul(field, a, b), (a, b)


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, m):
    field = build_field(p, m)
    elems = range(field.size)
    for a in elems:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        if a:
            assert field.mul(a, field.pow(a, -1)) == 1
    for a in elems:
        for b in elems:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in elems:
                lhs = field.mul(a, field.add(b, c))
                rhs = field.add(field.mul(a, b), field.mul(a, c))
                assert lhs == rhs, (a, b, c)


def test_pow_and_order():
    field = build_field(3, 4)
    with_alpha(field, field.alpha)  # the table build accepts only a primitive alpha
    assert field.pow(field.alpha, 80) == 1
    assert field.mul(field.alpha, field.pow(field.alpha, -1)) == 1
    assert field.pow(0, 5) == 0
    assert field.pow(0, 0) == 1
    with pytest.raises(InvalidParameterError):
        field.pow(0, -2)


def test_primitive_elements_count():
    # Euler phi of the group order
    assert len(primitive_elements(build_field(2, 4))) == 8
    assert len(primitive_elements(build_field(3, 2))) == 4
    assert len(primitive_elements(build_field(2, 1))) == 1
    field = build_field(2, 4)
    for a in primitive_elements(field):
        with_alpha(field, a)  # raises unless a is primitive


def test_trace_properties():
    for p, m in [(2, 4), (3, 2), (2, 1)]:
        field = build_field(p, m)
        counts = {}
        for a in range(field.size):
            t = field.traces[a]
            assert 0 <= t < p
            counts[t] = counts.get(t, 0) + 1
            assert field.traces[field.pow(a, p)] == t  # Frobenius invariance
        # the trace form is balanced: each value hit p^(m-1) times
        assert counts == {v: p ** (m - 1) for v in range(p)}
        for a in range(field.size):
            for b in range(field.size):
                s = field.traces[field.add(a, b)]
                assert s == (field.traces[a] + field.traces[b]) % p


def test_subfields():
    field = build_field(2, 4)
    assert subfield(field, 1) == frozenset({0, 1})
    sub = subfield(field, 2)
    assert len(sub) == 4
    for a in sub:
        for b in sub:
            assert field.add(a, b) in sub
            assert field.mul(a, b) in sub
    gen = subfield_generator(field, 2)
    assert gen in sub
    assert field.pow(gen, 3) == 1 and gen != 1
    assert subfield(field, 4) == frozenset(range(16))
    with pytest.raises(InvalidParameterError):
        subfield(field, 3)


def test_subfield_generator_powers_span_subfield():
    field = build_field(3, 4)
    gen = subfield_generator(field, 2)
    got = {0, 1}
    x = gen
    while x != 1:
        got.add(x)
        x = field.mul(x, gen)
    assert got == subfield(field, 2)


def test_with_alpha_override():
    field = build_field(2, 4)
    other = with_alpha(field, primitive_elements(field)[-1])
    assert other.modulus == field.modulus
    # multiplication is table-derived yet must agree between designations
    for a in range(16):
        for b in range(16):
            assert field.mul(a, b) == other.mul(a, b)
    # alpha^5 has order 3, not primitive
    with pytest.raises(InvalidParameterError):
        with_alpha(field, field.pow(field.alpha, 5))
    with pytest.raises(InvalidParameterError):
        with_alpha(field, 0)
    with pytest.raises(InvalidParameterError):
        with_alpha(field, 16)


def test_build_cap():
    with pytest.raises(CapExceededError):
        build_field(2, 5, cap=16)
    field = build_field(2, 5, cap=32)
    assert field.size == 32
    with pytest.raises(CapExceededError):
        build_field(2, 25)  # over the default cap


def test_build_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        build_field(4, 2)  # 4 is not prime
    with pytest.raises(InvalidParameterError):
        build_field(2, 0)
