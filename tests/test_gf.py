"""Explicit finite fields: canonical construction, tables, trace, subfields."""

import pytest

from qcenum.gf import ExtField, build_field
from qcenum.numth import InvalidParameterError, is_prime
from qcenum.oracle import DEFAULT_ORACLE_CAP
from reference import (
    all_monic,
    brute_irreducible,
    coeffs,
    from_coeffs,
    mul_mod,
    primitive_elements,
    subfield,
    subfield_generator,
    with_alpha,
)


def times_t(p, f, x):
    """x * t modulo the monic f, on coefficient lists: shift x up one degree,
    then subtract the digit that reached t^m times f."""
    c = x[-1]
    return [(d - c * g) % p for d, g in zip([0, *x[:-1]], f)]


def order_of_t(p, f):
    """The multiplicative order of t modulo f, or None when t is not a unit."""
    one = [1] + [0] * (len(f) - 2)
    x = one
    for k in range(1, p ** (len(f) - 1) + 1):
        x = times_t(p, f, x)
        if x == one:
            return k
    return None


@pytest.mark.parametrize(
    "p, m",
    [
        (p, m)
        for p in range(2, DEFAULT_ORACLE_CAP + 1)
        if is_prime(p)
        for m in range(1, DEFAULT_ORACLE_CAP.bit_length())
        if p**m <= DEFAULT_ORACLE_CAP
    ],
)
def test_modulus_is_the_smallest_primitive_polynomial(p, m):
    field = build_field(p, m)
    f = list(field.modulus)
    assert brute_irreducible(p, f)
    assert order_of_t(p, f) == field.order
    for g in all_monic(p, m):
        if g == f:
            break
        assert order_of_t(p, g) != field.order, g
    for k in range(field.order):
        got = coeffs(field, field.exp[(k + 1) % field.order])
        assert list(got) == times_t(p, f, list(coeffs(field, field.exp[k]))), k


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
    f9 = build_field(3, 2)  # t^2 + 1 is irreducible, but t has order 4
    assert f9.modulus == (2, 1, 1)
    assert f9.alpha == 3
    f256 = build_field(2, 8)  # 0x11B is irreducible, but t has order 51
    assert f256.modulus == (1, 0, 1, 1, 1, 0, 0, 0, 1)
    assert f256.alpha == 2


def test_build_field_deterministic():
    a = build_field(3, 4)
    b = build_field(3, 4)
    assert a.modulus == b.modulus
    assert a.alpha == b.alpha
    assert a.exp == b.exp
    assert a.log == b.log


def test_exp_log_roundtrip():
    for p, m in [(2, 4), (3, 2), (5, 2), (2, 1)]:
        field = build_field(p, m)
        assert len(set(field.exp)) == max(field.order, 1)
        for x in range(1, field.size):
            assert field.exp[field.log[x]] == x
        assert field.log[1] == 0


def independent_mul(field, a, b):
    """Product in F_p[t]/(modulus) by schoolbook multiplication."""
    return from_coeffs(field, mul_mod(field.p, field.modulus, coeffs(field, a), coeffs(field, b)))


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


def test_exp_table_must_list_every_nonzero_element_once():
    modulus = (1, 1, 1)
    assert ExtField(2, 2, modulus, [1, 2, 3]).alpha == 2
    for exp in ([1, 2], [1, 2, 2], [1, 2, 3, 1], [0, 2, 3], [1, 2, 4]):
        with pytest.raises(InvalidParameterError):
            ExtField(2, 2, modulus, exp)


def test_build_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        build_field(4, 2)  # 4 is not prime
    with pytest.raises(InvalidParameterError):
        build_field(2, 0)
