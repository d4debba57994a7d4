"""Explicit finite fields F_{p^m} with exp/log tables.

Elements are integers in [0, p^m): the base-p digits of x are its coordinates
in the polynomial basis 1, t, ..., t^(m-1) of F_p[t]/(modulus).  The modulus
and the designated primitive element are chosen deterministically (smallest in
this integer encoding), so the same parameters always rebuild the identical
field; both can also be overridden explicitly, e.g. to sweep over primitive
elements.
"""

import math

from .index_calc import subfield_index
from .numth import InvalidParameterError, factorize, is_prime

DEFAULT_BUILD_CAP = 1 << 20


class CapExceededError(InvalidParameterError):
    """A requested field or search is larger than the configured cap."""


def _digits(x: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds, p: int) -> int:
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


def _raw_mul(p: int, modulus: tuple[int, ...], a: int, b: int) -> int:
    """Table-free product of field elements a and b."""
    m = len(modulus) - 1
    return _undigits(_poly_mulmod(p, _digits(a, p, m), _digits(b, p, m), modulus), p)


def _raw_pow(p: int, modulus: tuple[int, ...], a: int, e: int) -> int:
    result = 1
    base = a
    while e:
        if e & 1:
            result = _raw_mul(p, modulus, result, base)
        base = _raw_mul(p, modulus, base, base)
        e >>= 1
    return result


def _poly_mulmod(p: int, f: list[int], g: list[int], mod: list[int]) -> list[int]:
    """Product of coefficient lists f, g reduced mod the monic polynomial mod."""
    m = len(mod) - 1
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    prod[i + j] = (prod[i + j] + a * b) % p
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(m):
                prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
    prod = prod[:m]
    while prod and prod[-1] == 0:
        prod.pop()
    return prod


def _poly_gcd(p: int, f: list[int], g: list[int]) -> list[int]:
    f, g = list(f), list(g)
    while g:
        inv = pow(g[-1], -1, p)
        r = list(f)
        while len(r) >= len(g) and r:
            c = r[-1] * inv % p
            if c:
                shift = len(r) - len(g)
                for j, b in enumerate(g):
                    r[shift + j] = (r[shift + j] - c * b) % p
            while r and r[-1] == 0:
                r.pop()
        f, g = g, r
    return f


def is_irreducible(p: int, coeffs) -> bool:
    """Irreducibility of a monic degree-m polynomial over F_p.

    Uses the standard criterion: t^(p^m) = t mod f, and for every prime r
    dividing m, gcd(t^(p^(m/r)) - t, f) is constant.
    """
    f = list(coeffs)
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise InvalidParameterError("modulus must be monic of degree >= 1")
    checkpoints = {m // r for r, _ in factorize(m)}
    cur = [0, 1] if m > 1 else [(-f[0]) % p]
    for j in range(1, m + 1):
        # cur := cur^p mod f by square-and-multiply on the exponent p
        acc = [1]
        base = cur
        e = p
        while e:
            if e & 1:
                acc = _poly_mulmod(p, acc, base, f)
            base = _poly_mulmod(p, base, base, f)
            e >>= 1
        cur = acc
        if j in checkpoints:
            diff = list(cur) + [0] * (2 - len(cur))
            diff[1] = (diff[1] - 1) % p
            while diff and diff[-1] == 0:
                diff.pop()
            if len(_poly_gcd(p, f, diff)) > 1:
                return False
    target = [0, 1] if m > 1 else [(-f[0]) % p]
    while target and target[-1] == 0:
        target.pop()
    return cur == target


def _canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, coefficients read as base-p digits.

    The search starts at encoding 1: the only degree-m candidate skipped is
    t itself (m = 1, zero constant term), whose quotient ring collapses the
    indeterminate to 0.
    """
    for val in range(1, p**m):
        coeffs = _digits(val, p, m) + [1]
        if is_irreducible(p, coeffs):
            return tuple(coeffs)
    raise InvalidParameterError(f"no irreducible of degree {m} over F_{p}")


def _smallest_full_order(p: int, modulus: tuple[int, ...]) -> int:
    m = len(modulus) - 1
    order = p**m - 1
    radicals = [r for r, _ in factorize(order)] if order > 1 else []
    for cand in range(1, p**m):
        if all(_raw_pow(p, modulus, cand, order // r) != 1 for r in radicals):
            return cand
    raise InvalidParameterError("no generator found")  # unreachable: F* is cyclic


class ExtField:
    """F_{p^m} as integers [0, p^m) with multiplication via log/antilog tables."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], alpha: int):
        self.p = p
        self.m = m
        self.size = p**m
        self.order = self.size - 1
        self.modulus = tuple(modulus)
        if not 1 <= alpha < self.size:
            raise InvalidParameterError(f"alpha = {alpha} out of range [1, {self.size})")
        self.alpha = alpha
        exp = [1] * max(self.order, 1)
        log = [-1] * self.size
        x = 1
        for k in range(self.order):
            exp[k] = x
            log[x] = k
            x = _raw_mul(p, self.modulus, x, alpha)
        if x != 1 or (self.order > 0 and min(log[1:]) < 0):
            raise InvalidParameterError(f"alpha = {alpha} is not primitive")
        self.exp = exp
        self.log = log
        self._trace_table: list[int] | None = None

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, m={self.m}, modulus={self.modulus}, alpha={self.alpha})"

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Coordinates of x in the polynomial basis (constant term first)."""
        return tuple(_digits(x, self.p, self.m))

    def from_coeffs(self, ds) -> int:
        return _undigits(list(ds), self.p)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += (a + b) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        while a:
            out += (-a) % p * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise InvalidParameterError("zero is not invertible")
        return self.exp[(-self.log[a]) % self.order]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise InvalidParameterError("zero is not invertible")
            return 0 if e > 0 else 1
        return self.exp[(self.log[a] * e) % self.order]

    def element_order(self, a: int) -> int:
        if a == 0:
            raise InvalidParameterError("zero has no multiplicative order")
        if self.order == 0:
            return 1
        return self.order // math.gcd(self.log[a], self.order)

    def is_primitive(self, a: int) -> bool:
        return a != 0 and self.element_order(a) == max(self.order, 1)

    def primitive_elements(self) -> list[int]:
        """All generators of the multiplicative group, ascending."""
        if self.order <= 1:
            return [1]
        return sorted(
            self.exp[k] for k in range(self.order) if math.gcd(k, self.order) == 1
        )

    def trace(self, a: int) -> int:
        """Trace down to the prime field: sum of the p-power conjugates of a."""
        if self._trace_table is None:
            table = []
            for x in range(self.size):
                t = x
                acc = x
                for _ in range(self.m - 1):
                    t = self.pow(t, self.p)
                    acc = self.add(acc, t)
                table.append(acc)
            self._trace_table = table
        return self._trace_table[a]

    def subfield_generator(self, d: int) -> int:
        """alpha^((p^m-1)/(p^d-1)): a primitive element of the subfield F_{p^d}."""
        return self.pow(self.alpha, subfield_index(self.p, self.m, d))

    def subfield(self, d: int) -> frozenset[int]:
        """All elements of the subfield F_{p^d}: the fixed points of x -> x^(p^d)."""
        if self.m % d != 0:
            raise InvalidParameterError(f"d = {d} does not divide m = {self.m}")
        step = self.p**d
        return frozenset(
            x for x in range(self.size) if x == 0 or self.pow(x, step) == x
        )

    def with_alpha(self, alpha: int) -> "ExtField":
        """The same field with a different designated primitive element."""
        return ExtField(self.p, self.m, self.modulus, alpha)


def build_field(
    p: int,
    m: int,
    modulus=None,
    alpha: int | None = None,
    cap: int = DEFAULT_BUILD_CAP,
) -> ExtField:
    """Construct F_{p^m} with deterministic canonical choices.

    With no overrides the modulus is the lexicographically smallest monic
    irreducible of degree m (coefficient vectors compared as base-p integers,
    constant term least significant) and alpha the smallest element of full
    multiplicative order.
    """
    if not is_prime(p):
        raise InvalidParameterError(f"p = {p} is not prime")
    if m < 1:
        raise InvalidParameterError(f"degree m = {m} must be at least 1")
    size = p**m
    if size > cap:
        raise CapExceededError(f"p^m = {size} exceeds the build cap {cap}")
    if modulus is None:
        modulus = _canonical_modulus(p, m)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise InvalidParameterError("modulus must be monic of degree m")
        if not is_irreducible(p, list(modulus)):
            raise InvalidParameterError(f"modulus {modulus} is reducible over F_{p}")
    if alpha is None:
        alpha = _smallest_full_order(p, modulus)
    elif not 1 <= alpha < size:
        raise InvalidParameterError(f"alpha = {alpha} out of range")
    return ExtField(p, m, modulus, alpha)
