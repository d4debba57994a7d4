"""Explicit finite fields F_{p^m} with exp, log and trace tables.

Elements are integers in [0, p^m): the base-p digits of x are its coordinates
in the polynomial basis 1, t, ..., t^(m-1) of F_p[t]/(modulus), so an element
is built from coordinates as an integer, with no field method.  The modulus
(irreducible by Ben-Or's test) and the designated primitive element are the
smallest in this integer encoding, so the same parameters always rebuild the
identical field.  ExtField(p, m, modulus, alpha) with another alpha gives the
same field with another primitive element; its table build rejects an element
that is not primitive.  The inverse of a nonzero a is pow(a, -1).
"""

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
    """Irreducibility of a monic degree-m polynomial over F_p (Ben-Or, FOCS 1981).

    A reducible f has an irreducible factor of some degree i <= m/2, which
    divides t^(p^i) - t, so f is irreducible iff gcd(t^(p^i) - t, f) = 1 for
    every i = 1..m//2.
    """
    f = tuple(coeffs)
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise InvalidParameterError("modulus must be monic of degree >= 1")
    x = p  # t: its one nonzero base-p digit is the 1 at position 1
    for _ in range(m // 2):
        x = _raw_pow(p, f, x, p)
        diff = _digits(x, p, m)
        diff[1] = (diff[1] - 1) % p
        while diff and diff[-1] == 0:
            diff.pop()
        if len(_poly_gcd(p, f, diff)) > 1:
            return False
    return True


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
    """F_{p^m} as integers [0, p^m): multiplication via log/antilog tables,
    the absolute trace via a table of Tr(x) for every element x."""

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
        traces = [0] * self.size
        for k in range(self.order):
            t = 0
            for j in range(m):
                t = self.add(t, exp[k * p**j % self.order])
            traces[exp[k]] = t
        self.traces = traces

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, m={self.m}, modulus={self.modulus}, alpha={self.alpha})"

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p, m = self.p, self.m
        return _undigits([(x + y) % p for x, y in zip(_digits(a, p, m), _digits(b, p, m))], p)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.order]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise InvalidParameterError("zero is not invertible")
            return 0 if e > 0 else 1
        return self.exp[(self.log[a] * e) % self.order]


def build_field(p: int, m: int, cap: int = DEFAULT_BUILD_CAP) -> ExtField:
    """Construct F_{p^m} with deterministic canonical choices.

    The modulus is the lexicographically smallest monic irreducible of degree
    m (coefficient vectors compared as base-p integers, constant term least
    significant) and alpha the smallest element of full multiplicative order.
    """
    if not is_prime(p):
        raise InvalidParameterError(f"p = {p} is not prime")
    if m < 1:
        raise InvalidParameterError(f"degree m = {m} must be at least 1")
    size = p**m
    if size > cap:
        raise CapExceededError(f"p^m = {size} exceeds the build cap {cap}")
    modulus = _canonical_modulus(p, m)
    return ExtField(p, m, modulus, _smallest_full_order(p, modulus))
