"""Explicit finite fields F_{p^m} with exp, log and trace tables.

Elements are integers in [0, p^m): the base-p digits of x are its coordinates
in the polynomial basis 1, t, ..., t^(m-1) of F_p[t]/(modulus), so an element
is built from coordinates as an integer, with no field method.  The modulus is
the smallest monic f (coefficients read as base-p digits, constant term least
significant) modulo which t has order p^m - 1, and alpha = t.  Such an f is
primitive, hence irreducible (Lidl & Niederreiter, Finite Fields, §3.1), and
the walk over the powers of t that finds it is the exp table, so the same
parameters always rebuild the identical field.  ExtField(p, m, modulus, exp)
takes the powers exp[k] = alpha^k of any primitive alpha and checks that they
list every nonzero element once.  The inverse of a nonzero a is pow(a, -1).
"""

from .numth import InvalidParameterError, is_prime


def _digits(x: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        out.append(x % p)
        x //= p
    return out


def _add(p: int, m: int, a: int, b: int) -> int:
    """Digitwise sum mod p of two elements."""
    if p == 2:
        return a ^ b
    out, scale = 0, 1
    for _ in range(m):
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += (da + db) % p * scale
        scale *= p
    return out


def _powers_of_t(p: int, m: int, low: int) -> list[int]:
    """The powers 1, t, t^2, ... of t modulo f = t^m + low(t), up to the first
    that returns to 1.  low(0) != 0 makes t invertible, so the walk is a cycle.

    Multiplying by t is x *= p; the digit c that overflows into t^m is folded
    back as c * (-low(t)), read from a table of those multiples.
    """
    size = p**m
    neg_low = sum(-d % p * p**j for j, d in enumerate(_digits(low, p, m)))
    fold = [0]
    for _ in range(1, p):
        fold.append(_add(p, m, fold[-1], neg_low))
    exp = []
    x = 1
    while True:
        exp.append(x)
        x *= p
        x = _add(p, m, x % size, fold[x // size])
        if x == 1:
            return exp


class ExtField:
    """F_{p^m} as integers [0, p^m): multiplication via log/antilog tables,
    the absolute trace via a table of Tr(x) for every element x."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], exp: list[int]):
        self.p = p
        self.m = m
        self.size = p**m
        self.order = self.size - 1
        self.modulus = tuple(modulus)
        log = [-1] * self.size
        for k, x in enumerate(exp):
            if not 0 < x < self.size or log[x] >= 0:
                raise InvalidParameterError(f"exp[{k}] = {x} is zero, out of range or repeated")
            log[x] = k
        if len(exp) != self.order:
            raise InvalidParameterError(
                f"exp lists {len(exp)} of the {self.order} nonzero elements"
            )
        self.exp = list(exp)
        self.log = log
        self.alpha = exp[1 % self.order]
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
        return _add(self.p, self.m, a, b)

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


def build_field(p: int, m: int) -> ExtField:
    """Construct F_{p^m} modulo its smallest primitive polynomial, alpha = t.

    Candidates f = t^m + low(t) with low(0) != 0 are tried in increasing
    base-p encoding of low; the first whose powers of t number p^m - 1 is
    primitive, and those powers are its exp table.
    """
    if not is_prime(p):
        raise InvalidParameterError(f"p = {p} is not prime")
    if m < 1:
        raise InvalidParameterError(f"degree m = {m} must be at least 1")
    size = p**m
    for low in range(1, size):
        if low % p:
            exp = _powers_of_t(p, m, low)
            if len(exp) == size - 1:
                return ExtField(p, m, (*_digits(low, p, m), 1), exp)
    raise AssertionError("unreachable: every degree has a primitive polynomial")
