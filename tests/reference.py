"""Reference helpers that only the tests use: field coordinates and the
element with given coordinates, subfields, primitive elements, polynomials
over F_p with trial division and schoolbook multiplication, the field modulo
the smallest irreducible polynomial, row reduction over digit lists, packing
digits into the oracle's row lanes and back, oracle rows row-reduced from
scratch, subspace spans and fields of scalars, Gaussian binomials, the
pairwise lcm fold, the subspace tuples a shift fixes, codewords evaluated
point by point, subcodes and their shift index on digit tuples, trace
annihilators, the tuple total, and factoring by trial division over odd
numbers up to a limit.

pytest does not collect this module (its name has no test_ prefix); test
modules import it from this directory.  A subspace is the tuple of its RREF
basis elements, as oracle.enumerate_subspaces yields it, with () the zero
space.
"""

from itertools import product
from math import gcd, lcm

from qcenum import oracle
from qcenum.counting import subspace_total
from qcenum.gf import ExtField
from qcenum.index_calc import ContributionMatrix, subfield_index
from qcenum.numth import CodeSpec, InvalidParameterError, divisors_of, is_prime
from qcenum.oracle import enumerate_subspaces

# -- the field ------------------------------------------------------------------


def coeffs(field: ExtField, x: int) -> tuple[int, ...]:
    """Coordinates of x in the polynomial basis (constant term first)."""
    return tuple(x // field.p**j % field.p for j in range(field.m))


def from_coeffs(field: ExtField, ds) -> int:
    """The element with coordinates ds (constant term first)."""
    return sum(d * field.p**j for j, d in enumerate(ds))


def with_alpha(field: ExtField, alpha: int) -> ExtField:
    """The same field with a different designated primitive element: its exp
    table is field.exp read with stride log(alpha), which ExtField rejects
    unless alpha is primitive."""
    if not 0 < alpha < field.size:
        raise InvalidParameterError(f"alpha = {alpha} out of range [1, {field.size})")
    step = field.log[alpha]
    exp = [field.exp[k * step % field.order] for k in range(field.order)]
    return ExtField(field.p, field.m, field.modulus, exp)


def primitive_elements(field: ExtField) -> list[int]:
    """All generators of the multiplicative group, ascending."""
    if field.order <= 1:
        return [1]
    return sorted(field.exp[k] for k in range(field.order) if gcd(k, field.order) == 1)


def subfield_generator(field: ExtField, d: int) -> int:
    """alpha^((p^m-1)/(p^d-1)): a primitive element of the subfield F_{p^d}."""
    return field.pow(field.alpha, subfield_index(field.p, field.m, d))


def subfield(field: ExtField, d: int) -> frozenset[int]:
    """All elements of the subfield F_{p^d}: the fixed points of x -> x^(p^d)."""
    if field.m % d != 0:
        raise InvalidParameterError(f"d = {d} does not divide m = {field.m}")
    step = field.p**d
    return frozenset(x for x in range(field.size) if x == 0 or field.pow(x, step) == x)


# -- polynomials over F_p as coefficient lists (constant term first) -------------


def all_monic(p: int, m: int):
    """Every monic polynomial of degree m, in increasing base-p encoding."""
    for val in range(p**m):
        yield [val // p**j % p for j in range(m)] + [1]


def poly_divides(p: int, g, f) -> bool:
    """Whether monic g divides f over F_p, by long division."""
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


def brute_irreducible(p: int, f) -> bool:
    """No monic divisor of degree 1..deg(f)//2: direct trial division."""
    m = len(f) - 1
    return not any(
        poly_divides(p, g, f) for k in range(1, m // 2 + 1) for g in all_monic(p, k)
    )


def mul_mod(p: int, f, a, b) -> list[int]:
    """Schoolbook product of a and b (m coefficients each) modulo the monic f
    of degree m."""
    m = len(f) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * m - 2, m - 1, -1):
        c = prod[i]
        for j in range(m + 1):
            prod[i - m + j] = (prod[i - m + j] - c * f[j]) % p
    return prod[:m]


def smallest_irreducible_field(p: int, m: int) -> ExtField:
    """F_{p^m} modulo the smallest monic irreducible with nonzero constant
    term, alpha the smallest element of full order, and the exp table by
    schoolbook multiplication: the field the oracle used before its modulus
    became the smallest primitive polynomial."""
    modulus = next(f for f in all_monic(p, m) if f[0] and brute_irreducible(p, f))
    one = [1] + [0] * (m - 1)
    for alpha in range(1, p**m):
        a = [alpha // p**j % p for j in range(m)]
        exp, x = [1], mul_mod(p, modulus, one, a)
        while x != one:
            exp.append(sum(d * p**j for j, d in enumerate(x)))
            x = mul_mod(p, modulus, x, a)
        if len(exp) == p**m - 1:
            return ExtField(p, m, tuple(modulus), exp)
    raise AssertionError("unreachable: the multiplicative group is cyclic")


# -- rows as digit lists --------------------------------------------------------


def reduce_digits(p: int, pivots: dict[int, tuple[int, ...]], row):
    """Reduce a digit row against RREF pivot rows keyed by pivot column."""
    for c, prow in pivots.items():
        f = row[c]
        if f:
            row = [(a - f * b) % p for a, b in zip(row, prow)]
    return row


def rref_digits(p: int, rows) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row-echelon basis of the span of digit rows, pivots ascending."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = reduce_digits(p, pivots, row)
        lead = next((idx for idx, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        pivots[lead] = [v * inv % p for v in row]
    cleared: dict[int, list[int]] = {}
    for c in sorted(pivots, reverse=True):
        cleared[c] = reduce_digits(p, cleared, pivots[c])
    return tuple(tuple(cleared[c]) for c in sorted(cleared))


def _lane_width(p: int) -> int:
    """Bits per digit in an oracle row: 1 for p = 2, a byte for odd p."""
    return 1 if p == 2 else 8


def packed(digits, p: int = 2) -> int:
    """The oracle row of a digit sequence: digit k in lane k."""
    width = _lane_width(p)
    return sum(d << (width * k) for k, d in enumerate(digits))


def unpacked(row: int, N: int, p: int = 2) -> tuple[int, ...]:
    """The digit tuple of an oracle row of length N: digit k is lane k."""
    width = _lane_width(p)
    return tuple(row >> (width * k) & ((1 << width) - 1) for k in range(N))


def rref_rows(p: int, rows) -> tuple[int, ...]:
    """Canonical reduced row-echelon basis of the span of oracle rows, leads
    ascending, built from scratch: oracle._extend over every row from no
    pivots, sorted by lead."""
    pivots: dict = {}
    oracle._extend(p, pivots, rows)
    return tuple(row for _, row in sorted(pivots.items()))


# -- subspaces ------------------------------------------------------------------


def elements(field: ExtField, basis) -> set[int]:
    """Every element of the subspace with this basis."""
    out = {0}
    for b in basis:
        multiples = [0]
        cur = 0
        for _ in range(field.p - 1):
            cur = field.add(cur, b)
            multiples.append(cur)
        out = {field.add(x, mult) for x in out for mult in multiples}
    return out


def subspace_spanned(field: ExtField, spanning) -> tuple[int, ...]:
    """The canonical basis of the subspace generated by arbitrary elements."""
    rows = rref_digits(field.p, [coeffs(field, x) for x in spanning])
    return tuple(from_coeffs(field, r) for r in rows)


def maximal_field_of(field: ExtField, basis) -> int:
    """Largest divisor d of m with the subspace closed under F_{p^d}-scaling.

    Closure under multiplication by a generator of F_{p^d}* suffices, since
    the space is already an F_p-space and F_p adjoined that generator is the
    whole subfield.
    """
    if not basis:
        raise InvalidParameterError("the zero space is defined over every subfield")
    # the basis is RREF, so the first 1 in each coordinate row marks its pivot
    pivots = {row.index(1): row for row in (coeffs(field, b) for b in basis)}
    for d in sorted(divisors_of(field.m), reverse=True):
        g = subfield_generator(field, d)
        if all(
            not any(reduce_digits(field.p, pivots, coeffs(field, field.mul(g, b))))
            for b in basis
        ):
            return d
    raise AssertionError("unreachable: d = 1 always closes")


def classify_all_subspaces(field: ExtField) -> dict[int, int]:
    """Histogram of maximal_field_of over every nonzero subspace."""
    out: dict[int, int] = {}
    for basis in enumerate_subspaces(field):
        d = maximal_field_of(field, basis)
        out[d] = out.get(d, 0) + 1
    return {d: out[d] for d in sorted(out)}


# -- counting -------------------------------------------------------------------


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


def pairwise_lcm_fold(matrix: ContributionMatrix, weights: dict[int, int]) -> dict[int, int]:
    """index_calc.lcm_fold by folding one column at a time: every bucket of
    the running table meets every entry of the next column under lcm."""
    acc = {1: 1}
    for zero in matrix.spec.zeros:
        options = {1: 1}
        for d, x in zip(matrix.divisors, matrix.column(zero)):
            options[x] = options.get(x, 0) + weights[d]
        # lcm(l0, 1) = l0, so contribution 1 only scales every bucket
        stay = options.pop(1)
        nxt = {l0: c0 * stay for l0, c0 in acc.items()}
        for l0, c0 in acc.items():
            for l1, c1 in options.items():
                key = lcm(l0, l1)
                nxt[key] = nxt.get(key, 0) + c0 * c1
        acc = nxt
    return acc


def shift_fixed_tuples(spec: CodeSpec, D: int) -> int:
    """Number of subspace tuples, zero spaces included, that the D-fold shift
    maps to themselves, for D dividing N.

    The D-fold shift multiplies the subspace at zero i_j by alpha^(D*i_j), of
    multiplicative order N/gcd(N, D*i_j); a subspace is fixed exactly when it
    is a space over the field that element generates, F_{q^e_j} with e_j the
    least e | n such that q^e = 1 modulo that order.  The subspaces of
    F_{q^n} over F_{q^e} number G_{n/e}(q^e), so the count is the product of
    those Galois numbers.
    """
    if spec.N % D:
        raise InvalidParameterError(f"D = {D} does not divide N = {spec.N}")
    total = 1
    for i in spec.zeros:
        order = spec.N // gcd(spec.N, D * i)
        e = next(e for e in divisors_of(spec.n) if pow(spec.q, e, order) == 1 % order)
        total *= subspace_total(spec.n // e, spec.q**e) + 1
    return total


# -- codes ----------------------------------------------------------------------


def code_word(field: ExtField, zeros, coeffs) -> tuple[int, ...]:
    """The codeword k -> trace(sum_j coeffs[j] * alpha^(k * zeros[j])), as digits.

    The sum is formed in the field at each point and its trace read from
    field.traces, where the oracle sums the trace words of the terms.
    """
    word = []
    for k in range(field.order):
        x = 0
        for i, b in zip(zeros, coeffs):
            term = field.mul(b, field.pow(field.alpha, k * i))
            x = field.add(x, term) if x else term
        word.append(field.traces[x])
    return tuple(word)


def digit_subcode(field: ExtField, spec: CodeSpec, spaces) -> tuple[tuple[int, ...], ...]:
    """RREF digit rows of the span of the codewords of every basis element of
    spaces[j] at zero j."""
    words = [code_word(field, [i], [b]) for i, basis in zip(spec.zeros, spaces) for b in basis]
    return rref_digits(spec.q, words)


def digit_qc_index(spec: CodeSpec, rows) -> int:
    """Smallest ell whose ell-fold shift, digit k moving to k + ell mod N,
    maps the code with RREF digit rows into itself."""
    pivots = {row.index(1): row for row in rows}
    for ell in divisors_of(spec.N):
        if all(not any(reduce_digits(spec.q, pivots, row[-ell:] + row[:-ell])) for row in rows):
            return ell
    raise AssertionError("unreachable: the N-shift is the identity")


def trace_annihilators(field: ExtField, exponents) -> list[tuple[int, ...]]:
    """Exhaustive list of coefficient tuples whose codeword is zero.

    For positive exponents, as every dual zero is, x = 0 adds trace(0) = 0
    and x = alpha^k is codeword position k, so these are exactly the tuples
    whose trace form vanishes on the whole field.
    """
    exponents = list(exponents)
    return [
        c
        for c in product(range(field.size), repeat=len(exponents))
        if not any(code_word(field, exponents, c))
    ]


def grand_total(spec: CodeSpec) -> int:
    """Total number of subcodes over all subspace tuples, zero space included:
    (subspace_total(n, q) + 1)^s."""
    return (subspace_total(spec.n, spec.q) + 1) ** spec.s


# -- factoring ------------------------------------------------------------------


def limited_factorize(n: int, limit: int | None = None):
    """Prime factorization of n >= 1 by trial division over 2 and the odd
    numbers, ascending primes: numth.factorize as it was when it took a limit.

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


def limited_factored_form(x: int) -> str | None:
    """cli.factored_form by limited_factorize with limit 10^6: the rendering
    like 2^3*5*17, or None when that factorization is None or x < 2."""
    pairs = limited_factorize(x, limit=10**6) if x >= 2 else None
    if pairs is None:
        return None
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in pairs)
