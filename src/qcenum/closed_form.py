"""Family-specific counting formulas and their cross-check against the generic
engine.

Each family function transcribes its formula as stated, case splits included,
and returns the raw table: the index-1 bucket counts every cyclic subcode
including the code itself.  normalized() shifts to the proper-subcode
convention used everywhere else (subtract the code itself), after which every
entry must agree with the generic engine; cross_check() reports per-index
agreement instead of reconciling silently, since these formulas are the most
error-prone content and the package doubles as their verifier.

Families:
  simplex                  single zero [1], any q and n
  bch2-binary-primepower   q=2, zeros [1,3], n = u^(a-1) a prime power
  bch2-binary-twoprimes    q=2, zeros [1,3], n = u*v a product of two primes
  bch3-pary-twoprimes      odd prime q=p, zeros [1,2], n = u*v
"""

from collections import namedtuple

from .counting import maximal_counts_inclusion_exclusion, subspace_total
from .enumeration import multiplicity_table
from .index_calc import subfield_index
from .numth import CodeSpec, InvalidParameterError, is_prime, validate_spec

FAMILY_SIMPLEX = "simplex"
FAMILY_BCH2_PRIMEPOWER = "bch2-binary-primepower"
FAMILY_BCH2_TWOPRIMES = "bch2-binary-twoprimes"
FAMILY_BCH3_PARY = "bch3-pary-twoprimes"

FAMILIES = (
    FAMILY_SIMPLEX,
    FAMILY_BCH2_PRIMEPOWER,
    FAMILY_BCH2_TWOPRIMES,
    FAMILY_BCH3_PARY,
)


class ClosedFormTable(namedtuple("ClosedFormTable", "family params spec literal")):
    """A family formula evaluation.

    literal holds the counts exactly as the formulas state them; the cyclic
    bucket at index 1 includes the code itself.
    """

    __slots__ = ()

    def normalized(self) -> dict[int, int]:
        """Proper-subcode convention: drop the code itself from index 1."""
        out = dict(self.literal)
        out[1] = out.get(1, 0) - 1
        return {k: out[k] for k in sorted(out)}


def _table(family: str, params: dict, spec: CodeSpec, literal: dict) -> ClosedFormTable:
    """The family table with its literal counts sorted by index."""
    return ClosedFormTable(family, params, spec, {k: literal[k] for k in sorted(literal)})


def simplex_counts(q: int, n: int) -> ClosedFormTable:
    """Single zero [1]: one subcode per nonzero subspace, index = the subfield
    step of its maximal field of definition.

    For q = 2 the subspaces maximally defined over the prime field force the
    full length and are left out of the table (they land in the generic
    engine's index-N diagnostic).
    """
    spec = validate_spec(q, n, [1])
    counts = maximal_counts_inclusion_exclusion(n, q).counts
    literal = {}
    for d, count in counts.items():
        if q == 2 and d == 1:
            continue
        literal[subfield_index(q, n, d)] = count
    return _table(FAMILY_SIMPLEX, {"q": q, "n": n}, spec, literal)


def bch2_binary_primepower(u: int, a: int) -> ClosedFormTable:
    """Binary, zeros [1, 3], n = u^(a-1) for prime u; a >= 2 counts the fields
    in the tower F_2 < F_{2^u} < ... < F_{2^n}.

    The parameter pair (u, a) = (2, 2) is excluded (n = 2 has no valid spec).
    Writes A_j for the subspaces maximally defined over the j-th tower field.
    """
    if not is_prime(u):
        raise InvalidParameterError(f"u = {u} must be prime")
    if a < 2:
        raise InvalidParameterError(f"a = {a} must be at least 2")
    if u == 2 and a == 2:
        raise InvalidParameterError("the parameter pair (u, a) = (2, 2) is excluded")
    n = u ** (a - 1)
    spec = validate_spec(2, n, [1, 3])

    def term(e: int, f: int) -> int:
        # number of nonzero subspaces of a u^e-dimensional space over F_{2^(u^f)}
        return subspace_total(u**e, 2 ** (u**f)) if e >= 0 else 0

    def A(j: int) -> int:
        return term(a - j - 1, j) - term(a - j - 2, j + 1)

    def L(i: int) -> int:
        return subfield_index(2, n, u ** (i - 1))

    literal = {1: 3}
    if a >= 3:
        if u != 2:
            literal[L(a - 1)] = 3 * A(a - 2) + A(a - 2) * term(1, a - 2)
            for j in range(2, a - 1):
                literal[L(j)] = 2 * A(j - 1) + A(j - 1) * (
                    term(a - j, j - 1) + term(a - j - 1, j)
                )
        elif a == 3:
            literal[L(2)] = 3 * A(1) + 2 * A(0) + A(1) * term(2, 0)
        else:
            literal[L(a - 1)] = 3 * A(a - 2) + A(a - 2) * term(1, a - 2)
            for j in range(3, a - 1):
                literal[L(j)] = 2 * A(j - 1) + A(j - 1) * (
                    term(a - j, j - 1) + term(a - j - 1, j)
                )
            literal[L(2)] = (
                2 * A(1)
                + A(0)
                + A(1) * term(a - 1, 0)
                + (A(0) + A(1)) * term(a - 3, 2)
            )
    return _table(FAMILY_BCH2_PRIMEPOWER, {"u": u, "a": a}, spec, literal)


def bch2_binary_twoprimes(u: int, v: int) -> ClosedFormTable:
    """Binary, zeros [1, 3], n = u*v for distinct primes u, v.

    Three regimes: both primes odd; u = 2 with v = 3 (fully worked constants);
    u = 2 with larger v.  Argument order is normalized so u = 2 when either
    prime is 2.
    """
    if not (is_prime(u) and is_prime(v)) or u == v:
        raise InvalidParameterError(f"u = {u}, v = {v} must be distinct primes")
    if v == 2:
        u, v = v, u
    n = u * v
    spec = validate_spec(2, n, [1, 3])
    L2 = subfield_index(2, n, u)
    L3 = subfield_index(2, n, v)
    if u != 2:
        X = subspace_total(v, 2**u)
        Y = subspace_total(u, 2**v)
        literal = {1: 3, L2: 2 * X + X * X - 3, L3: 2 * Y + Y * Y - 3}
    elif v == 3:
        literal = {1: 3, 3: 18, 7: 84, 9: 99, 21: 124194}
    else:
        X = subspace_total(v, 2**u)
        Y = subspace_total(u, 2**v)
        T = subspace_total(n, 2)
        literal = {
            1: 3,
            L2: T + X + T * X - 2 * Y - 1,
            L3: Y * Y - 1,
            L3 // 3: 2 * Y - 2,
        }
    return _table(FAMILY_BCH2_TWOPRIMES, {"u": u, "v": v}, spec, literal)


def bch3_pary_twoprimes(p: int, u: int, v: int) -> ClosedFormTable:
    """Odd characteristic p, zeros [1, 2], n = u*v for distinct primes u, v.

    Two regimes: both primes odd, or one of them 2 (normalized to u = 2).
    A counts the subspaces maximally defined over the prime field.
    """
    if not is_prime(p) or p == 2:
        raise InvalidParameterError(f"p = {p} must be an odd prime")
    if not (is_prime(u) and is_prime(v)) or u == v:
        raise InvalidParameterError(f"u = {u}, v = {v} must be distinct primes")
    if v == 2:
        u, v = v, u
    n = u * v
    spec = validate_spec(p, n, [1, 2])
    L1 = subfield_index(p, n, 1)
    L2 = subfield_index(p, n, u)
    L3 = subfield_index(p, n, v)
    X = subspace_total(v, p**u)
    Y = subspace_total(u, p**v)
    T = subspace_total(n, p)
    A = T - Y - X + 1
    if u != 2:
        literal = {
            1: 3,
            L1: A + A * (T + Y + X) + 2 * (Y * X - Y - X + 1),
            L2: 2 * X + X * X - 3,
            L3: 2 * Y + Y * Y - 3,
        }
    else:
        literal = {
            1: 3,
            L1: A + A * T + (Y - 1) * (A + X - 1),
            L1 // 2: 2 * A + (X - 1) * (A + Y - 1),
            L2: 2 * X + X * X - 3,
            L3: Y * Y - 1,
            L3 // 2: 2 * Y - 2,
        }
    return _table(FAMILY_BCH3_PARY, {"p": p, "u": u, "v": v}, spec, literal)


def family_table(family: str, **params) -> ClosedFormTable:
    """Dispatch a family by its command-line name."""

    def need(*names) -> list[int]:
        missing = [x for x in names if params.get(x) is None]
        if missing:
            raise InvalidParameterError(
                f"family {family} needs parameters {', '.join(missing)}"
            )
        extra = sorted(set(k for k, x in params.items() if x is not None) - set(names))
        if extra:
            raise InvalidParameterError(
                f"family {family} does not take {', '.join(extra)}"
            )
        return [params[x] for x in names]

    if family == FAMILY_SIMPLEX:
        return simplex_counts(*need("q", "n"))
    if family == FAMILY_BCH2_PRIMEPOWER:
        return bch2_binary_primepower(*need("u", "a"))
    if family == FAMILY_BCH2_TWOPRIMES:
        return bch2_binary_twoprimes(*need("u", "v"))
    if family == FAMILY_BCH3_PARY:
        return bch3_pary_twoprimes(*need("p", "u", "v"))
    raise InvalidParameterError(f"unknown family {family!r}")


DiscrepancyRow = namedtuple("DiscrepancyRow", "index closed_count generic_count")


class DiscrepancyReport(namedtuple("DiscrepancyReport", "table generic mismatches")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def cross_check(table: ClosedFormTable) -> DiscrepancyReport:
    """Compare the normalized family table with the generic engine, per index.

    Missing keys on either side compare as count 0, so index-set disagreements
    surface as mismatched rows too.
    """
    generic = multiplicity_table(table.spec)
    normalized = table.normalized()
    keys = sorted(set(normalized) | set(generic.entries))
    mismatches = tuple(
        DiscrepancyRow(k, normalized.get(k, 0), generic.entries.get(k, 0))
        for k in keys
        if normalized.get(k, 0) != generic.entries.get(k, 0)
    )
    return DiscrepancyReport(table=table, generic=generic, mismatches=mismatches)
