"""Brute-force ground truth for the symbolic engines.

Builds literal trace-representation subcodes over an explicit field, measures
their true shift indices by shifting generator rows, and tallies every
subspace tuple per index; enumeration.tabulate applies the counting
conventions to that tally, as it does to the symbolic fold.  The data are
plain tuples: a subspace is the tuple of its RREF basis elements, () the zero
space, and a subcode is the tuple of its RREF generator rows.  The trace form
is evaluated in one place, _trace_word: subcode rows, the shift check and the
nondegeneracy check (a coefficient tuple annihilates when its code_word is
zero) all read words built by it, and the two sampled checks draw their
coefficient tuples from one pool, _coefficient_tuples.

Everything here is exhaustive, so runs are bounded twice.  The cap bounds the
field size q^n: the four checks (measured_histogram, verify_distinctness,
verify_trace_nondegeneracy, verify_shift_lemma) either build F_{q^n} under the
cap or take a caller's field, which must be F_{q^n} and within the cap; the
cap is tested there and nowhere else.  The default cap keeps fields at desk
scale; raise it per call or via the QCENUM_ORACLE_CAP environment variable.
WALK_LIMIT bounds the work: there are subspace_total(n, q) subspaces and
(that + 1)^s subspace tuples, and the histogram and distinctness walks refuse
more than WALK_LIMIT tuples before they enumerate a subspace, whatever the cap.
"""

import os
from collections import namedtuple
from itertools import combinations, product

from .counting import subspace_total
from .enumeration import DEFAULT_OPTIONS, EnumerationOptions, IndexTable, tabulate
from .gf import CapExceededError, ExtField, build_field
from .numth import CodeSpec, InvalidParameterError, divisors_of, is_prime

DEFAULT_ORACLE_CAP = 256
ENV_CAP = "QCENUM_ORACLE_CAP"
SEED = 20240915  # seeds every sampled check, so a run is reproducible
NONDEGENERACY_SAMPLE_LIMIT = 1 << 14  # above this many tuples, sample
NONDEGENERACY_SAMPLES = 200
SHIFT_SAMPLE_LIMIT = 1 << 12  # above this many tuples, sample
WALK_LIMIT = 1 << 20  # most subspace tuples one histogram or distinctness walk visits


def effective_cap(cap: int | None = None) -> int:
    """Explicit argument wins, then the environment variable, then the default."""
    if cap is not None:
        return cap
    env = os.environ.get(ENV_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidParameterError(f"{ENV_CAP}={env!r} is not an integer") from None
    return DEFAULT_ORACLE_CAP


def _check_cap(q: int, n: int, cap: int | None) -> int:
    limit = effective_cap(cap)
    if q**n > limit:
        raise CapExceededError(f"q^n = {q**n} exceeds the oracle cap {limit}")
    return limit


def oracle_field(spec: CodeSpec, cap: int | None = None) -> ExtField:
    """The canonical explicit field F_{q^n} for a spec; requires prime q."""
    if not is_prime(spec.q):
        raise InvalidParameterError(
            f"the explicit-field oracle supports prime q only, got q = {spec.q}"
        )
    limit = _check_cap(spec.q, spec.n, cap)
    return build_field(spec.q, spec.n, cap=limit)


def _resolve_field(spec: CodeSpec, cap: int | None, field: ExtField | None) -> ExtField:
    """The field a check runs over: oracle_field(spec, cap), or the caller's
    field once it is shown to be F_{q^n} and within the cap."""
    if field is None:
        return oracle_field(spec, cap)
    if (field.p, field.m) != (spec.q, spec.n):
        raise InvalidParameterError(
            f"field F_{field.p}^{field.m} is not F_{spec.q}^{spec.n} of the spec"
        )
    _check_cap(field.p, field.m, cap)
    return field


# -- linear algebra over F_p on coordinate tuples ---------------------------


def _reduce(p: int, pivots: dict[int, tuple[int, ...]], row):
    """Reduce a row against RREF pivot rows; the result has no pivot column set.

    The row comes back unchanged, not copied, when no pivot column is set.
    """
    for c, prow in pivots.items():
        f = row[c]
        if f:
            row = [(a - f * b) % p for a, b in zip(row, prow)]
    return row


def _rref(p: int, rows) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row-echelon basis of the span of rows, pivots ascending."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = _reduce(p, pivots, row)
        lead = next((idx for idx, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        pivots[lead] = [v * inv % p for v in row]
    # a pivot row is zero left of its lead, so clearing it against the
    # already cleared rows with larger leads leaves every pivot column a unit
    cleared: dict[int, list[int]] = {}
    for c in sorted(pivots, reverse=True):
        cleared[c] = _reduce(p, cleared, pivots[c])
    return tuple(tuple(cleared[c]) for c in sorted(cleared))


# -- subspaces ----------------------------------------------------------------


def enumerate_subspaces(field: ExtField):
    """Yield every nonzero F_p-subspace exactly once, each as soon as it is
    built: by dimension, then ascending pivot-column set, then fill.

    A subspace is the tuple of its basis elements whose coordinate rows form
    an RREF matrix, pivots ascending.  It is built as an integer, its base-p
    digits being its coordinates: a pivot at column c adds p^c to its row,
    and a fill value v in cell (r, c) adds v * p^c to row r.

    For each dimension and each ascending pivot-column set, the non-pivot
    cells to the right of each pivot range over F_p in product order; this
    produces each RREF matrix exactly once.
    """
    n, p = field.m, field.p
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            leads = [p**c for c in pivots]
            free = [
                (r, p**c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots
            ]
            for fill in product(range(p), repeat=len(free)):
                rows = list(leads)
                for (r, weight), v in zip(free, fill):
                    rows[r] += v * weight
                yield tuple(rows)


# -- trace-representation codes ----------------------------------------------


def _trace_word(field: ExtField, exponent: int, coeff: int, N: int) -> tuple[int, ...]:
    """The length-N word k -> trace(coeff * alpha^(k * exponent))."""
    if coeff == 0:
        return (0,) * N
    exp_table, log_table, trace_table = field.exp, field.log, field.traces
    e = log_table[coeff]
    step = exponent % field.order
    out = []
    for _ in range(N):
        out.append(trace_table[exp_table[e]])
        e += step
        if e >= field.order:
            e -= field.order
    return tuple(out)


def code_word(field: ExtField, zeros, coeffs) -> tuple[int, ...]:
    """The single codeword k -> trace(sum_j coeffs[j] * alpha^(k * zeros[j]))."""
    N = field.order
    p = field.p
    total = [0] * N
    for i, b in zip(zeros, coeffs):
        word = _trace_word(field, i, b, N)
        total = [(a + w) % p for a, w in zip(total, word)]
    return tuple(total)


def build_subcode(field: ExtField, spec: CodeSpec, spaces) -> tuple[tuple[int, ...], ...]:
    """RREF rows of the span of the trace words of every basis element of
    spaces[j] at zero j."""
    rows = [
        _trace_word(field, i, b, spec.N)
        for i, basis in zip(spec.zeros, spaces)
        for b in basis
    ]
    return _rref(spec.q, rows)


def qc_index(spec: CodeSpec, rows) -> int:
    """Smallest ell such that the ell-fold cyclic shift maps the code with RREF
    rows into itself.

    The invariance shifts form a subgroup of Z/N, so the answer is a divisor
    of N and checking shift-closure of a generating set suffices.
    """
    if not rows:
        raise InvalidParameterError("the zero code has no shift index")
    # an RREF row is zero left of its lead entry, which is 1: its first 1 is the pivot
    pivots = {row.index(1): row for row in rows}
    for ell in divisors_of(spec.N):
        if all(not any(_reduce(spec.q, pivots, row[-ell:] + row[:-ell])) for row in rows):
            return ell
    raise AssertionError("unreachable: the N-shift is the identity")


def _subcodes(field: ExtField, spec: CodeSpec):
    """Every tuple of subspaces, the zero space included, with its subcode.

    A walk over more than WALK_LIMIT tuples is refused before any subspace is
    enumerated.
    """
    tuples = (subspace_total(spec.n, spec.q) + 1) ** spec.s
    if tuples > WALK_LIMIT:
        raise CapExceededError(
            f"(subspace_total(n, q) + 1)^s = {tuples} subspace tuples "
            f"exceed the walk limit {WALK_LIMIT}"
        )
    choices = [()] + list(enumerate_subspaces(field))
    for spaces in product(choices, repeat=spec.s):
        yield spaces, build_subcode(field, spec, spaces)


def measured_histogram(
    spec: CodeSpec,
    options: EnumerationOptions = DEFAULT_OPTIONS,
    cap: int | None = None,
    field: ExtField | None = None,
) -> IndexTable:
    """Measure qc_index over every subspace tuple, tally per index, and
    tabulate the tally under the symbolic engine's counting conventions.

    The full tuple is measured like any other; the zero tuple, whose code has
    no shift index, is tallied at 1.
    """
    field = _resolve_field(spec, cap, field)
    tally: dict[int, int] = {}
    for spaces, rows in _subcodes(field, spec):
        # the zero tuple is read from the spaces, not the rows: taking the
        # rows would assume the distinctness and nondegeneracy this oracle
        # checks; the zero code is fixed by every shift
        ell = 1 if not any(spaces) else qc_index(spec, rows)
        tally[ell] = tally.get(ell, 0) + 1
    return tabulate(spec, tally, options)


# -- verification reports ------------------------------------------------------


class DistinctnessReport(
    namedtuple("DistinctnessReport", "total_tuples distinct_codes collisions", defaults=((),))
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.total_tuples == self.distinct_codes


def verify_distinctness(
    spec: CodeSpec, cap: int | None = None, field: ExtField | None = None
) -> DistinctnessReport:
    """Check that distinct subspace tuples give distinct subcodes (as row spaces)."""
    field = _resolve_field(spec, cap, field)
    seen: dict[tuple, tuple] = {}
    collisions = []
    total = 0
    for spaces, rows in _subcodes(field, spec):
        total += 1
        if rows in seen:
            collisions.append((seen[rows], spaces))
        else:
            seen[rows] = spaces
    return DistinctnessReport(
        total_tuples=total, distinct_codes=len(seen), collisions=tuple(collisions)
    )


class NondegeneracyReport(namedtuple("NondegeneracyReport", "checked annihilators exhaustive")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        # only the all-zero coefficient tuple may annihilate every evaluation point
        return self.annihilators == 1 if self.exhaustive else self.annihilators == 0


def _coefficient_tuples(field: ExtField, s: int, limit: int, samples: int):
    """Every coefficient tuple of length s when there are at most limit of
    them, else samples seeded random nonzero tuples."""
    if field.size**s <= limit:
        yield from product(range(field.size), repeat=s)
        return
    import random  # here, not at the top: `import qcenum.cli` stays without it

    rng = random.Random(SEED)
    for _ in range(samples):
        coeffs = (0,) * s
        while not any(coeffs):
            coeffs = tuple(rng.randrange(field.size) for _ in range(s))
        yield coeffs


def verify_trace_nondegeneracy(
    spec: CodeSpec, cap: int | None = None, field: ExtField | None = None
) -> NondegeneracyReport:
    """Confirm that only the zero coefficient tuple gives the zero codeword.

    Exhaustive up to NONDEGENERACY_SAMPLE_LIMIT tuples; above that it
    spot-checks NONDEGENERACY_SAMPLES random nonzero tuples, which must all
    fail to annihilate.
    """
    field = _resolve_field(spec, cap, field)
    pool = list(
        _coefficient_tuples(field, spec.s, NONDEGENERACY_SAMPLE_LIMIT, NONDEGENERACY_SAMPLES)
    )
    annihilators = sum(not any(code_word(field, spec.zeros, c)) for c in pool)
    return NondegeneracyReport(
        checked=len(pool),
        annihilators=annihilators,
        exhaustive=field.size**spec.s <= NONDEGENERACY_SAMPLE_LIMIT,
    )


class ShiftLemmaReport(namedtuple("ShiftLemmaReport", "checked mismatches")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def verify_shift_lemma(
    spec: CodeSpec,
    samples: int = 100,
    cap: int | None = None,
    field: ExtField | None = None,
) -> ShiftLemmaReport:
    """Check that the one-step cyclic shift of the word of (b_j) is the word of
    (b_j * alpha^(-i_j)).

    Exhaustive up to SHIFT_SAMPLE_LIMIT tuples; above that it checks samples
    seeded random nonzero tuples.  samples must be at least 1 on either path,
    so that a sampled check cannot pass vacuously and a bad count is never
    silently ignored.
    """
    field = _resolve_field(spec, cap, field)
    if samples < 1:
        raise InvalidParameterError(f"samples = {samples} must be at least 1")
    total = field.size**spec.s
    planned = total if total <= SHIFT_SAMPLE_LIMIT else samples
    scale = [field.pow(field.alpha, -i) for i in spec.zeros]
    checked = 0
    mismatches = 0
    for coeffs in _coefficient_tuples(field, spec.s, SHIFT_SAMPLE_LIMIT, samples):
        word = code_word(field, spec.zeros, coeffs)
        shifted = word[-1:] + word[:-1]
        scaled = tuple(field.mul(b, s) for b, s in zip(coeffs, scale))
        if shifted != code_word(field, spec.zeros, scaled):
            mismatches += 1
        checked += 1
    assert checked == planned
    return ShiftLemmaReport(checked=checked, mismatches=mismatches)
