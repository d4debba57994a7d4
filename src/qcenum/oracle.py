"""Brute-force ground truth for the symbolic engines.

Builds literal trace-representation subcodes over an explicit field, measures
their true shift indices by shifting generators, and tallies.  Everything here
is exhaustive, so runs are capped: with q^n field elements there are
subspace_total(n, q) subspaces and (that + 1)^s subcode choices.  The default
cap keeps runs at desk scale; raise it per call or via the QCENUM_ORACLE_CAP
environment variable.
"""

import os
import random
from dataclasses import dataclass
from itertools import combinations, product

from .enumeration import DEFAULT_OPTIONS, EnumerationOptions, IndexTable
from .gf import CapExceededError, DEFAULT_BUILD_CAP, ExtField, build_field
from .numth import CodeSpec, InvalidParameterError, divisors_of, is_prime

DEFAULT_ORACLE_CAP = 256
ENV_CAP = "QCENUM_ORACLE_CAP"


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
    return build_field(spec.q, spec.n, cap=max(limit, DEFAULT_BUILD_CAP))


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


def _pivot_map(rref_rows) -> dict[int, tuple[int, ...]]:
    out = {}
    for row in rref_rows:
        lead = next(idx for idx, v in enumerate(row) if v)
        out[lead] = row
    return out


def _in_span(p: int, pivots: dict[int, tuple[int, ...]], row) -> bool:
    return not any(_reduce(p, pivots, row))


# -- subspaces ----------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """An F_p-subspace of F_{p^m}, basis elements whose coordinate rows form an
    RREF matrix (pivots ascending).  An empty basis is the zero space."""

    field: ExtField
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def elements(self) -> set[int]:
        field = self.field
        out = {0}
        for b in self.basis:
            multiples = [0]
            cur = 0
            for _ in range(field.p - 1):
                cur = field.add(cur, b)
                multiples.append(cur)
            out = {field.add(x, mult) for x in out for mult in multiples}
        return out


def subspace_spanned(field: ExtField, elements) -> Subspace:
    """The subspace generated by arbitrary field elements, in canonical form."""
    rows = _rref(field.p, [field.coeffs(x) for x in elements])
    return Subspace(field, tuple(field.from_coeffs(r) for r in rows))


def enumerate_subspaces(field: ExtField, cap: int | None = None):
    """Yield every nonzero subspace exactly once, by dimension then
    lexicographic RREF matrix.

    For each dimension and each ascending pivot-column set, the non-pivot
    cells to the right of each pivot range over F_p; this produces each RREF
    matrix exactly once.
    """
    _check_cap(field.p, field.m, cap)
    n, p = field.m, field.p
    for k in range(1, n + 1):
        batch = []
        for pivots in combinations(range(n), k):
            pivot_set = set(pivots)
            free = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivot_set
            ]
            for fill in product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for r, c in zip(range(k), pivots):
                    rows[r][c] = 1
                for (r, c), v in zip(free, fill):
                    rows[r][c] = v
                batch.append(tuple(tuple(r) for r in rows))
        for mat in sorted(batch):
            yield Subspace(field, tuple(field.from_coeffs(r) for r in mat))


def maximal_field_of(space: Subspace) -> int:
    """Largest divisor d of m with the subspace closed under F_{p^d}-scaling.

    Closure under multiplication by a generator of F_{p^d}* suffices, since
    the space is already an F_p-space and F_p adjoined that generator is the
    whole subfield.
    """
    if space.dim == 0:
        raise InvalidParameterError("the zero space is defined over every subfield")
    field = space.field
    rows = [field.coeffs(b) for b in space.basis]
    pivots = _pivot_map(rows)
    for d in sorted(divisors_of(field.m), reverse=True):
        g = field.subfield_generator(d)
        if all(
            _in_span(field.p, pivots, field.coeffs(field.mul(g, b)))
            for b in space.basis
        ):
            return d
    raise AssertionError("unreachable: d = 1 always closes")


def classify_all_subspaces(field: ExtField, cap: int | None = None) -> dict[int, int]:
    """Histogram of maximal_field_of over every nonzero subspace."""
    out: dict[int, int] = {}
    for space in enumerate_subspaces(field, cap):
        d = maximal_field_of(space)
        out[d] = out.get(d, 0) + 1
    return {d: out[d] for d in sorted(out)}


# -- trace-representation codes ----------------------------------------------


@dataclass(frozen=True)
class TraceCode:
    """A subcode in canonical form: RREF generator rows over F_q, length N."""

    spec: CodeSpec
    spaces: tuple[Subspace, ...]
    generator: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.generator)


def _trace_word(field: ExtField, exponent: int, coeff: int, N: int) -> tuple[int, ...]:
    """The length-N word k -> trace(coeff * alpha^(k * exponent))."""
    if coeff == 0:
        return (0,) * N
    exp_table, log_table = field.exp, field.log
    trace = field.trace
    e = log_table[coeff]
    step = exponent % field.order
    out = []
    for _ in range(N):
        out.append(trace(exp_table[e]))
        e += step
        if e >= field.order:
            e -= field.order
    return tuple(out)


def code_word(field: ExtField, zeros, coeffs) -> tuple[int, ...]:
    """The single codeword k -> trace(sum_j coeffs[j] * alpha^(k * zeros[j]))."""
    N = field.order if field.order > 0 else 1
    p = field.p
    total = [0] * N
    for i, b in zip(zeros, coeffs):
        word = _trace_word(field, i, b, N)
        total = [(a + w) % p for a, w in zip(total, word)]
    return tuple(total)


def build_subcode(
    field: ExtField, spec: CodeSpec, spaces, cap: int | None = None
) -> TraceCode:
    """Span of the trace words of all basis elements across all zeros."""
    _check_cap(spec.q, spec.n, cap)
    rows = []
    for i, space in zip(spec.zeros, spaces):
        for b in space.basis:
            rows.append(_trace_word(field, i, b, spec.N))
    return TraceCode(spec=spec, spaces=tuple(spaces), generator=_rref(spec.q, rows))


def qc_index(code: TraceCode) -> int:
    """Smallest ell such that the ell-fold cyclic shift maps the code into itself.

    The invariance shifts form a subgroup of Z/N, so the answer is a divisor
    of N and checking shift-closure of a generating set suffices.
    """
    gen = code.generator
    if not gen:
        raise InvalidParameterError("the zero code has no shift index")
    p = code.spec.q
    pivots = _pivot_map(gen)
    for ell in divisors_of(code.spec.N):
        if all(_in_span(p, pivots, row[-ell:] + row[:-ell]) for row in gen):
            return ell
    raise AssertionError("unreachable: the N-shift is the identity")


def measured_histogram(
    spec: CodeSpec,
    options: EnumerationOptions = DEFAULT_OPTIONS,
    cap: int | None = None,
    field: ExtField | None = None,
) -> IndexTable:
    """Measure qc_index over every subspace tuple and tally per index.

    Applies the same conventions as the symbolic engine: optional exclusion
    of the zero code and of the code itself, and separate reporting of
    full-length (index N) measurements.
    """
    if field is None:
        field = oracle_field(spec, cap)
    else:
        _check_cap(spec.q, spec.n, cap)
    choices = [Subspace(field, ())] + list(enumerate_subspaces(field, cap))
    entries = {1: 0}
    index_n = 0
    for tup in product(choices, repeat=spec.s):
        dims = [space.dim for space in tup]
        if all(d == 0 for d in dims):
            if not options.exclude_zero_code:
                entries[1] += 1  # the zero code is fixed by every shift
            continue
        if options.exclude_full_code and all(d == field.m for d in dims):
            continue
        ell = qc_index(build_subcode(field, spec, tup, cap=cap))
        if ell == spec.N and options.report_index_n:
            index_n += 1
        else:
            entries[ell] = entries.get(ell, 0) + 1
    entries = {k: entries[k] for k in sorted(entries)}
    return IndexTable(
        spec=spec, entries=entries, index_n_count=index_n, options=options
    )


# -- verification reports ------------------------------------------------------


@dataclass(frozen=True)
class DistinctnessReport:
    total_tuples: int
    distinct_codes: int
    collisions: tuple = ()

    @property
    def ok(self) -> bool:
        return self.total_tuples == self.distinct_codes


def verify_distinctness(
    spec: CodeSpec, cap: int | None = None, field: ExtField | None = None
) -> DistinctnessReport:
    """Check that distinct subspace tuples give distinct subcodes (as row spaces)."""
    if field is None:
        field = oracle_field(spec, cap)
    choices = [Subspace(field, ())] + list(enumerate_subspaces(field, cap))
    seen: dict[tuple, tuple] = {}
    collisions = []
    total = 0
    for tup in product(choices, repeat=spec.s):
        total += 1
        gen = build_subcode(field, spec, tup, cap=cap).generator
        key = tuple(space.basis for space in tup)
        if gen in seen:
            collisions.append((seen[gen], key))
        else:
            seen[gen] = key
    return DistinctnessReport(
        total_tuples=total, distinct_codes=len(seen), collisions=tuple(collisions)
    )


@dataclass(frozen=True)
class NondegeneracyReport:
    checked: int
    annihilators: int
    exhaustive: bool

    @property
    def ok(self) -> bool:
        # only the all-zero coefficient tuple may annihilate every evaluation point
        return self.annihilators == 1 if self.exhaustive else self.annihilators == 0


def _eval_form(field: ExtField, exponents, coeffs, x: int) -> int:
    total = 0
    for i, b in zip(exponents, coeffs):
        total = field.add(total, field.mul(b, field.pow(x, i)))
    return total


def _annihilates(field: ExtField, exponents, coeffs) -> bool:
    return all(
        field.trace(_eval_form(field, exponents, coeffs, x)) == 0
        for x in range(field.size)
    )


def trace_annihilators(field: ExtField, exponents) -> list[tuple[int, ...]]:
    """Exhaustive list of coefficient tuples whose trace form vanishes everywhere."""
    exponents = list(exponents)
    return [
        coeffs
        for coeffs in product(range(field.size), repeat=len(exponents))
        if _annihilates(field, exponents, coeffs)
    ]


def verify_trace_nondegeneracy(
    spec: CodeSpec,
    cap: int | None = None,
    field: ExtField | None = None,
    sample_limit: int = 1 << 14,
    samples: int = 200,
    seed: int = 20240915,
) -> NondegeneracyReport:
    """Confirm that only the zero coefficient tuple gives the zero codeword.

    Exhaustive when the tuple space is small; above sample_limit it spot-checks
    random nonzero tuples, which must all fail to annihilate.
    """
    if field is None:
        field = oracle_field(spec, cap)
    total = field.size**spec.s
    if total <= sample_limit:
        count = len(trace_annihilators(field, spec.zeros))
        return NondegeneracyReport(checked=total, annihilators=count, exhaustive=True)
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        coeffs = [0] * spec.s
        while not any(coeffs):
            coeffs = [rng.randrange(field.size) for _ in range(spec.s)]
        if _annihilates(field, spec.zeros, coeffs):
            bad += 1
    return NondegeneracyReport(checked=samples, annihilators=bad, exhaustive=False)


@dataclass(frozen=True)
class ShiftLemmaReport:
    checked: int
    mismatches: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def verify_shift_lemma(
    spec: CodeSpec,
    samples: int = 100,
    cap: int | None = None,
    field: ExtField | None = None,
    seed: int = 20240915,
) -> ShiftLemmaReport:
    """Check that the one-step cyclic shift of the word of (b_j) is the word of
    (b_j * alpha^(-i_j)).

    Exhaustive over small coefficient spaces, seeded random sampling above;
    a sampled check needs at least one sample, so that it cannot pass vacuously.
    """
    if field is None:
        field = oracle_field(spec, cap)
    total = field.size**spec.s
    if total <= 4096:
        pool = product(range(field.size), repeat=spec.s)
        planned = total
    else:
        if samples < 1:
            raise InvalidParameterError(f"samples = {samples} must be at least 1")
        rng = random.Random(seed)
        pool = (
            tuple(rng.randrange(field.size) for _ in range(spec.s))
            for _ in range(samples)
        )
        planned = samples
    scale = [field.pow(field.alpha, -i) for i in spec.zeros]
    checked = 0
    mismatches = 0
    for coeffs in pool:
        word = code_word(field, spec.zeros, coeffs)
        shifted = word[-1:] + word[:-1]
        scaled = tuple(field.mul(b, s) for b, s in zip(coeffs, scale))
        if shifted != code_word(field, spec.zeros, scaled):
            mismatches += 1
        checked += 1
    assert checked == planned
    return ShiftLemmaReport(checked=checked, mismatches=mismatches)
