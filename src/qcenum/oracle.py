"""Brute-force ground truth for the symbolic engines.

Builds literal trace-representation subcodes over an explicit field, measures
their true shift indices by shifting generator rows, and tallies every
subspace tuple per index; enumeration.tabulate applies the counting
conventions to that tally, as it does to the symbolic fold.  The data are
plain tuples of ints: a subspace is the tuple of its RREF basis elements, ()
the zero space, and a subcode is the tuple of its RREF generator rows.  A row
is a word of length N = q^n - 1 packed into an int, one lane per digit: bit k
for q = 2, reduced by XOR; byte k for odd q, reduced lane-parallel by bignum
arithmetic and a bytes.translate through a mod-q table.  It is shifted by a
masked rotate.  _reduce and _extend are the one row-space helper pair: a walk
row-reduces the words of each head, the spaces of every zero but the last,
once, and build_subcode extends a copy by each last space's words.  The
trace form is evaluated in one place, _trace_row, which caches each word as a
row, so a walk over one field builds each word once.

The word of a coefficient tuple is F_p-linear in the tuple, because the trace
is, so three checks are exact ranks over the s n basis tuples and visit no
subspace: verify_distinctness and verify_trace_nondegeneracy need the basis
words to have rank s n, and verify_shift_lemma needs the differences of the
two sides of the lemma to have rank 0.  Only measured_histogram walks.

Each check (measured_histogram, verify_distinctness,
verify_trace_nondegeneracy, verify_shift_lemma) first calls oracle_field, the
one admission check: a caller's field must be F_{q^n} of the spec, q must be
prime, q^n within the cap and q within a byte lane; the field is then the
caller's or a new F_{q^n}.  The default cap keeps fields at desk scale; raise
it per call with cap=, the one way to set it.  The walk budget bounds the
walk, in _walk: there are subspace_total(n, q) subspaces and (that + 1)^s
subspace tuples, a walk costs its tuple count times its lane width in bits,
and one costing more than WALK_BUDGET is refused before it enumerates a
subspace, whatever the cap.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product

from .counting import subspace_total
from .enumeration import DEFAULT_OPTIONS, EnumerationOptions, IndexTable, tabulate
from .gf import ExtField, build_field
from .numth import CodeSpec, InvalidParameterError, factorize, is_prime

DEFAULT_ORACLE_CAP = 256
# the most one walk may cost, in lane bits: its tuples times its lane width,
# 1 bit over F_2 and 8 over odd q, where a tuple takes 3-10 times as long
WALK_BUDGET = 1 << 20
MAX_LANE_PRIME = 127  # largest odd p whose lane sums, below 2(p - 1), fit a byte


class CapExceededError(InvalidParameterError):
    """A requested field or walk is larger than the configured cap or budget."""


def oracle_field(
    spec: CodeSpec, cap: int = DEFAULT_ORACLE_CAP, field: ExtField | None = None
) -> ExtField:
    """The field a check runs over, once the check is admitted: the caller's
    field, which must be F_{q^n} of the spec, or else build_field(q, n).

    q must be prime, q^n within cap and q within a byte lane.
    """
    q, n = spec.q, spec.n
    if field is not None and (field.p, field.m) != (q, n):
        raise InvalidParameterError(f"field F_{field.p}^{field.m} is not F_{q}^{n} of the spec")
    if not is_prime(q):
        raise InvalidParameterError(f"the explicit-field oracle supports prime q only, got q = {q}")
    if q**n > cap:
        raise CapExceededError(f"q^n = {q**n} exceeds the oracle cap {cap}")
    if q > MAX_LANE_PRIME:
        raise InvalidParameterError(
            f"the oracle packs digits into byte lanes, which hold q <= {MAX_LANE_PRIME} only, "
            f"got q = {q}"
        )
    return field if field is not None else build_field(q, n)


# -- rows: words of length N over F_p, packed into ints ------------------------
#
# Digit k of a row sits in lane k of an int: bit k for p = 2, reduced by XOR;
# byte k, little-endian, for odd p, where all digits are reduced together by
# bignum arithmetic and one bytes.translate through a mod-p table.  A sum is
# translated before any lane reaches 256: row + (p - f) * prow stays below
# p(p - 1), which is under 256 up to p = 13; from p = 17 up to MAX_LANE_PRIME
# prow is first translated through the table of multiplication by p - f, so
# the sum stays below 2(p - 1).  A row's lead is its lowest nonzero lane, and
# pivot rows are keyed by their lead: the lead bit itself for p = 2, the lead
# lane's bit offset 8c for odd p.  Sorting the keys sorts the leads.


@lru_cache(maxsize=None)
def _lane_tables(p: int) -> tuple[bytes, tuple[bytes, ...]]:
    """For odd p, the byte-lane tables x -> x mod p and, for each c < p,
    x -> c * x mod p."""
    mod = bytes(x % p for x in range(256))
    return mod, tuple(bytes(c * x % p for x in range(256)) for c in range(p))


def _translate(row: int, table: bytes) -> int:
    """The row with every byte lane mapped through table (table[0] is 0)."""
    lanes = row.to_bytes((row.bit_length() + 7) >> 3, "little")
    return int.from_bytes(lanes.translate(table), "little")


def _reduce(p: int, pivots: dict, row: int) -> int:
    """Reduce a row against RREF pivot rows; the result has no pivot column set.

    The row comes back unchanged when no pivot column is set.
    """
    if p == 2:
        for lead, prow in pivots.items():
            if row & lead:
                row ^= prow
        return row
    mod, mul = _lane_tables(p)
    for offset, prow in pivots.items():
        f = row >> offset & 255
        if f:
            # row - f * prow, lane by lane, with no lane reaching 256
            if p * (p - 1) < 256:
                row += (p - f) * prow
            else:
                row += _translate(prow, mul[p - f])
            row = _translate(row, mod)
    return row


def _minus(p: int, row: int, prow: int) -> int:
    """row - prow, lane by lane: XOR for p = 2; for odd p, row plus prow
    translated through the table of multiplication by p - 1, a sum below
    2(p - 1) in every lane, translated mod p."""
    if p == 2:
        return row ^ prow
    mod, mul = _lane_tables(p)
    return _translate(row + _translate(prow, mul[p - 1]), mod)


def _lead_key(p: int, row: int) -> int:
    """The key of a nonzero row among pivot rows: its lead bit for p = 2,
    else the bit offset of its lead lane."""
    low = row & -row
    return low if p == 2 else (low.bit_length() - 1) & ~7


def _shift(p: int, N: int, row: int, ell: int) -> int:
    """The row shifted literally by ell places, word position k moving to
    k + ell mod N: a masked rotate by ell lanes."""
    width = 1 if p == 2 else 8
    bits, total = width * ell, width * N
    return ((row << bits) | (row >> (total - bits))) & ((1 << total) - 1)


def _extend(p: int, pivots: dict, rows) -> None:
    """Add rows to RREF pivot rows in place, keyed by lead; sorting the items
    by key gives the canonical reduced row-echelon basis of the span.

    Each new pivot row is reduced against the earlier ones and scaled to lead
    1; the earlier ones are then reduced against it, so the pivot rows stay
    reduced throughout.
    """
    for row in rows:
        row = _reduce(p, pivots, row)
        if not row:
            continue
        key = _lead_key(p, row)
        if p == 2:
            for c, prow in pivots.items():
                if prow & key:
                    pivots[c] = prow ^ row
        else:
            lead = row >> key & 255
            if lead != 1:
                row = _translate(row, _lane_tables(p)[1][pow(lead, -1, p)])
            new = {key: row}
            for c, prow in pivots.items():
                if prow >> key & 255:
                    pivots[c] = _reduce(p, new, prow)
        pivots[key] = row


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


# more than the distinct words of any walk the default cap and the walk budget
# admit: at most 676, at (13, 2, [1, 2, 3, 4])
@lru_cache(maxsize=1024)
def _trace_row(field: ExtField, exponent: int, coeff: int) -> int:
    """The row of the word k -> trace(coeff * alpha^(k * exponent)), of length
    N = field.order; the one place the trace form is evaluated."""
    if coeff == 0:
        return 0
    N = field.order
    exp_table, trace_table = field.exp, field.traces
    e = field.log[coeff]
    step = exponent % N
    word = []
    for _ in range(N):
        word.append(trace_table[exp_table[e]])
        e += step
        if e >= N:
            e -= N
    if field.p == 2:
        return sum(1 << k for k, bit in enumerate(word) if bit)
    return int.from_bytes(bytes(word), "little")


def _head_pivots(field: ExtField, spec: CodeSpec, head) -> dict:
    """The pivot rows, keyed as in _extend, of the trace words of every basis
    element of head[j] at zero j, head holding the spaces of the first zeros."""
    pivots: dict = {}
    words = [_trace_row(field, i, b) for i, basis in zip(spec.zeros, head) for b in basis]
    _extend(spec.q, pivots, words)
    return pivots


def build_subcode(field: ExtField, spec: CodeSpec, spaces, base: dict | None = None) -> tuple:
    """RREF rows of the span of the trace words of every basis element of
    spaces[j] at zero j.

    base is _head_pivots of every space but the last, and is built here when
    not given.  It is copied, never changed, and the copy is extended by the
    last space's words only, so a walk builds each head's base once for all
    its last spaces.  RREF is canonical, so the rows are those of a rebuild
    from every word.
    """
    if base is None:
        base = _head_pivots(field, spec, spaces[:-1])
    pivots = dict(base)
    i = spec.zeros[-1]
    _extend(spec.q, pivots, [_trace_row(field, i, b) for b in spaces[-1]])
    return tuple([pivots[key] for key in sorted(pivots)])


def qc_index(spec: CodeSpec, rows) -> int:
    """Smallest ell such that the ell-fold cyclic shift maps the code with RREF
    rows into itself.

    The invariance shifts form a subgroup dZ/N of Z/N, and the answer is its
    generator d, a divisor of N.  It is found by prime descent: start from
    d = N and, for each prime r | N, divide d by r while the (d/r)-shift
    still maps the code into itself, which takes at most Omega(N) + omega(N)
    shift tests.  Checking shift-closure of a generating set suffices: each
    row is shifted literally by _shift, word position k moving to k + ell
    mod N, and a shifted row lies in the code when it reduces to zero
    against the rows.
    """
    if not rows:
        raise InvalidParameterError("the zero code has no shift index")
    q, N = spec.q, spec.N
    pivots = {_lead_key(q, row): row for row in rows}
    d = N
    for r, _ in factorize(N):
        while d % r == 0 and all(not _reduce(q, pivots, _shift(q, N, row, d // r)) for row in rows):
            d //= r
    return d


def _walk(field: ExtField, spec: CodeSpec, tally: dict) -> None:
    """One pass over every tuple of subspaces, the zero space included, and
    its subcode, tallying each tuple's index into tally.

    The tuples come in product order, nested: each head, the spaces of every
    zero but the last, has its pivots built once, which build_subcode extends
    by each last space in turn.  A walk whose tuples times lane width exceeds
    WALK_BUDGET is refused before any subspace is enumerated.
    """
    tuples = (subspace_total(spec.n, spec.q) + 1) ** spec.s
    width = 1 if spec.q == 2 else 8
    if tuples * width > WALK_BUDGET:
        raise CapExceededError(
            f"(subspace_total(n, q) + 1)^s = {tuples} subspace tuples cost {tuples * width} "
            f"lane bits ({width} a tuple), over the walk budget {WALK_BUDGET}"
        )
    choices = [()] + list(enumerate_subspaces(field))
    for head in product(choices, repeat=spec.s - 1):
        base = _head_pivots(field, spec, head)
        for last in choices:
            spaces = head + (last,)
            rows = build_subcode(field, spec, spaces, base)
            # the zero tuple is read from the spaces, not the rows: taking the
            # rows would assume the distinctness and nondegeneracy this oracle
            # checks; the zero code is fixed by every shift
            ell = 1 if not any(spaces) else qc_index(spec, rows)
            tally[ell] = tally.get(ell, 0) + 1


def measured_histogram(
    spec: CodeSpec,
    options: EnumerationOptions = DEFAULT_OPTIONS,
    cap: int = DEFAULT_ORACLE_CAP,
    field: ExtField | None = None,
) -> IndexTable:
    """Measure qc_index over every subspace tuple, tally per index, and
    tabulate the tally under the symbolic engine's counting conventions.

    The full tuple is measured like any other; the zero tuple, whose code has
    no shift index, is tallied at 1.
    """
    field = oracle_field(spec, cap, field)
    tally: dict[int, int] = {}
    _walk(field, spec, tally)
    return tabulate(spec, tally, options)


# -- checks by linearity ---------------------------------------------------------
#
# The word of a coefficient tuple (b_j), k -> trace(sum_j b_j alpha^(k i_j)),
# is F_p-linear in the tuple, so each check below is a rank over the s n basis
# tuples, which set b_j = p^r at one zero j, for r < n, and 0 at the others:
# an exact count over all p^(s n) tuples, never a sample.


def _basis(field: ExtField, spec: CodeSpec) -> list[tuple[int, int]]:
    """The zero i_j and the coefficient p^r of each basis tuple."""
    return [(i, field.p**r) for i in spec.zeros for r in range(field.m)]


def _rank(p: int, rows) -> int:
    """The dimension of the span of rows."""
    pivots: dict = {}
    _extend(p, pivots, rows)
    return len(pivots)


def _word_rank(field: ExtField, spec: CodeSpec) -> int:
    """The rank of the words of the basis tuples, s n when only the zero
    tuple has the zero word."""
    return _rank(field.p, [_trace_row(field, i, b) for i, b in _basis(field, spec)])


class DistinctnessReport(namedtuple("DistinctnessReport", "total_tuples distinct_codes")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.total_tuples == self.distinct_codes


def verify_distinctness(
    spec: CodeSpec, cap: int = DEFAULT_ORACLE_CAP, field: ExtField | None = None
) -> DistinctnessReport:
    """Check that distinct subspace tuples give distinct subcodes (as row spaces).

    The subcode of (V_j) is the image of the direct sum of the V_j under the
    word map.  When the map is injective, distinct sums have distinct images,
    so all total_tuples codes are distinct.  A nonzero kernel vector (c_j)
    makes two tuples collide: (<c_j>)_j, and the same tuple with its first
    nonzero space made zero.  So distinct_codes is total_tuples when the word
    rank is s n and None otherwise; no tuple is visited.
    """
    field = oracle_field(spec, cap, field)
    total = (subspace_total(spec.n, spec.q) + 1) ** spec.s
    return DistinctnessReport(total, total if _word_rank(field, spec) == spec.s * spec.n else None)


class NondegeneracyReport(namedtuple("NondegeneracyReport", "checked annihilators")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        # only the all-zero coefficient tuple may annihilate every evaluation point
        return self.annihilators == 1


def verify_trace_nondegeneracy(
    spec: CodeSpec, cap: int = DEFAULT_ORACLE_CAP, field: ExtField | None = None
) -> NondegeneracyReport:
    """Count the coefficient tuples whose word is zero, which should be the
    zero tuple alone: the kernel of the word map, p^(s n - rank) of the
    p^(s n) tuples."""
    field = oracle_field(spec, cap, field)
    dim = spec.s * spec.n
    return NondegeneracyReport(field.p**dim, field.p ** (dim - _word_rank(field, spec)))


class ShiftLemmaReport(namedtuple("ShiftLemmaReport", "checked mismatches")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def verify_shift_lemma(
    spec: CodeSpec,
    cap: int = DEFAULT_ORACLE_CAP,
    field: ExtField | None = None,
    *,
    samples: int | None = None,
) -> ShiftLemmaReport:
    """Check that the one-step cyclic shift of the word of (b_j) is the word of
    (b_j * alpha^(-i_j)), and count the tuples where it is not.

    Both sides are linear in the tuple, so their difference is too: the
    matching tuples are its kernel, p^(s n - rank) of the p^(s n), rank being
    that of the differences on the basis tuples.  samples is ignored: it is
    kept because bench/workloads.py still passes it, until ROADMAP item 10
    drops it there.
    """
    field = oracle_field(spec, cap, field)
    p, N = field.p, field.order
    diffs = [
        _minus(
            p,
            _shift(p, N, _trace_row(field, i, b), 1),
            _trace_row(field, i, field.mul(b, field.pow(field.alpha, -i))),
        )
        for i, b in _basis(field, spec)
    ]
    dim = spec.s * spec.n
    return ShiftLemmaReport(p**dim, p**dim - p ** (dim - _rank(p, diffs)))
