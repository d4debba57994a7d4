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
row, so a walk over one field builds each word once; the shift check and the
nondegeneracy check sum those rows (a coefficient tuple annihilates when its
row is zero).  The two sampled checks draw their coefficient tuples from one
pool, _coefficient_tuples.

Everything here is exhaustive, so runs are bounded twice.  The cap bounds the
field size q^n.  Each check (measured_histogram, verify_distinctness,
walk_subcodes, verify_trace_nondegeneracy, verify_shift_lemma) first calls
oracle_field, the one admission check: a caller's field must be F_{q^n} of the
spec, q must be prime, q^n within the cap and q within a byte lane; the field
is then the caller's or a new F_{q^n}.  The default cap keeps fields at desk
scale; raise it per call with cap=, the one way to set it.
The walk budget bounds the work, in _walk: there are subspace_total(n, q)
subspaces and (that + 1)^s subspace tuples, a walk costs its tuple count times
its lane width in bits, and one costing more than WALK_BUDGET is refused
before it enumerates a subspace, whatever the cap.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product

from .counting import subspace_total
from .enumeration import DEFAULT_OPTIONS, EnumerationOptions, IndexTable, tabulate
from .gf import ExtField, build_field
from .numth import CodeSpec, InvalidParameterError, factorize, is_prime

DEFAULT_ORACLE_CAP = 256
SEED = 20240915  # seeds every sampled check, so a run is reproducible
NONDEGENERACY_SAMPLE_LIMIT = 1 << 14  # above this many tuples, sample
NONDEGENERACY_SAMPLES = 200
SHIFT_SAMPLE_LIMIT = 1 << 12  # above this many tuples, sample
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


def _code_row(field: ExtField, zeros, coeffs) -> int:
    """The row of the codeword k -> trace(sum_j coeffs[j] * alpha^(k * zeros[j])):
    the lane-wise sum of the trace rows of its terms."""
    p = field.p
    total = 0
    for i, b in zip(zeros, coeffs):
        row = _trace_row(field, i, b)
        total = total ^ row if p == 2 else _translate(total + row, _lane_tables(p)[0])
    return total


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


def _walk(field: ExtField, spec: CodeSpec, tally: dict | None, seen: dict | None):
    """One pass over every tuple of subspaces, the zero space included, and
    its subcode.  Tallies each tuple's index into tally and keys seen on each
    subcode's rows, each when given; returns the tuple count and the
    colliding pairs of tuples.

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
    collisions = []
    total = 0
    for head in product(choices, repeat=spec.s - 1):
        base = _head_pivots(field, spec, head)
        for last in choices:
            spaces = head + (last,)
            rows = build_subcode(field, spec, spaces, base)
            total += 1
            if tally is not None:
                # the zero tuple is read from the spaces, not the rows: taking
                # the rows would assume the distinctness and nondegeneracy this
                # oracle checks; the zero code is fixed by every shift
                ell = 1 if not any(spaces) else qc_index(spec, rows)
                tally[ell] = tally.get(ell, 0) + 1
            if seen is not None:
                if rows in seen:
                    collisions.append((seen[rows], spaces))
                else:
                    seen[rows] = spaces
    return total, tuple(collisions)


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
    _walk(field, spec, tally, None)
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
    spec: CodeSpec, cap: int = DEFAULT_ORACLE_CAP, field: ExtField | None = None
) -> DistinctnessReport:
    """Check that distinct subspace tuples give distinct subcodes (as row spaces)."""
    field = oracle_field(spec, cap, field)
    seen: dict[tuple, tuple] = {}
    total, collisions = _walk(field, spec, None, seen)
    return DistinctnessReport(total, len(seen), collisions)


def walk_subcodes(
    spec: CodeSpec, cap: int = DEFAULT_ORACLE_CAP, field: ExtField | None = None
) -> tuple[IndexTable, DistinctnessReport]:
    """measured_histogram and verify_distinctness from one walk over the tuples."""
    field = oracle_field(spec, cap, field)
    tally: dict[int, int] = {}
    seen: dict[tuple, tuple] = {}
    total, collisions = _walk(field, spec, tally, seen)
    return tabulate(spec, tally), DistinctnessReport(total, len(seen), collisions)


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
    spec: CodeSpec, cap: int = DEFAULT_ORACLE_CAP, field: ExtField | None = None
) -> NondegeneracyReport:
    """Confirm that only the zero coefficient tuple gives the zero codeword.

    Exhaustive up to NONDEGENERACY_SAMPLE_LIMIT tuples; above that it
    spot-checks NONDEGENERACY_SAMPLES random nonzero tuples, which must all
    fail to annihilate.
    """
    field = oracle_field(spec, cap, field)
    pool = list(
        _coefficient_tuples(field, spec.s, NONDEGENERACY_SAMPLE_LIMIT, NONDEGENERACY_SAMPLES)
    )
    annihilators = sum(not _code_row(field, spec.zeros, c) for c in pool)
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
    cap: int = DEFAULT_ORACLE_CAP,
    field: ExtField | None = None,
) -> ShiftLemmaReport:
    """Check that the one-step cyclic shift of the word of (b_j) is the word of
    (b_j * alpha^(-i_j)).

    Exhaustive up to SHIFT_SAMPLE_LIMIT tuples; above that it checks samples
    seeded random nonzero tuples.  samples must be at least 1 on either path,
    so that a sampled check cannot pass vacuously and a bad count is never
    silently ignored.
    """
    field = oracle_field(spec, cap, field)
    if samples < 1:
        raise InvalidParameterError(f"samples = {samples} must be at least 1")
    total = field.size**spec.s
    planned = total if total <= SHIFT_SAMPLE_LIMIT else samples
    scale = [field.pow(field.alpha, -i) for i in spec.zeros]
    checked = 0
    mismatches = 0
    for coeffs in _coefficient_tuples(field, spec.s, SHIFT_SAMPLE_LIMIT, samples):
        shifted = _shift(field.p, field.order, _code_row(field, spec.zeros, coeffs), 1)
        scaled = tuple(field.mul(b, s) for b, s in zip(coeffs, scale))
        if shifted != _code_row(field, spec.zeros, scaled):
            mismatches += 1
        checked += 1
    assert checked == planned
    return ShiftLemmaReport(checked=checked, mismatches=mismatches)
