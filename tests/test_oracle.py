"""Explicit-field brute force against the symbolic engines."""

import gc
import random
from itertools import product

import pytest

from qcenum import cli, oracle
from qcenum.counting import maximal_counts, subspace_total
from qcenum.enumeration import EnumerationOptions, multiplicity_table
from qcenum.gf import build_field
from qcenum.index_calc import index_contribution, subfield_index
from qcenum.numth import CodeSpec, InvalidParameterError, factorize, is_prime, validate_spec
from qcenum.oracle import (
    CapExceededError,
    DEFAULT_ORACLE_CAP,
    WALK_BUDGET,
    build_subcode,
    enumerate_subspaces,
    measured_histogram,
    oracle_field,
    qc_index,
    verify_distinctness,
    verify_shift_lemma,
    verify_trace_nondegeneracy,
)
from reference import (
    classify_all_subspaces,
    code_word,
    digit_qc_index,
    digit_subcode,
    elements,
    grand_total,
    literal_collisions,
    maximal_field_of,
    packed,
    primitive_elements,
    reduce_digits,
    rref_digits,
    rref_rows,
    smallest_irreducible_field,
    subfield,
    subspace_spanned,
    trace_annihilators,
    unpacked,
    with_alpha,
)


def test_enumerate_subspaces_counts():
    assert sum(1 for _ in enumerate_subspaces(build_field(2, 4))) == 66
    assert sum(1 for _ in enumerate_subspaces(build_field(3, 2))) == 5
    assert sum(1 for _ in enumerate_subspaces(build_field(2, 6))) == 2824


def test_enumerate_subspaces_unique_and_complete():
    for p, m in [(2, 4), (3, 2), (5, 2)]:
        field = build_field(p, m)
        seen = set()
        dims = {}
        for basis in enumerate_subspaces(field):
            assert subspace_spanned(field, basis) == basis  # canonical RREF form
            elems = frozenset(elements(field, basis))
            assert elems not in seen
            seen.add(elems)
            assert len(elems) == p ** len(basis)
            dims[len(basis)] = dims.get(len(basis), 0) + 1
        from reference import gaussian_binomial

        assert dims == {
            k: gaussian_binomial(m, k, p) for k in range(1, m + 1)
        }


def test_subspace_spanned_canonicalizes():
    field = build_field(2, 4)
    a = field.alpha
    b = field.add(a, field.mul(a, a))
    s1 = subspace_spanned(field, [a, field.mul(a, a)])
    s2 = subspace_spanned(field, [field.mul(a, a), b, a])
    assert s1 == s2
    assert len(s1) == 2
    assert subspace_spanned(field, [0]) == ()


def test_maximal_field_of_known_cases():
    field = build_field(2, 4)
    assert maximal_field_of(field, subspace_spanned(field, [1])) == 1
    assert maximal_field_of(field, subspace_spanned(field, [1, field.alpha])) == 1
    sub4 = subspace_spanned(field, list(subfield(field, 2)))
    assert maximal_field_of(field, sub4) == 2
    whole = subspace_spanned(field, list(range(16)))
    assert maximal_field_of(field, whole) == 4
    with pytest.raises(InvalidParameterError):
        maximal_field_of(field, ())


def test_classify_matches_moebius_counts():
    cases = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 7) if p**m <= 64]
    assert (2, 6) in cases and (7, 2) in cases
    for p, m in cases:
        field = build_field(p, m)
        assert classify_all_subspaces(field) == maximal_counts(m, p).counts, (p, m)


def test_qc_index_single_zero_matches_contribution():
    # with one dual zero the index is the contribution of the subspace's
    # maximal field, measured directly on the explicit code
    for q, n, zero in [(2, 4, 1), (3, 2, 1), (3, 2, 2), (2, 3, 1)]:
        spec = validate_spec(q, n, [zero])
        field = oracle_field(spec)
        for basis in enumerate_subspaces(field):
            d = maximal_field_of(field, basis)
            expect = index_contribution(zero, subfield_index(q, n, d))
            rows = build_subcode(field, spec, [basis])
            assert qc_index(spec, rows) == expect, (q, n, zero, basis)


def test_qc_index_known_cases():
    spec = validate_spec(2, 4, [1])
    field = oracle_field(spec)
    sub4 = subspace_spanned(field, list(subfield(field, 2)))
    assert qc_index(spec, build_subcode(field, spec, [sub4])) == 5
    one = subspace_spanned(field, [1])
    assert qc_index(spec, build_subcode(field, spec, [one])) == 15
    mixed = subspace_spanned(field, [1, field.alpha])
    assert qc_index(spec, build_subcode(field, spec, [mixed])) == 15
    whole = subspace_spanned(field, list(range(16)))
    assert qc_index(spec, build_subcode(field, spec, [whole])) == 1
    with pytest.raises(InvalidParameterError):
        qc_index(spec, build_subcode(field, spec, [()]))


def test_subcode_dimension_is_sum_of_space_dimensions():
    spec = validate_spec(2, 4, [1, 3])
    field = oracle_field(spec)
    spaces = [()] + list(enumerate_subspaces(field))
    rng = random.Random(7)
    for _ in range(120):
        tup = [rng.choice(spaces), rng.choice(spaces)]
        rows = build_subcode(field, spec, tup)
        assert len(rows) == sum(len(basis) for basis in tup)


@pytest.mark.parametrize(
    "q, n, zeros, samples",
    # every tuple of the small specs, a seeded sample of the larger ones; at
    # q = 13 lane sums reach 13 * 12 before a translate, at q = 17 each
    # subtraction takes the multiply-table translate first
    [
        (2, 4, [1], None),
        (2, 3, [1, 3], None),
        (2, 5, [1], None),
        (2, 6, [1], 300),
        (2, 4, [1, 3], 300),
        (3, 3, [1, 2], 300),
        (13, 2, [1, 2], None),
        (17, 2, [1], None),
    ],
)
def test_rows_match_the_digit_reference(q, n, zeros, samples):
    # rows packed one digit per lane, bits reduced by XOR at q = 2 and bytes
    # reduced lane-parallel at odd q, and shifted by a masked rotate, give the
    # subcode and index that digit lists reduced and rotated literally give
    spec = validate_spec(q, n, zeros)
    field = oracle_field(spec, cap=300)  # admits 17^2
    tuples = list(product([()] + list(enumerate_subspaces(field)), repeat=spec.s))
    if samples is not None:
        tuples = random.Random(11).sample(tuples, samples)
    for spaces in tuples:
        rows = build_subcode(field, spec, spaces)
        assert all(isinstance(row, int) for row in rows)
        digits = digit_subcode(field, spec, spaces)
        assert tuple(unpacked(row, spec.N, q) for row in rows) == digits, spaces
        if any(spaces):
            assert qc_index(spec, rows) == digit_qc_index(spec, digits), spaces


@pytest.mark.parametrize("p", [p for p in range(3, 128) if is_prime(p)])
def test_lanes_hold_at_their_bounds(p):
    # with every free lane at p - 1, row + (p - f) * prow reaches p(p - 1) at
    # f = 1, the most a lane meets up to p = 13; from p = 17 the translated
    # multiple plus the row reaches 2(p - 1), 252 at p = 127
    N, top = 7, p - 1
    pivot_rows = [(1, top, top, 0, top, top, top), (0, 0, 0, 1, top, top, top)]
    pivots = {0: pivot_rows[0], 3: pivot_rows[1]}
    rng = random.Random(p)
    rows = [
        (top,) * N,  # lead p - 1, scaled by its inverse
        (1,) + (top,) * (N - 1),
        (0,) + (top,) * (N - 1),
        *pivot_rows,
        *(tuple(rng.choice((top, rng.randrange(p))) for _ in range(N)) for _ in range(6)),
    ]
    packed_pivots = {8 * c: packed(row, p) for c, row in pivots.items()}
    for row in rows:
        got = oracle._reduce(p, packed_pivots, packed(row, p))
        assert unpacked(got, N, p) == tuple(reduce_digits(p, pivots, row)), row
    # the fixed rows span a space with free columns, so the echelon form is
    # not the identity
    fixed = rows[:5]
    got = rref_rows(p, [packed(row, p) for row in fixed])
    assert tuple(unpacked(row, N, p) for row in got) == rref_digits(p, fixed)
    assert 1 < len(got) < N


def test_primes_past_the_byte_lanes_are_refused():
    spec = validate_spec(131, 2, [1])
    with pytest.raises(InvalidParameterError, match="byte lanes"):
        oracle_field(spec, cap=131**2)
    with pytest.raises(InvalidParameterError, match="byte lanes"):
        verify_shift_lemma(spec, cap=131**2, field=build_field(131, 2))


@pytest.mark.parametrize(
    "q, n, zeros",
    # N = 63 = 3^2 * 7 and N = 80 = 2^4 * 5 repeat a prime, so the descent
    # divides by one prime more than once
    [(2, 4, [1, 3]), (3, 3, [1, 2]), (5, 2, [1, 2]), (2, 6, [1]), (3, 4, [1])],
)
def test_prime_descent_matches_the_ascending_reference(q, n, zeros, monkeypatch):
    spec = validate_spec(q, n, zeros)
    field = oracle_field(spec)
    shift = oracle._shift
    tested = []
    monkeypatch.setattr(
        oracle, "_shift", lambda p, N, row, ell: tested.append(ell) or shift(p, N, row, ell)
    )
    factors = factorize(spec.N)
    most_tests = sum(e for _, e in factors) + len(factors)  # Omega(N) + omega(N)
    seen = set()
    for spaces in product([()] + list(enumerate_subspaces(field)), repeat=spec.s):
        if not any(spaces):
            continue
        rows = build_subcode(field, spec, spaces)
        digits = tuple(unpacked(row, spec.N, q) for row in rows)
        tested.clear()
        ell = qc_index(spec, rows)
        assert ell == digit_qc_index(spec, digits), spaces
        # each test shifts the first row first, by a new amount
        assert 1 <= len(set(tested)) <= most_tests, spaces
        seen.add(ell)
    # some index lies below a repeated prime power of N
    repeated = [r for r, e in factors if e > 1]
    assert not repeated or any(spec.N // ell % (r * r) == 0 for ell in seen for r in repeated)


@pytest.mark.parametrize(
    "q, n, zeros",
    # three zeros give two-space heads; at q = 17 each subtraction takes the
    # multiply-table translate first
    [(2, 4, [1, 3]), (2, 4, [1, 3, 7]), (3, 3, [1, 2]), (5, 2, [1, 2]), (17, 2, [1, 2])],
)
def test_nested_walk_matches_the_rebuild(q, n, zeros, monkeypatch):
    # every tuple's rows, extended from its head's base, are the rows rebuilt
    # from all of its words; the walk visits every tuple once, in product
    # order, so its tally is that of a walk that rebuilds each
    spec = validate_spec(q, n, zeros)
    field = oracle_field(spec, cap=300)  # admits 17^2
    order = product([()] + list(enumerate_subspaces(field)), repeat=spec.s)
    want_tally = {}
    build = oracle.build_subcode

    def rebuilt(field, spec, spaces, base):
        assert spaces == next(order)
        rows = build(field, spec, spaces, base)
        want = rref_rows(
            q, [oracle._trace_row(field, i, b) for i, basis in zip(zeros, spaces) for b in basis]
        )
        assert rows == want, spaces
        ell = qc_index(spec, want) if any(spaces) else 1
        want_tally[ell] = want_tally.get(ell, 0) + 1
        return rows

    monkeypatch.setattr(oracle, "build_subcode", rebuilt)
    tally = {}
    oracle._walk(field, spec, tally)
    assert next(order, None) is None
    assert sum(tally.values()) == grand_total(spec)
    assert tally == want_tally


@pytest.mark.parametrize("q, n, zeros", [(2, 4, [1, 3]), (3, 3, [1, 2])])
def test_a_walk_leaves_no_cyclic_garbage(q, n, zeros):
    # reference counting frees all a walk builds; a self-referencing closure,
    # such as a recursive generator of heads, leaves a cycle per walk for the
    # collector, and the garbage raises peak RSS
    spec = validate_spec(q, n, zeros)
    gc.collect()
    gc.disable()
    try:
        measured_histogram(spec)
        verify_distinctness(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("q, n, zeros", [(2, 4, [1, 3]), (3, 2, [1, 2]), (3, 3, [1])])
def test_one_walk_gives_both_checks(q, n, zeros, monkeypatch, capsys):
    # distinctness is read from the rank of the basis words and builds no
    # subcode, so `verify` builds each tuple's subcode once, for the histogram
    spec = validate_spec(q, n, zeros)
    total = grand_total(spec)
    built = []
    build = oracle.build_subcode
    monkeypatch.setattr(oracle, "build_subcode", lambda *args: built.append(1) or build(*args))
    distinct = verify_distinctness(spec)
    assert distinct.ok and distinct.total_tuples == total
    assert not built
    argv = ["verify", "--q", str(q), "--n", str(n), "--zeros", ",".join(map(str, zeros))]
    assert cli.main(argv) == 0
    assert len(built) == total
    assert f"distinct codes: {total} of {total} tuples: PASS" in capsys.readouterr().out


def test_simplex_words_have_weight_eight():
    # every nonzero codeword of the length-15 simplex code has weight 8
    spec = validate_spec(2, 4, [1])
    field = oracle_field(spec)
    for b in range(1, 16):
        word = code_word(field, [1], [b])
        assert sum(word) == 8


def test_subfield_coefficient_space_gives_three_word_code():
    # coefficients from F_4: a 2-dimensional code, all weights 8, index 5
    spec = validate_spec(2, 4, [1])
    field = oracle_field(spec)
    sub4 = subspace_spanned(field, list(subfield(field, 2)))
    rows = build_subcode(field, spec, [sub4])
    assert len(rows) == 2
    words = set()
    for b in subfield(field, 2):
        if b:
            words.add(code_word(field, [1], [b]))
    third = tuple((a + b) % 2 for a, b in zip(*sorted(words)[:2]))
    words.add(third)
    assert len(words) == 3
    for w in words:
        assert sum(w) == 8
        # the 5-shift permutes the codewords; it need not fix each one
        assert w[-5:] + w[:-5] in words
    assert qc_index(spec, rows) == 5


MEASURED_SPECS = [
    (2, 4, [1]),
    (3, 2, [1]),
    (3, 2, [1, 2]),
    (2, 4, [1, 3]),
    (2, 7, [1]),
]


@pytest.mark.parametrize("q, n, zeros", MEASURED_SPECS)
def test_measured_histogram_matches_symbolic(q, n, zeros):
    spec = validate_spec(q, n, zeros)
    measured = measured_histogram(spec)
    symbolic = multiplicity_table(spec)
    assert measured.entries == symbolic.entries
    assert measured.index_n_count == symbolic.index_n_count


ALL_OPTIONS = [
    EnumerationOptions(exclude_zero_code=z, exclude_full_code=f, report_index_n=r)
    for z, f, r in product((True, False), repeat=3)
]


@pytest.mark.parametrize("opts", ALL_OPTIONS)
@pytest.mark.parametrize(
    "q, n, zeros",
    # at q = 2 the full-length bucket is nonzero, so report_index_n matters
    [(3, 2, [1]), (3, 2, [1, 2]), (2, 4, [1]), (2, 3, [1, 3])],
)
def test_measured_histogram_respects_options(q, n, zeros, opts):
    spec = validate_spec(q, n, zeros)
    measured = measured_histogram(spec, opts)
    symbolic = multiplicity_table(spec, opts)
    assert measured.entries == symbolic.entries
    assert measured.index_n_count == symbolic.index_n_count
    if not (opts.exclude_zero_code or opts.exclude_full_code or opts.report_index_n):
        # with every convention flipped, each of the (T+1)^s tuples is an entry
        assert sum(measured.entries.values()) == (subspace_total(n, q) + 1) ** spec.s


def test_distinctness_counts():
    report = verify_distinctness(validate_spec(2, 4, [1]))
    assert (report.total_tuples, report.distinct_codes) == (67, 67)
    assert report.ok
    report = verify_distinctness(validate_spec(3, 2, [1, 2]))
    assert (report.total_tuples, report.distinct_codes) == (36, 36)
    report = verify_distinctness(validate_spec(2, 4, [1, 3]))
    assert (report.total_tuples, report.distinct_codes) == (4489, 4489)


@pytest.mark.parametrize(
    "spec",
    # the last one is not validated: exponent 5 has a coset of size 2 mod 15,
    # so the word map has a kernel and two tuples share a code
    [
        validate_spec(2, 4, [1]),
        validate_spec(3, 2, [1, 2]),
        validate_spec(2, 4, [1, 3]),
        CodeSpec(2, 4, (1, 5), 15),
    ],
    ids=str,
)
def test_distinctness_matches_literal_collisions(spec):
    # the rank of the basis words against every subcode built and compared
    field = oracle_field(spec)
    report = verify_distinctness(spec, field=field)
    collisions = literal_collisions(field, spec)
    assert report.ok == (not collisions)
    assert report.total_tuples == grand_total(spec)
    if spec.zeros == (1, 5):
        assert collisions and not report.ok and report.distinct_codes is None


@pytest.mark.parametrize("q, n, zeros", [(2, 6, [1, 3]), (3, 3, [1, 2, 4, 5])])
def test_distinctness_needs_no_walk(q, n, zeros, monkeypatch):
    # both specs are over the walk budget, which the rank does not meet
    def unreachable(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(oracle, "enumerate_subspaces", unreachable)
    monkeypatch.setattr(oracle, "build_subcode", unreachable)
    spec = validate_spec(q, n, zeros)
    report = verify_distinctness(spec)
    assert report.ok and report.total_tuples == grand_total(spec)


# measured_histogram is the one check that walks
@pytest.mark.parametrize("walk", [measured_histogram])
@pytest.mark.parametrize(
    "q, n, zeros, cap, tuples",
    # under the cap on q^n, over the walk budget; a raised cap does not help;
    # a tuple of byte-lane rows at odd q costs 8 lane bits
    [
        (2, 6, [1, 3], DEFAULT_ORACLE_CAP, 7980625),
        (2, 9, [1], 512, 8283458),
        (5, 2, [1, 2, 3, 4, 7, 8], DEFAULT_ORACLE_CAP, 262144),
        (11, 2, [1, 2, 3, 4, 5], DEFAULT_ORACLE_CAP, 537824),
        (3, 3, [1, 2, 4, 5], DEFAULT_ORACLE_CAP, 614656),
    ],
)
def test_walk_over_the_limit_is_refused_up_front(walk, q, n, zeros, cap, tuples, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(oracle, "enumerate_subspaces", unreachable)
    monkeypatch.setattr(oracle, "build_subcode", unreachable)
    with pytest.raises(CapExceededError, match=f"{tuples} subspace tuples"):
        walk(validate_spec(q, n, zeros), cap=cap)


@pytest.mark.parametrize(
    "q, n, zeros, tuples",
    [
        (2, 8, [1], 417199),
        (2, 4, [1, 3, 7], 300763),
        (13, 2, [1, 2, 3, 4], 65536),
        (7, 2, [1, 2, 3, 4, 5], 100000),
    ],
)
def test_walk_under_the_limit_is_admitted(q, n, zeros, tuples, monkeypatch):
    spec = validate_spec(q, n, zeros)
    assert grand_total(spec) == tuples <= WALK_BUDGET // (1 if q == 2 else 8)
    # with no subspaces to yield, the admitted walk visits the zero tuple alone
    monkeypatch.setattr(oracle, "enumerate_subspaces", lambda field: iter(()))
    tally = {}
    oracle._walk(oracle_field(spec), spec, tally)
    assert tally == {1: 1}


@pytest.mark.parametrize("q, n, tuples", [(2, 4, WALK_BUDGET), (3, 2, WALK_BUDGET // 8)])
def test_walk_at_the_budget_is_admitted_and_one_tuple_more_refused(q, n, tuples, monkeypatch):
    # one zero, so a walk has subspace_total + 1 tuples, costing exactly
    # WALK_BUDGET lane bits at 1 bit a tuple over F_2 and 8 over odd q
    spec = validate_spec(q, n, [1])
    field = oracle_field(spec)
    monkeypatch.setattr(oracle, "enumerate_subspaces", lambda field: iter(()))
    monkeypatch.setattr(oracle, "subspace_total", lambda n, q: tuples - 1)
    tally = {}
    oracle._walk(field, spec, tally)
    assert tally == {1: 1}
    monkeypatch.setattr(oracle, "subspace_total", lambda n, q: tuples)
    with pytest.raises(CapExceededError, match=f"{tuples + 1} subspace tuples"):
        oracle._walk(field, spec, {})


def test_trace_nondegeneracy_exhaustive():
    spec = validate_spec(2, 4, [1, 3])
    report = verify_trace_nondegeneracy(spec)
    assert report.checked == 256
    assert report.annihilators == 1  # the zero tuple only
    assert report.ok


def test_trace_nondegeneracy_sampled_path():
    # 64^3 coefficient tuples, which the check once sampled, all counted
    spec = validate_spec(2, 6, [1, 3, 5])
    report = verify_trace_nondegeneracy(spec)
    assert report.checked == 64**3
    assert report.annihilators == 1
    assert report.ok


def test_short_coset_exponent_has_extra_annihilators():
    # exponent 5 mod 15, 9 mod 63 and 10 mod 80 have cosets shorter than n:
    # each form x -> Tr(b x^i) is degenerate, which is exactly why such zeros
    # are rejected upstream; the rank counts the annihilators of those
    # unvalidated specs as the exhaustive reference does
    for q, n, zeros, annihilators in [(2, 4, (1, 5), 4), (2, 6, (1, 9), 8), (3, 4, (1, 10), 9)]:
        field = build_field(q, n)
        assert len(trace_annihilators(field, zeros)) == annihilators
        assert len(trace_annihilators(field, zeros[:1])) == 1
        report = verify_trace_nondegeneracy(CodeSpec(q, n, zeros, q**n - 1), field=field)
        assert report == (field.size**2, annihilators) and not report.ok


def test_shift_lemma_exhaustive_and_sampled():
    report = verify_shift_lemma(validate_spec(2, 4, [1, 3]))
    assert report.checked == 256 and report.ok
    report = verify_shift_lemma(validate_spec(3, 2, [1, 2]))
    assert report.checked == 81 and report.ok
    # 64^3 coefficient tuples, which the check once sampled, all counted;
    # samples is accepted and ignored
    spec = validate_spec(2, 6, [1, 3, 5])
    report = verify_shift_lemma(spec)
    assert report.checked == 64**3 and report.ok
    assert verify_shift_lemma(spec, samples=50) == report


@pytest.mark.parametrize(
    "q, n, zeros",
    # bit lanes, and byte lanes at both ends of the lane arithmetic
    [(2, 4, [1, 3]), (3, 2, [1, 2]), (5, 2, [1, 2]), (17, 2, [1])],
)
def test_shift_lemma_counts_a_mutant_shift(q, n, zeros, monkeypatch):
    # with a shift by two places in place of one, the report counts the
    # tuples whose words disagree, as a brute force over every tuple does
    spec = validate_spec(q, n, zeros)
    field = oracle_field(spec, cap=300)  # admits 17^2
    shift = oracle._shift
    monkeypatch.setattr(oracle, "_shift", lambda p, N, row, ell: shift(p, N, row, 2 * ell))
    scale = [field.pow(field.alpha, -i) for i in spec.zeros]
    mismatches = 0
    for coeffs in product(range(field.size), repeat=spec.s):
        word = code_word(field, spec.zeros, coeffs)
        scaled = [field.mul(b, c) for b, c in zip(coeffs, scale)]
        mismatches += word[-2:] + word[:-2] != code_word(field, spec.zeros, scaled)
    report = verify_shift_lemma(spec, cap=300, field=field)
    assert report == (field.size**spec.s, mismatches) and not report.ok


def test_alpha_independence_of_measured_histogram():
    spec = validate_spec(2, 4, [1])
    base_field = oracle_field(spec)
    base = measured_histogram(spec, field=base_field)
    tried = 0
    for alpha in primitive_elements(base_field):
        if alpha == base_field.alpha:
            continue
        other = measured_histogram(spec, field=with_alpha(base_field, alpha))
        assert other.entries == base.entries
        assert other.index_n_count == base.index_n_count
        tried += 1
        if tried == 2:
            break
    assert tried == 2


@pytest.mark.parametrize("q, n, zeros", [(3, 2, [1, 2]), (5, 2, [1, 2]), (2, 8, [1])])
def test_checks_do_not_depend_on_the_modulus(q, n, zeros):
    # the field modulo the smallest irreducible polynomial, whose t is not
    # primitive here, against the canonical one modulo the smallest primitive
    # polynomial; the walk of (2, 8, [1]) takes seconds, so there only the
    # reports read from ranks are compared
    spec = validate_spec(q, n, zeros)
    other = smallest_irreducible_field(q, n)
    assert other.modulus != oracle_field(spec).modulus
    checks = [verify_distinctness, verify_trace_nondegeneracy, verify_shift_lemma]
    if (q, n) != (2, 8):
        checks.append(measured_histogram)
    for check in checks:
        assert check(spec, field=other) == check(spec), check.__name__


def test_oracle_field_rejects_prime_power_q():
    spec = validate_spec(4, 3, [1])
    with pytest.raises(InvalidParameterError):
        oracle_field(spec)


def test_cap_enforcement():
    spec = validate_spec(2, 10, [1])
    with pytest.raises(CapExceededError):
        oracle_field(spec)
    with pytest.raises(CapExceededError):
        measured_histogram(spec)
    # raising the cap explicitly permits the field build
    field = oracle_field(spec, cap=1024)
    assert field.size == 1024


FIELD_CHECKS = [
    measured_histogram,
    verify_distinctness,
    verify_trace_nondegeneracy,
    verify_shift_lemma,
]


@pytest.mark.parametrize("check", FIELD_CHECKS)
def test_checks_reject_a_field_of_another_spec(check):
    spec = validate_spec(2, 4, [1])
    for p, m in [(2, 3), (3, 2)]:
        with pytest.raises(InvalidParameterError):
            check(spec, field=build_field(p, m))


@pytest.mark.parametrize("check", FIELD_CHECKS)
def test_checks_reject_a_given_field_over_the_cap(check):
    spec = validate_spec(2, 10, [1])
    with pytest.raises(CapExceededError):
        check(spec, field=build_field(2, 10))


def test_cap_argument_unlocks_larger_fields():
    spec = validate_spec(2, 10, [1])
    with pytest.raises(CapExceededError):
        oracle_field(spec)
    assert oracle_field(spec, cap=1024).size == 1024
