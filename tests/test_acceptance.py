"""End-to-end acceptance gate: one test per shipped guarantee.

Each criterion prints exactly one "criterion N ...: PASS/FAIL" line
(visible with pytest -s, and in captured output on failure) and then
asserts, so a red run names the broken guarantee directly.
"""

import time

import pytest

import test_golden_tables as golden
from qcenum import cli
from qcenum.closed_form import cross_check, family_table
from qcenum.counting import (
    maximal_counts,
    maximal_counts_inclusion_exclusion,
    subspace_total,
)
from qcenum.enumeration import multiplicity_table
from qcenum.index_calc import index_contribution, subfield_index
from qcenum.numth import (
    DuplicateCosetError,
    InvalidParameterError,
    ShortCosetError,
    divisors_of,
    validate_spec,
)
from qcenum.oracle import (
    build_subcode,
    measured_histogram,
    oracle_field,
    qc_index,
    verify_distinctness,
)
from reference import (
    code_word,
    gaussian_binomial,
    primitive_elements,
    subfield,
    subspace_spanned,
    with_alpha,
)

CANDIDATE_ZEROS = {2: ((1,), (1, 3), (1, 3, 5)), 3: ((1,), (1, 2), (1, 2, 4))}

PRINTED_WORDS = {
    (0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1),
    (0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1),
}


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " [" + "; ".join(failures[:6]) + "]"
    print(f"criterion {num} ({label}): {status}{detail}")
    assert not failures, f"criterion {num} ({label}): {failures}"


def _sweep_specs(max_n):
    out = []
    for q, zero_lists in CANDIDATE_ZEROS.items():
        for n in range(2, max_n + 1):
            for zeros in zero_lists:
                try:
                    out.append(validate_spec(q, n, list(zeros)))
                except InvalidParameterError:
                    continue
    return out


def _golden_row_failures(q, n_values, rows):
    failures = []
    for n in n_values:
        for zeros in CANDIDATE_ZEROS[q]:
            try:
                validate_spec(q, n, list(zeros))
            except InvalidParameterError:
                continue  # combinations with short or repeated cosets are not tabulated
            start = time.monotonic()
            got = golden.expected_view(q, n, zeros)
            elapsed = time.monotonic() - start
            if got != rows[(n, zeros)]:
                failures.append(f"({q},{n},{list(zeros)}) mismatch")
            if elapsed >= 1.0:
                failures.append(f"({q},{n},{list(zeros)}) took {elapsed:.2f}s")
    return failures


def test_c1_binary_golden_rows():
    failures = _golden_row_failures(2, (6, 8, 9, 10, 12), golden.BINARY_ROWS)
    # spot-check the quoted guarantee values against the stored table
    if golden.BINARY_ROWS[(6, (1, 3, 5))] != {1: 6, 3: 36, 7: 168, 9: 1287, 21: 5468988}:
        failures.append("n=6 triple-zero row drifted")
    if golden.BINARY_ROWS[(12, (1, 3))][1365] != 276172787737667730:
        failures.append("n=12 double-zero 1365 entry drifted")
    _report(1, "binary golden rows", failures)


def test_c2_ternary_golden_rows():
    failures = _golden_row_failures(3, (4, 6, 8, 9), golden.TERNARY_ROWS)
    if golden.TERNARY_ROWS[(4, (1, 2))] != {1: 2, 5: 20, 10: 120, 20: 2400, 40: 42400}:
        failures.append("n=4 double-zero row drifted")
    _report(2, "ternary golden rows", failures)


def test_c3_closed_form_cross_check():
    start = time.monotonic()
    failures = []
    jobs = [("simplex", {"q": q, "n": n})
            for q in (2, 3)
            for n in (4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20)]
    jobs += [("bch2-binary-primepower", {"u": u, "a": a})
             for u, a in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2))]
    jobs += [("bch2-binary-twoprimes", {"u": u, "v": v})
             for u, v in ((2, 3), (2, 5), (3, 5))]
    jobs += [("bch3-pary-twoprimes", {"p": p, "u": u, "v": v})
             for p, u, v in ((3, 2, 3), (3, 2, 5), (5, 2, 3))]
    for family, params in jobs:
        report = cross_check(family_table(family, **params))
        if not report.ok:
            failures.append(f"{family} {params}: {len(report.mismatches)} mismatched rows")
    lit = family_table("bch2-binary-twoprimes", u=2, v=3).literal
    if (lit[3], lit[7], lit[9], lit[21]) != (18, 84, 99, 124194):
        failures.append("binary n=6 double-zero constants drifted")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _report(3, "closed forms vs generic engine", failures)


def test_c4_oracle_master():
    failures = []
    for q, n, zeros in ((2, 4, [1]), (2, 4, [1, 3]), (2, 6, [1]),
                        (3, 2, [1]), (3, 2, [1, 2])):
        spec = validate_spec(q, n, zeros)
        field = oracle_field(spec)
        measured = measured_histogram(spec, field=field)
        symbolic = multiplicity_table(spec)
        if measured.entries != symbolic.entries:
            failures.append(f"({q},{n},{zeros}) measured != symbolic")
        if measured.index_n_count != symbolic.index_n_count:
            failures.append(f"({q},{n},{zeros}) index-N diagnostic differs")
        report = verify_distinctness(spec, field=field)
        if report.collisions:
            failures.append(f"({q},{n},{zeros}) {len(report.collisions)} collisions")
        if (q, n, tuple(zeros)) == (2, 4, (1, 3)) and report.distinct_codes != 4489:
            failures.append(f"expected 4489 distinct codes, got {report.distinct_codes}")
    _report(4, "oracle master", failures)


def test_c5_subfield_image_reproduction():
    start = time.monotonic()
    failures = []
    spec = validate_spec(2, 4, [1])
    field = oracle_field(spec)
    quartic = sorted(b for b in subfield(field, 2) if b != 0)
    words = {code_word(field, [1], [b]) for b in quartic}
    if len(words) != 3:
        failures.append(f"expected 3 nonzero codewords, got {len(words)}")
    if any(sum(w) != 8 for w in words):
        failures.append("codeword weights differ from 8")
    if any(w[-5:] + w[:-5] not in words for w in words):
        failures.append("codeword set not closed under the 5-shift")
    sub4 = subspace_spanned(field, list(subfield(field, 2)))
    if qc_index(spec, build_subcode(field, spec, [sub4])) != 5:
        failures.append("qc_index != 5")
    hits = [alpha for alpha in primitive_elements(field)
            if {code_word(with_alpha(field, alpha), [1], [b]) for b in quartic}
            == PRINTED_WORDS]
    if not hits:
        failures.append("no primitive element reproduces the reference words")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _report(5, "subfield-image subcode reproduction", failures)


def test_c6_property_suites():
    start = time.monotonic()
    failures = []

    for q in (2, 3, 4, 5):
        for n in range(13):
            for k in range(n + 1):
                g = gaussian_binomial(n, k, q)
                if g != gaussian_binomial(n, n - k, q):
                    failures.append(f"symmetry [{n},{k}]_{q}")
                if n >= 1 and g != (gaussian_binomial(n - 1, k - 1, q)
                                    + q**k * gaussian_binomial(n - 1, k, q)):
                    failures.append(f"recurrence [{n},{k}]_{q}")

    for q in (2, 3):
        for n in range(1, 25):
            counts = maximal_counts(n, q).counts
            if sum(counts.values()) != subspace_total(n, q):
                failures.append(f"partition identity q={q} n={n}")
            if counts != maximal_counts_inclusion_exclusion(n, q).counts:
                failures.append(f"moebius vs inclusion-exclusion q={q} n={n}")

    for spec in _sweep_specs(12):
        table = multiplicity_table(spec)
        budget = (subspace_total(spec.n, spec.q) + 1) ** spec.s
        if sum(table.entries.values()) + table.index_n_count + 2 != budget:
            failures.append(f"accounting ({spec.q},{spec.n},s={spec.s})")
        if table.entries[1] != 2**spec.s - 2:
            failures.append(f"index-1 count ({spec.q},{spec.n},s={spec.s})")

    for spec in _sweep_specs(15):
        table = multiplicity_table(spec)
        if any(spec.N % k for k in table.entries):
            failures.append(f"index not dividing N ({spec.q},{spec.n},s={spec.s})")

    for q in (2, 3, 4, 5):
        n = 2
        while q**n <= 2**12:
            N = q**n - 1
            bad = sum(
                1
                for d in divisors_of(n)
                for i in range(1, N)
                if index_contribution(i * q % N, subfield_index(q, n, d))
                != index_contribution(i, subfield_index(q, n, d))
            )
            if bad:
                failures.append(f"coset invariance q={q} n={n}: {bad} violations")
            n += 1

    spec = validate_spec(2, 4, [1])
    base_field = oracle_field(spec)
    base = measured_histogram(spec, field=base_field)
    others = [a for a in primitive_elements(base_field) if a != base_field.alpha]
    if len(others) < 2:
        failures.append("fewer than 2 alternative primitive elements")
    for alpha in others[:2]:
        other = measured_histogram(spec, field=with_alpha(base_field, alpha))
        if other.entries != base.entries or other.index_n_count != base.index_n_count:
            failures.append(f"alpha={alpha} changes the oracle histogram")

    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _report(6, "property suites", failures)


def test_c7_negative_paths(capsys):
    failures = []
    try:
        validate_spec(2, 4, [1, 3, 5])
        failures.append("short coset accepted")
    except ShortCosetError:
        pass
    try:
        validate_spec(2, 4, [3, 6])
        failures.append("repeated coset accepted")
    except DuplicateCosetError:
        pass
    code = cli.main(["closed-form", "--family", "bch2-binary-primepower",
                     "--u", "2", "--a", "2"])
    if code != 2:
        failures.append(f"closed-form (2,2) exited {code}, expected 2")
    code = cli.main(["verify", "--q", "2", "--n", "10", "--zeros", "1"])
    if code != 2:
        failures.append(f"verify (2,10,[1]) at default cap exited {code}, expected 2")
    capsys.readouterr()  # drop the CLI error chatter before reporting
    _report(7, "negative paths", failures)
