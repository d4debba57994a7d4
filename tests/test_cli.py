"""Command-line behavior: formats, exit codes, option plumbing."""

import functools
import json
import math

import pytest

from qcenum import cli, oracle
from qcenum.closed_form import ClosedFormTable, bch2_binary_twoprimes
from qcenum.enumeration import IndexTable, multiplicity_table
from qcenum.numth import factorize, validate_spec
from qcenum.oracle import DEFAULT_ORACLE_CAP
from reference import limited_factored_form, limited_factorize
from test_numth import FACTORIZE_VALUES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


DEFAULT_OPTIONS_JSON = {
    "exclude_full_code": True,
    "exclude_zero_code": True,
    "report_index_n": True,
}


def test_enumerate_human(capsys):
    code, out, err = run(
        capsys, "enumerate", "--q", "2", "--n", "6", "--zeros", "1,3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q=2 n=6 N=63 zeros=1,3 engine=generic"
    assert lines[1] == "[1,2], [3,18], [7,84], [9,99], [21,124194]"
    assert lines[2] == "full-length selections (lcm = N): 7856226"


def test_enumerate_csv(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--q", "2", "--n", "4", "--zeros", "1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["index,count", "1,0", "5,5"]


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--q", "2", "--n", "6", "--zeros", "1,3",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["q"] == 2 and record["N"] == 63
    assert record["table"][0] == {"index": 1, "count": "2"}
    assert record["index_N_count"] == "7856226"
    assert record["engine"] == "generic"
    # canonical serialization: parsing and re-dumping reproduces the bytes
    assert json.dumps(record, indent=2, sort_keys=True) == out.strip()


def test_enumerate_include_full(capsys):
    _, base_out, _ = run(capsys, "enumerate", "--q", "2", "--n", "6", "--zeros", "1")
    code, out, _ = run(
        capsys, "enumerate", "--q", "2", "--n", "6", "--zeros", "1", "--include-full"
    )
    assert code == 0
    assert "[1,0]" in base_out
    assert "[1,1]" in out


def test_enumerate_no_index_n(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--q", "2", "--n", "4", "--zeros", "1", "--no-index-n"
    )
    assert code == 0
    assert "[15,60]" in out
    assert "full-length" not in out


def test_enumerate_factored(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--q", "2", "--n", "6", "--zeros", "1,3", "--factored"
    )
    assert code == 0
    assert "[21,2*3*7*2957]" in out
    assert "[3,2*3^2]" in out


def test_factored_form_rules():
    assert cli.factored_form(12) == "2^2*3"
    assert cli.factored_form(97) == "97"
    assert cli.factored_form(1) is None
    # two large primes: trial division cannot certify, fall back
    assert cli.factored_form((10**9 + 7) * (10**9 + 9)) is None
    # one large certified-prime cofactor is fine
    assert cli.factored_form(2 * (10**9 + 7)) == "2*1000000007"


# the counts of the cli benchmark mix's --factored calls
CLI_MIX_FACTORED = ((2, 14, (1, 3)), (2, 60, (1, 3, 5)))

# around the largest trial prime 999983 and the certification bound 10^12
SIEVE_BOUNDARY = {
    999983**2: "999983^2",
    1000003**2: None,
    2 * 999983 * 1000003: "2*999983*1000003",
    999979 * 999983: "999979*999983",
    3**40 * 999983: "3^40*999983",
    2 * (10**12 + 39): None,
}


@functools.cache
def cli_mix_counts() -> tuple[int, ...]:
    return tuple(
        count
        for q, n, zeros in CLI_MIX_FACTORED
        for count in multiplicity_table(validate_spec(q, n, list(zeros))).entries.values()
    )


@functools.cache
def limited_forms(values: tuple[int, ...]) -> tuple:
    """(x, limited_factored_form(x)) per value: trial division over every odd
    number up to 10^6 takes seconds on the cli mix, so it runs once."""
    return tuple((x, limited_factored_form(x)) for x in values)


def factored_mismatches(values) -> list:
    """The values whose factored_form differs from the limited trial division."""
    return [(x, want) for x, want in limited_forms(tuple(values)) if cli.factored_form(x) != want]


def test_factored_form_on_the_cli_mix_counts():
    assert len(cli_mix_counts()) == 33
    assert factored_mismatches(cli_mix_counts()) == []


def test_factored_form_on_the_factorize_values():
    for m in FACTORIZE_VALUES:
        # the reference's limited result is the full factorization, or None
        # exactly when a part of m above the limit remains and is at least
        # limit^2 (trial division up to limit cannot certify it prime)
        fact = factorize(m)
        for limit in (1, 2, 3, 10, 100, 10**4, 10**6):
            cofactor = math.prod(p**e for p, e in fact if p > limit)
            expect = None if cofactor > 1 and cofactor >= limit**2 else fact
            assert limited_factorize(m, limit=limit) == expect, (m, limit)
    assert factored_mismatches(FACTORIZE_VALUES) == []


def test_factored_form_at_the_sieve_boundary():
    for x, want in SIEVE_BOUNDARY.items():
        assert limited_factored_form(x) == want, x
    assert factored_mismatches(SIEVE_BOUNDARY) == []


def test_factored_form_check_catches_a_short_sieve(monkeypatch):
    # a sieve that stops at 999979 misses the largest trial prime 999983
    primes = [p for p in cli._trial_primes() if p <= 999979]
    monkeypatch.setattr(cli, "_trial_primes", lambda: primes)
    assert any(
        factored_mismatches(values)
        for values in (cli_mix_counts(), FACTORIZE_VALUES, tuple(SIEVE_BOUNDARY))
    )


def test_indices_human(capsys):
    code, out, _ = run(capsys, "indices", "--q", "3", "--n", "4", "--zeros", "1,2")
    assert code == 0
    assert "indices: 1, 5, 10, 20, 40" in out
    assert "full-length lcm occurs: no" in out
    assert "d=2: 10 5" in out


def test_indices_json(capsys):
    code, out, _ = run(
        capsys, "indices", "--q", "2", "--n", "4", "--zeros", "1", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["index_set"] == [1, 5]
    assert record["excluded_N"] is True


def test_subspaces(capsys):
    code, out, _ = run(capsys, "subspaces", "--q", "2", "--n", "6")
    assert code == 0
    assert "d=1: 2772" in out
    assert "total: 2824" in out
    code, out, _ = run(capsys, "subspaces", "--q", "3", "--n", "4", "--format", "csv")
    assert out.splitlines() == ["d,count", "1,200", "2,10", "4,1"]


def test_closed_form_human_pass(capsys):
    code, out, _ = run(
        capsys, "closed-form", "--family", "bch2-binary-twoprimes", "--u", "2",
        "--v", "3",
    )
    assert code == 0
    assert "[21,124194]" in out
    assert "0 mismatches" in out


def test_closed_form_json(capsys):
    code, out, _ = run(
        capsys, "closed-form", "--family", "simplex", "--q", "2", "--n", "6",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["engine"] == "closed-form"
    assert record["options"] == DEFAULT_OPTIONS_JSON
    assert record["table"] == [
        {"index": 1, "count": "0"},
        {"index": 9, "count": "9"},
        {"index": 21, "count": "42"},
    ]
    assert record["index_N_count"] == "2772"


def test_closed_form_rejects_excluded_parameters(capsys):
    code, out, err = run(
        capsys, "closed-form", "--family", "bch2-binary-primepower", "--u", "2",
        "--a", "2",
    )
    assert code == 2
    assert "error: InvalidParameterError" in err


def test_closed_form_discrepancy_exits_three(capsys, monkeypatch):
    good = bch2_binary_twoprimes(2, 3)
    bad_literal = dict(good.literal)
    bad_literal[9] += 1

    def fake_family_table(family, **params):
        return ClosedFormTable(
            family=good.family, params=good.params, spec=good.spec,
            literal=bad_literal,
        )

    monkeypatch.setattr(cli, "family_table", fake_family_table)
    code, out, err = run(
        capsys, "closed-form", "--family", "bch2-binary-twoprimes", "--u", "2",
        "--v", "3",
    )
    assert code == 3
    assert "MISMATCH index=9" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--zeros", "1")
    assert code == 0
    assert out.splitlines()[0] == "verify q=2 n=4 zeros=1 (cap 256)"
    assert out.splitlines()[-1] == "PASS"
    assert "histogram match: PASS" in out
    assert "distinct codes: 67 of 67" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--q", "3", "--n", "2", "--zeros", "1,2",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["cap"] == DEFAULT_ORACLE_CAP
    assert record["ok"] is True
    assert record["histogram_match"] is True
    assert record["distinct_codes"] == 36
    assert record["measured"]["engine"] == "oracle"
    for side in ("measured", "symbolic"):
        assert record[side]["options"] == DEFAULT_OPTIONS_JSON
        assert record[side]["table"] == [
            {"index": 1, "count": "2"},
            {"index": 2, "count": "8"},
            {"index": 4, "count": "24"},
        ]
        assert record[side]["index_N_count"] == "0"
    # the cap reported is the cap admitted with
    code, out, _ = run(
        capsys, "verify", "--q", "17", "--n", "2", "--zeros", "1", "--cap", "300",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert (record["cap"], record["ok"]) == (300, True)


def test_verify_builds_its_field_once(capsys, monkeypatch):
    # cli builds the field and every check reuses it
    calls = []
    build = oracle.build_field

    def counted(p, m):
        calls.append((p, m))
        return build(p, m)

    monkeypatch.setattr(oracle, "build_field", counted)
    code, _, _ = run(capsys, "verify", "--q", "3", "--n", "2", "--zeros", "1,2")
    assert code == 0
    assert calls == [(3, 2)]


def test_verify_mismatch_exits_three(capsys, monkeypatch):
    def fake_walk(spec, cap=None, field=None):
        real = cli.multiplicity_table(spec)
        entries = dict(real.entries)
        entries[5] = entries.get(5, 0) + 1
        return IndexTable(
            spec=spec, entries=entries, index_n_count=real.index_n_count,
            options=real.options,
        )

    monkeypatch.setattr(cli, "measured_histogram", fake_walk)
    code, out, _ = run(capsys, "verify", "--q", "2", "--n", "4", "--zeros", "1")
    assert code == 3
    assert "histogram match: FAIL" in out
    assert out.splitlines()[-1] == "FAIL"


def test_verify_cap_exceeded_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--q", "2", "--n", "10", "--zeros", "1")
    assert code == 2
    assert "error: CapExceededError" in err


def test_verify_reads_no_environment(capsys, monkeypatch):
    argv = ("verify", "--q", "3", "--n", "2", "--zeros", "1")
    monkeypatch.delenv("QCENUM_ORACLE_CAP", raising=False)
    unset = run(capsys, *argv)
    assert unset[0] == 0
    for value in ("8", "many"):
        monkeypatch.setenv("QCENUM_ORACLE_CAP", value)
        assert run(capsys, *argv) == unset


def test_short_coset_exits_two(capsys):
    code, _, err = run(capsys, "enumerate", "--q", "2", "--n", "4", "--zeros", "1,3,5")
    assert code == 2
    assert "ShortCoset" in err


def test_duplicate_coset_exits_two(capsys):
    code, _, err = run(capsys, "enumerate", "--q", "2", "--n", "4", "--zeros", "3,6")
    assert code == 2
    assert "DuplicateCoset" in err


def test_bad_zeros_argument_exits_two(capsys):
    code, _, err = run(capsys, "enumerate", "--q", "2", "--n", "4", "--zeros", "1,x")
    assert code == 2


def test_missing_subcommand_exits_two(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
