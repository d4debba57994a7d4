"""Command-line front end.

Subcommands: indices, enumerate, closed-form, verify, subspaces.  Output goes
to stdout as human-readable text, CSV, or JSON (counts as decimal strings,
keys sorted); diagnostics go to stderr.  Exit codes: 0 success, 1 stdout
closed before the output was written (e.g. piped into head), 2 bad usage or
validation, 3 verification failure or closed-form discrepancy.
"""

import argparse
import itertools
import json
import math
import os
import sys
from functools import lru_cache

from .closed_form import FAMILIES, cross_check, family_table
from .counting import maximal_counts, subspace_total
from .enumeration import EnumerationOptions, IndexTable, multiplicity_table
from .index_calc import contribution_matrix, index_set
from .numth import CodeSpec, InvalidParameterError, prime_power_base, validate_spec
from .oracle import (
    DEFAULT_ORACLE_CAP,
    oracle_field,
    verify_shift_lemma,
    verify_trace_nondegeneracy,
    walk_subcodes,
)

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3

_FACTOR_TRIAL_LIMIT = 10**6


@lru_cache(maxsize=1)
def _trial_primes() -> list[int]:
    """The primes up to _FACTOR_TRIAL_LIMIT, by a sieve over the odd numbers
    (entry i stands for 2i + 1)."""
    half = _FACTOR_TRIAL_LIMIT // 2
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (math.isqrt(_FACTOR_TRIAL_LIMIT) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, half, p)))
    return [2, *itertools.compress(range(1, 2 * half, 2), sieve)]


def factored_form(x: int) -> str | None:
    """Factored rendering like 2^3*5*17, or None when the factorization
    cannot be certified: every prime factor up to 10^6 is divided out, and
    the cofactor left must be 1 or below 10^12, hence 1 or a prime."""
    if x < 2:
        return None
    import bisect  # here, not at the top: `import qcenum.cli` stays without it

    primes = _trial_primes()
    parts = []
    # the 168 primes below 1000 first: a smooth x, once reduced, bounds the
    # scan of the rest by its own square root
    for chunk in (primes[:168], primes[168:]):
        # a prime past sqrt(x) divides x at most once, and is the cofactor
        below_root = chunk[: bisect.bisect(chunk, math.isqrt(x))]
        for p in [p for p in below_root if x % p == 0]:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            parts.append(f"{p}^{e}" if e > 1 else str(p))
    if x >= _FACTOR_TRIAL_LIMIT**2:
        return None
    if x > 1:
        parts.append(str(x))
    return "*".join(parts)


def _zeros_arg(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"zeros must be comma-separated integers: {text!r}")


def _spec_record(spec: CodeSpec) -> dict:
    """q, n, N and zeros: the header of every JSON record that has a spec."""
    return {"q": spec.q, "n": spec.n, "N": spec.N, "zeros": list(spec.zeros)}


def _table_record(table: IndexTable, engine: str) -> dict:
    return {
        **_spec_record(table.spec),
        "table": [
            {"index": k, "count": str(v)} for k, v in table.entries.items()
        ],
        "index_N_count": str(table.index_n_count),
        "options": table.options._asdict(),
        "engine": engine,
    }


def _pairs(entries: dict[int, int]) -> str:
    return ", ".join(f"[{k},{v}]" for k, v in entries.items())


def _bracket_row(index: int, count: int, factored: bool) -> str:
    if factored:
        form = factored_form(count)
        if form is not None:
            return f"[{index},{form}]"
    return f"[{index},{count}]"


def _emit_json(record: dict) -> None:
    print(json.dumps(record, indent=2, sort_keys=True))


def _emit_table(table: IndexTable, engine: str, fmt: str) -> None:
    """A table as JSON or CSV; each command renders its own human text."""
    if fmt == "json":
        _emit_json(_table_record(table, engine))
    else:
        print("index,count")
        for k, v in table.entries.items():
            print(f"{k},{v}")


def cmd_indices(args) -> int:
    spec = validate_spec(args.q, args.n, args.zeros)
    iset = index_set(spec)
    matrix = contribution_matrix(spec)
    if args.format == "json":
        record = {
            **_spec_record(spec),
            "index_set": list(iset.values),
            "excluded_N": iset.excluded_n,
            "contributions": [
                {"d": d, "values": list(matrix.rows[d])} for d in matrix.divisors
            ],
        }
        _emit_json(record)
    elif args.format == "csv":
        print("index")
        for x in iset:
            print(x)
    else:
        zeros = ",".join(str(z) for z in spec.zeros)
        print(f"q={spec.q} n={spec.n} N={spec.N} zeros={zeros}")
        print("indices: " + ", ".join(str(x) for x in iset))
        print(f"full-length lcm occurs: {'yes' if iset.excluded_n else 'no'}")
        print(f"contributions per subfield degree d (columns: zeros {zeros}):")
        for d in matrix.divisors:
            print(f"  d={d}: " + " ".join(str(x) for x in matrix.rows[d]))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.factored and args.format != "human":
        raise InvalidParameterError(
            f"--factored renders human output only, not --format {args.format}"
        )
    spec = validate_spec(args.q, args.n, args.zeros)
    options = EnumerationOptions(
        exclude_zero_code=not args.include_zero,
        exclude_full_code=not args.include_full,
        report_index_n=not args.no_index_n,
    )
    table = multiplicity_table(spec, options)
    if args.format != "human":
        _emit_table(table, "generic", args.format)
        return EXIT_OK
    zeros = ",".join(str(z) for z in spec.zeros)
    print(f"q={spec.q} n={spec.n} N={spec.N} zeros={zeros} engine=generic")
    print(", ".join(_bracket_row(k, v, args.factored) for k, v in table.entries.items()))
    if not args.no_index_n:
        print(f"full-length selections (lcm = N): {table.index_n_count}")
    return EXIT_OK


def cmd_closed_form(args) -> int:
    table = family_table(
        args.family, q=args.q, n=args.n, u=args.u, a=args.a, v=args.v, p=args.p
    )
    report = cross_check(table)
    normalized = table.normalized()
    if args.format == "human":
        params = " ".join(f"{k}={v}" for k, v in table.params.items())
        zeros = ",".join(str(z) for z in table.spec.zeros)
        print(
            f"family={table.family} {params}  "
            f"(q={table.spec.q} n={table.spec.n} N={table.spec.N} zeros={zeros})"
        )
        print("formula counts: " + _pairs(table.literal))
        print("normalized:     " + _pairs(normalized))
        print("generic engine: " + _pairs(report.generic.entries))
    else:
        _emit_table(report.generic._replace(entries=normalized), "closed-form", args.format)
    if not report.ok:
        for row in report.mismatches:
            print(
                f"MISMATCH index={row.index}: formula {row.closed_count} "
                f"!= generic {row.generic_count}",
                file=sys.stderr,
            )
        return EXIT_MISMATCH
    if args.format == "human":
        print(f"per-index check: {len(set(normalized) | set(report.generic.entries))} indices, 0 mismatches")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = validate_spec(args.q, args.n, args.zeros)
    field = oracle_field(spec, args.cap)
    # first, so that an unusable sample count is rejected before the long runs
    shift = verify_shift_lemma(spec, samples=args.samples, cap=args.cap, field=field)
    measured, distinct = walk_subcodes(spec, cap=args.cap, field=field)
    symbolic = multiplicity_table(spec)
    histogram_ok = (
        measured.entries == symbolic.entries
        and measured.index_n_count == symbolic.index_n_count
    )
    nondegen = verify_trace_nondegeneracy(spec, cap=args.cap, field=field)
    ok = histogram_ok and distinct.ok and nondegen.ok and shift.ok
    if args.format == "json":
        record = {
            **_spec_record(spec),
            "cap": args.cap,
            "measured": _table_record(measured, "oracle"),
            "symbolic": _table_record(symbolic, "generic"),
            "histogram_match": histogram_ok,
            "distinct_codes": distinct.distinct_codes,
            "total_tuples": distinct.total_tuples,
            "nondegeneracy_ok": nondegen.ok,
            "shift_lemma_ok": shift.ok,
            "ok": ok,
        }
        _emit_json(record)
    else:
        zeros = ",".join(str(z) for z in spec.zeros)
        print(f"verify q={spec.q} n={spec.n} zeros={zeros} (cap {args.cap})")
        took = _pairs(measured.entries)
        print(f"measured histogram: {took}; full-length: {measured.index_n_count}")
        took = _pairs(symbolic.entries)
        print(f"symbolic table:     {took}; full-length: {symbolic.index_n_count}")
        print(f"histogram match: {'PASS' if histogram_ok else 'FAIL'}")
        print(
            f"distinct codes: {distinct.distinct_codes} of {distinct.total_tuples} "
            f"tuples: {'PASS' if distinct.ok else 'FAIL'}"
        )
        print(
            f"trace nondegeneracy: checked {nondegen.checked}, "
            f"annihilators {nondegen.annihilators}: {'PASS' if nondegen.ok else 'FAIL'}"
        )
        print(
            f"shift compatibility: checked {shift.checked}, "
            f"mismatches {shift.mismatches}: {'PASS' if shift.ok else 'FAIL'}"
        )
        print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_subspaces(args) -> int:
    if args.n < 1:
        raise InvalidParameterError(f"n = {args.n} must be at least 1")
    if prime_power_base(args.q) is None:
        raise InvalidParameterError(f"q = {args.q} is not a prime power")
    table = maximal_counts(args.n, args.q)
    total = subspace_total(args.n, args.q)
    if args.format == "json":
        record = {
            "q": args.q,
            "n": args.n,
            "counts": [{"d": d, "count": str(c)} for d, c in table.counts.items()],
            "total": str(total),
        }
        _emit_json(record)
    elif args.format == "csv":
        print("d,count")
        for d, c in table.counts.items():
            print(f"{d},{c}")
    else:
        print(f"q={args.q} n={args.n}: nonzero subspaces by maximal field of scalars")
        for d, c in table.counts.items():
            print(f"  d={d}: {c}")
        print(f"total: {total}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcenum",
        description="Quasi-cyclic subcode indices and multiplicities for cyclic codes of length q^n - 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        p.add_argument("--q", type=int, required=True, help="field size, a prime power")
        p.add_argument("--n", type=int, required=True, help="extension degree")
        p.add_argument(
            "--zeros", type=_zeros_arg, required=True,
            help="comma-separated dual zero exponents, e.g. 1,3",
        )

    def add_format_arg(p):
        p.add_argument("--format", choices=("human", "csv", "json"), default="human")

    p = sub.add_parser("indices", help="achievable index set and contribution matrix")
    add_spec_args(p)
    add_format_arg(p)
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("enumerate", help="multiplicity table per index")
    add_spec_args(p)
    add_format_arg(p)
    p.add_argument("--include-zero", action="store_true", help="count the zero code at index 1")
    p.add_argument("--include-full", action="store_true", help="count the code itself at index 1")
    p.add_argument(
        "--no-index-n", action="store_true",
        help="keep full-length (lcm = N) selections as a table row instead of a diagnostic",
    )
    p.add_argument(
        "--factored", action="store_true",
        help="render counts as prime factorizations, in human format only: every prime "
        "factor up to 10^6 is divided out, and the cofactor left must be 1 or below "
        "10^12; other counts print in decimal",
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("closed-form", help="family formula, normalized table, generic cross-check")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--u", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--p", type=int)
    add_format_arg(p)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("verify", help="explicit-field oracle vs the symbolic engine")
    add_spec_args(p)
    add_format_arg(p)
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ORACLE_CAP,
        help="max allowed q^n for oracle work (default %(default)s)",
    )
    p.add_argument("--samples", type=int, default=100, help="samples for the shift check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("subspaces", help="per-subfield maximal subspace counts")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format_arg(p)
    p.set_defaults(func=cmd_subspaces)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    # counts can outgrow the interpreter's int -> str digit limit; lift it
    # for this call only, so that in-process callers keep their own setting
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        saved = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        return args.func(args)
    except InvalidParameterError as exc:  # CapExceededError included
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if set_digits is not None:
            set_digits(saved)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
    except BrokenPipeError:
        # the reader stopped early; send the rest of the output to devnull so
        # that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_STDOUT_CLOSED
    sys.exit(code)


if __name__ == "__main__":
    entry()
