"""Command-line front end.

Subcommands: indices, enumerate, closed-form, verify, subspaces.  Output goes
to stdout as human-readable text, CSV, or JSON (counts as decimal strings,
keys sorted); diagnostics go to stderr.  Exit codes: 0 success, 2 bad usage or
validation, 3 verification failure or closed-form discrepancy.
"""

import argparse
import json
import sys

from .closed_form import FAMILIES, cross_check, family_table
from .counting import maximal_counts, subspace_total
from .enumeration import EnumerationOptions, IndexTable, multiplicity_table
from .gf import CapExceededError
from .index_calc import contribution_matrix, index_set
from .numth import InvalidParameterError, factorize, prime_power_base, validate_spec
from .oracle import (
    effective_cap,
    measured_histogram,
    oracle_field,
    verify_distinctness,
    verify_shift_lemma,
    verify_trace_nondegeneracy,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3

_FACTOR_TRIAL_LIMIT = 10**6


def factored_form(x: int) -> str | None:
    """Factored rendering like 2^3*5*17, or None when trial division
    up to 10^6 cannot certify the complete factorization."""
    pairs = factorize(x, limit=_FACTOR_TRIAL_LIMIT) if x >= 2 else None
    if pairs is None:
        return None
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in pairs)


def _zeros_arg(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"zeros must be comma-separated integers: {text!r}")


def _options_from_args(args) -> EnumerationOptions:
    return EnumerationOptions(
        exclude_zero_code=not args.include_zero,
        exclude_full_code=not args.include_full,
        report_index_n=not args.no_index_n,
    )


def _table_record(table: IndexTable, engine: str) -> dict:
    spec = table.spec
    return {
        "q": spec.q,
        "n": spec.n,
        "N": spec.N,
        "zeros": list(spec.zeros),
        "table": [
            {"index": k, "count": str(v)} for k, v in table.entries.items()
        ],
        "index_N_count": str(table.index_n_count),
        "options": {
            "exclude_zero_code": table.options.exclude_zero_code,
            "exclude_full_code": table.options.exclude_full_code,
            "report_index_n": table.options.report_index_n,
        },
        "engine": engine,
    }


def _bracket_row(index: int, count: int, factored: bool) -> str:
    if factored:
        form = factored_form(count)
        if form is not None:
            return f"[{index},{form}]"
    return f"[{index},{count}]"


def _emit_json(record: dict) -> None:
    print(json.dumps(record, indent=2, sort_keys=True))


def _emit_table(table: IndexTable, engine: str, fmt: str, factored: bool = False) -> None:
    spec = table.spec
    if fmt == "json":
        _emit_json(_table_record(table, engine))
    elif fmt == "csv":
        print("index,count")
        for k, v in table.entries.items():
            print(f"{k},{v}")
    else:
        zeros = ",".join(str(z) for z in spec.zeros)
        print(f"q={spec.q} n={spec.n} N={spec.N} zeros={zeros} engine={engine}")
        print(", ".join(_bracket_row(k, v, factored) for k, v in table.entries.items()))
        if table.options.report_index_n:
            print(f"full-length selections (lcm = N): {table.index_n_count}")


def cmd_indices(args) -> int:
    spec = validate_spec(args.q, args.n, args.zeros)
    iset = index_set(spec)
    matrix = contribution_matrix(spec)
    if args.format == "json":
        record = {
            "q": spec.q,
            "n": spec.n,
            "N": spec.N,
            "zeros": list(spec.zeros),
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
    spec = validate_spec(args.q, args.n, args.zeros)
    table = multiplicity_table(spec, _options_from_args(args))
    _emit_table(table, "generic", args.format, factored=args.factored)
    return EXIT_OK


def cmd_closed_form(args) -> int:
    table = family_table(
        args.family, q=args.q, n=args.n, u=args.u, a=args.a, v=args.v, p=args.p
    )
    report = cross_check(table)
    normalized = table.normalized()
    as_index_table = IndexTable(
        spec=table.spec,
        entries=normalized,
        index_n_count=report.generic.index_n_count,
        options=report.generic.options,
    )
    if args.format == "human":
        params = " ".join(f"{k}={v}" for k, v in table.params.items())
        zeros = ",".join(str(z) for z in table.spec.zeros)
        print(
            f"family={table.family} {params}  "
            f"(q={table.spec.q} n={table.spec.n} N={table.spec.N} zeros={zeros})"
        )
        print("formula counts: " + ", ".join(f"[{k},{v}]" for k, v in table.literal.items()))
        print("normalized:     " + ", ".join(f"[{k},{v}]" for k, v in normalized.items()))
        print(
            "generic engine: "
            + ", ".join(f"[{k},{v}]" for k, v in report.generic.entries.items())
        )
    else:
        _emit_table(as_index_table, "closed-form", args.format)
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
    measured = measured_histogram(spec, cap=args.cap, field=field)
    symbolic = multiplicity_table(spec)
    histogram_ok = (
        measured.entries == symbolic.entries
        and measured.index_n_count == symbolic.index_n_count
    )
    distinct = verify_distinctness(spec, cap=args.cap, field=field)
    nondegen = verify_trace_nondegeneracy(spec, cap=args.cap, field=field)
    ok = histogram_ok and distinct.ok and nondegen.ok and shift.ok
    if args.format == "json":
        record = {
            "q": spec.q,
            "n": spec.n,
            "N": spec.N,
            "zeros": list(spec.zeros),
            "cap": effective_cap(args.cap),
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
        print(f"verify q={spec.q} n={spec.n} zeros={zeros} (cap {effective_cap(args.cap)})")
        took = ", ".join(f"[{k},{v}]" for k, v in measured.entries.items())
        print(f"measured histogram: {took}; full-length: {measured.index_n_count}")
        took = ", ".join(f"[{k},{v}]" for k, v in symbolic.entries.items())
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
        help="render counts in factored form when small-prime trial division suffices",
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
    p.add_argument("--cap", type=int, default=None, help="max allowed q^n for oracle work")
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
    except (InvalidParameterError, CapExceededError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if set_digits is not None:
            set_digits(saved)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
