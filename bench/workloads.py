"""The four workloads: fixed inputs, one operation on each, and its check.

Each workload's input set is fixed, so runs with different seeds measure the
same work; the seed sets the order in which every pass visits the inputs.
Operations call qcenum through module attributes, which the tracer can wrap.
Checks use the functions bound at import time, so they never produce spans,
and they run outside the timed region.  An operation fails when it raises,
when the CLI exits non-zero, or when its check finds a wrong output.

Every table and subspace count a check sees is compared with a digest in
digests.json, recorded from the qcenum that defined this benchmark (see
make_digests.py), so counts moved between indices do not pass unseen.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from qcenum import cli, counting, enumeration, index_calc, numth, oracle
from qcenum.counting import maximal_counts as ref_maximal_counts
from qcenum.enumeration import multiplicity_table as ref_multiplicity_table
from qcenum.index_calc import index_set as ref_index_set
from qcenum.numth import validate_spec as ref_validate_spec


class OpFailed(Exception):
    """An operation ended without a checkable result: a raise or an exit code."""


def lru_caches() -> list:
    """The functools caches of counting and numth, whichever still exist."""
    found = {}
    for mod in (counting, numth):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


CACHES = lru_caches()


def clear_caches() -> None:
    for cached in CACHES:
        cached.cache_clear()


def cache_stats():
    """Summed (hits, misses) over the caches that report them, or None."""
    infos = [c.cache_info() for c in CACHES if callable(getattr(c, "cache_info", None))]
    if not infos:
        return None
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int/str conversion limit for the harness's own checks only."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


_GALOIS = {}


def galois(n: int, q: int) -> int:
    """G_n(q), the number of subspaces of F_q^n with zero included, by the
    Goldman-Rota recurrence G_{m+1} = 2 G_m + (q^m - 1) G_{m-1}."""
    if (n, q) not in _GALOIS:
        prev, cur = 1, 2
        for m in range(1, n):
            prev, cur = cur, 2 * cur + (q**m - 1) * prev
        _GALOIS[n, q] = cur if n >= 1 else 1
    return _GALOIS[n, q]


def digits(x: int) -> int:
    """Decimal digits of x >= 1 without converting it to a string."""
    d = int(x.bit_length() * math.log10(2))
    return d + 1 if x >= 10**d else d


DIGESTS = Path(__file__).with_name("digests.json")


def counts_digest(counts: dict, index_n_count=None) -> str:
    """sha256 of the sorted key:count pairs (and index_N when given), in decimal."""
    with unlimited_int_digits():
        text = ";".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        if index_n_count is not None:
            text += f";N:{index_n_count}"
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def subspaces_key(q, n) -> str:
    return f"subspaces q{q} n{n}"


def check_table(q, n, zeros, table, iset=None):
    """The recorded digest, the accounting identity against the harness's own
    Galois numbers, and the index set equal to the table's support.  Returns
    an error or None."""
    recorded = recorded_digests().get(_label(q, n, zeros))
    if recorded is None:
        return "no recorded digest for this spec"
    if counts_digest(table.entries, table.index_n_count) != recorded:
        return "table differs from the recorded digest"
    lhs = sum(table.entries.values()) + table.index_n_count + 2
    if lhs != galois(n, q) ** len(zeros):
        return "accounting identity sum(entries) + index_N + 2 != G_n^s fails"
    if any(v <= 0 for k, v in table.entries.items() if k != 1):
        return "table has a non-positive count"
    if iset is not None:
        if set(iset.values) != set(table.entries):
            return "index_set differs from the table's support"
        if iset.excluded_n != (table.index_n_count > 0):
            return "index_set excluded_n disagrees with index_N_count"
    return None


def _label(q, n, zeros) -> str:
    return f"q{q} n{n} z{','.join(map(str, zeros))}"


class EngineCold:
    """validate_spec + multiplicity_table with counting/numth caches cleared
    before every op, as every CLI process starts cold."""

    name = "engine-cold"
    # in a block of 4 passes op_tail_s is the lower median of the four n=240
    # samples (only n=360 and n=480 are slower)
    block_passes = 4
    GRID = (
        (2, 120, (1, 3, 5)),
        (2, 240, (1, 3)),
        (2, 360, (1, 3, 5, 7)),
        (2, 480, (1, 3)),
        (4, 60, (1, 3)),
        (8, 40, (1, 3)),
        (9, 40, (1, 2)),
        (3, 100, (1, 2, 4)),
    )

    def __init__(self):
        self.largest_digits = 0

    def inputs(self) -> list:
        return list(self.GRID)

    def label(self, item) -> str:
        return _label(*item)

    def before(self, item) -> None:
        clear_caches()

    def run(self, item):
        q, n, zeros = item
        return enumeration.multiplicity_table(numth.validate_spec(q, n, zeros))

    def check(self, item, table):
        q, n, zeros = item
        biggest = max([*table.entries.values(), table.index_n_count])
        self.largest_digits = max(self.largest_digits, digits(biggest))
        return check_table(q, n, zeros, table, ref_index_set(table.spec))

    def shape(self) -> dict:
        return {
            "ops_per_pass": len(self.GRID),
            "grid": [self.label(x) for x in self.GRID],
            "largest_count_digits": self.largest_digits,
        }


class EngineSweep:
    """validate_spec, multiplicity_table and index_set over 150 specs that
    share 25 (n, q) pairs, so the counting caches hit after a warm-up pass."""

    name = "engine-sweep"
    block_passes = 1
    NS = (24, 36, 48, 60, 120)  # highly composite
    QS = (2, 3, 4, 5, 9)
    SIZES = range(3, 9)
    ZERO_POOL = range(1, 64)
    warm_up = True

    def __init__(self):
        # fixed generator: the run's seed only reorders these specs
        rng = random.Random(2016)
        specs = []
        for n in self.NS:
            for q in self.QS:
                for s in self.SIZES:
                    while True:
                        zeros = rng.sample(self.ZERO_POOL, s)
                        try:
                            spec = ref_validate_spec(q, n, zeros)
                        except numth.InvalidParameterError:
                            continue
                        specs.append((q, n, spec.zeros))
                        break
        self.specs = specs
        self.largest_digits = 0
        self.checked = set()

    def inputs(self) -> list:
        return list(self.specs)

    def label(self, item) -> str:
        return _label(*item)

    def before(self, item) -> None:
        pass

    def run(self, item):
        q, n, zeros = item
        spec = numth.validate_spec(q, n, zeros)
        table = enumeration.multiplicity_table(spec)
        return table, index_calc.index_set(spec)

    def check(self, item, result):
        q, n, zeros = item
        table, iset = result
        if item not in self.checked:
            self.checked.add(item)
            biggest = max([*table.entries.values(), table.index_n_count])
            self.largest_digits = max(self.largest_digits, digits(biggest))
        return check_table(q, n, zeros, table, iset)

    def shape(self) -> dict:
        return {
            "ops_per_pass": len(self.specs),
            "hist_s": dict(sorted(Counter(len(z) for _, _, z in self.specs).items())),
            "hist_n": dict(sorted(Counter(n for _, n, _ in self.specs).items())),
            "hist_q": dict(sorted(Counter(q for q, _, _ in self.specs).items())),
            "distinct_nq": len({(n, q) for q, n, _ in self.specs}),
            "largest_count_digits": self.largest_digits,
        }


class OracleVerify:
    """The library calls `qcenum verify` makes, on small fields."""

    name = "oracle-verify"
    # in a block of 8 passes op_tail_s is the third-slowest of the eight
    # (2, 4, [1, 3]) samples, the only ones near the eight of (2, 6, [1])
    block_passes = 8
    CASES = (
        (2, 6, (1,)),  # long rows, few tuples
        (2, 4, (1, 3)),  # short rows, many tuples
        (3, 4, (1,)),
        (3, 3, (1, 2)),
        (5, 2, (1, 2)),
    )
    SAMPLES = 100  # the CLI's default --samples

    def inputs(self) -> list:
        return list(self.CASES)

    def label(self, item) -> str:
        return _label(*item)

    def before(self, item) -> None:
        pass

    def run(self, item):
        q, n, zeros = item
        spec = numth.validate_spec(q, n, zeros)
        field = oracle.oracle_field(spec)
        measured = oracle.measured_histogram(spec, field=field)
        symbolic = enumeration.multiplicity_table(spec)
        distinct = oracle.verify_distinctness(spec, field=field)
        nondegen = oracle.verify_trace_nondegeneracy(spec, field=field)
        shift = oracle.verify_shift_lemma(spec, samples=self.SAMPLES, field=field)
        return measured, symbolic, distinct, nondegen, shift

    def check(self, item, result):
        q, n, zeros = item
        measured, symbolic, distinct, nondegen, shift = result
        if (measured.entries, measured.index_n_count) != (
            symbolic.entries,
            symbolic.index_n_count,
        ):
            return "measured histogram differs from the symbolic table"
        if distinct.total_tuples != galois(n, q) ** len(zeros):
            return "distinctness visited the wrong number of tuples"
        if not (distinct.ok and nondegen.ok and shift.ok):
            return "an oracle verification report failed"
        return check_table(q, n, zeros, measured)

    def shape(self) -> dict:
        tuples = {self.label(c): galois(c[1], c[0]) ** len(c[2]) for c in self.CASES}
        return {
            "ops_per_pass": len(self.CASES),
            "tuples_per_case": tuples,
            # measured_histogram and verify_distinctness each walk every tuple
            "tuples_visited_per_pass": 2 * sum(tuples.values()),
        }


# -- the command line ---------------------------------------------------------

# (arguments, (q, n, zeros) the output describes, or (q, n) for subspaces).
# Besides the cheap calls, where interpreter start-up sets the time, a pass
# has one 3 s call, two of 0.7 s and two of about 0.12 s, so in a block of
# three passes the 11th-slowest call, op_tail_s, is one of the last two and
# not a start-up outlier.
CLI_MIX = (
    ("indices --q 2 --n 6 --zeros 1,3", (2, 6, (1, 3))),
    ("indices --q 2 --n 12 --zeros 1,3,5 --format csv", (2, 12, (1, 3, 5))),
    ("indices --q 3 --n 12 --zeros 1,2,4 --format json", (3, 12, (1, 2, 4))),
    ("enumerate --q 2 --n 6 --zeros 1,3", (2, 6, (1, 3))),
    ("enumerate --q 2 --n 14 --zeros 1,3 --factored", (2, 14, (1, 3))),
    ("enumerate --q 2 --n 60 --zeros 1,3,5 --factored", (2, 60, (1, 3, 5))),
    ("enumerate --q 2 --n 120 --zeros 1,3,5 --format json", (2, 120, (1, 3, 5))),
    ("enumerate --q 2 --n 160 --zeros 1,3 --format csv", (2, 160, (1, 3))),
    ("closed-form --family bch2-binary-twoprimes --u 2 --v 3", (2, 6, (1, 3))),
    ("closed-form --family simplex --q 2 --n 12 --format json", (2, 12, (1,))),
    ("closed-form --family bch2-binary-primepower --u 2 --a 5 --format csv", (2, 16, (1, 3))),
    ("closed-form --family bch3-pary-twoprimes --p 3 --u 2 --v 3", (3, 6, (1, 2))),
    ("closed-form --family bch2-binary-twoprimes --u 3 --v 5 --format json", (2, 15, (1, 3))),
    ("verify --q 3 --n 2 --zeros 1,2", (3, 2, (1, 2))),
    ("verify --q 2 --n 4 --zeros 1,3 --format json", (2, 4, (1, 3))),
    ("verify --q 2 --n 6 --zeros 1 --format csv", (2, 6, (1,))),
    ("subspaces --q 2 --n 4", (2, 4)),
    ("subspaces --q 3 --n 12 --format json", (3, 12)),
    ("subspaces --q 2 --n 30 --format csv", (2, 30)),
)

CLI_CHILD = "from qcenum.cli import entry; entry()"

# Counts past Python's 4300-digit int->str limit: this call exits 1 in the
# qcenum that defined the benchmark, so it is run once per run as a probe,
# outside the timed operations, and only its exit is reported.
CLI_PROBE = "enumerate --q 2 --n 240 --zeros 1,3 --format json"


def _command_format(argv: str) -> tuple:
    words = argv.split()
    fmt = words[words.index("--format") + 1] if "--format" in words else "human"
    return words[0], fmt

_PAIR = re.compile(r"\[(\d+),([0-9*^]+)\]")


def _pairs(line: str) -> dict:
    """{index: count} from "[k,v], ..." where v may be a factored form."""
    out = {}
    for index, form in _PAIR.findall(line):
        if form.isdigit():
            out[int(index)] = int(form)
            continue
        value, last = 1, 1
        for factor in form.split("*"):
            base, _, exp = factor.partition("^")
            if int(base) <= last:
                raise ValueError(f"factors not ascending in {form}")
            last = int(base)
            value *= last ** int(exp or 1)
        out[int(index)] = value
    return out


def _line(lines, prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise ValueError(f"no line starting {prefix!r}")


def _contributions(q, n, zeros) -> list:
    """Per-divisor contributions L_d / gcd(i, L_d), computed here directly."""
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            step = (q**n - 1) // (q**d - 1)
            out.append({"d": d, "values": [step // math.gcd(i, step) for i in zeros]})
    return out


def _csv_rows(lines, header: str) -> dict:
    if lines[0] != header:
        raise ValueError(f"csv header {lines[0]!r}")
    return {int(a): int(b) for a, b in (row.split(",") for row in lines[1:])}


def _json_table(record) -> tuple:
    return (
        {int(r["index"]): int(r["count"]) for r in record["table"]},
        int(record["index_N_count"]),
    )


class Cli:
    """Documented CLI calls, one subprocess at a time (in-process when traced)."""

    name = "cli"
    block_passes = 3

    def __init__(self, python: tuple, env: dict, cwd: str):
        self.python = python
        self.env = env
        self.cwd = cwd
        self._tables = {}

    def _table(self, params):
        if params not in self._tables:
            self._tables[params] = ref_multiplicity_table(ref_validate_spec(*params))
        return self._tables[params]

    def inputs(self) -> list:
        return list(CLI_MIX)

    def label(self, item) -> str:
        return item[0]

    def before(self, item) -> None:
        clear_caches()  # matters for in-process calls, which share the caches

    def _call(self, argv: str):
        return subprocess.run(
            [*self.python, "-c", CLI_CHILD, *argv.split()],
            env=self.env,
            cwd=self.cwd,
            capture_output=True,
            text=True,
            timeout=150,
        )

    def run(self, item):
        proc = self._call(item[0])
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [""]
            raise OpFailed(f"exit {proc.returncode}: {lines[-1]}")
        return proc.stdout

    def probe(self) -> dict:
        """Run CLI_PROBE once; its exit code and last stderr line, unchecked."""
        proc = self._call(CLI_PROBE)
        lines = proc.stderr.strip().splitlines() or [""]
        return {"argv": CLI_PROBE, "exit": proc.returncode, "stderr_last": lines[-1]}

    def run_inproc(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(item[0].split())
        if code != 0:
            lines = err.getvalue().strip().splitlines() or [""]
            raise OpFailed(f"exit {code}: {lines[-1]}")
        return out.getvalue()

    def check(self, item, stdout):
        argv, params = item
        command, fmt = _command_format(argv)
        lines = stdout.splitlines()
        try:
            with unlimited_int_digits():
                if command == "subspaces":
                    return self._check_subspaces(params, fmt, lines)
                table = self._table(params)
                error = check_table(*params, table)
                if error is not None:
                    return error
                expect = (table.entries, table.index_n_count)
                if command == "indices":
                    return self._check_indices(params, fmt, lines, table)
                if fmt == "json":
                    record = json.loads(stdout)
                    if command == "verify":
                        record = record["measured"] if record["ok"] else None
                    if record is None or _json_table(record) != expect:
                        return f"{command} json table differs from the library"
                    return None
                if fmt == "csv" and command != "verify":
                    if _csv_rows(lines, "index,count") != table.entries:
                        return f"{command} csv rows differ from the library"
                    return None
                if command == "enumerate":
                    got = (_pairs(lines[1]), int(_line(lines, "full-length selections (lcm = N): ")))
                elif command == "closed-form":
                    if not re.fullmatch(r"per-index check: \d+ indices, 0 mismatches", lines[-1]):
                        return "closed-form lacks the '0 mismatches' line"
                    got = (_pairs(_line(lines, "generic engine: ")), table.index_n_count)
                else:  # verify, human text for both human and csv
                    if lines[-1] != "PASS" or "histogram match: PASS" not in lines:
                        return "verify did not print PASS"
                    text, _, full = _line(lines, "measured histogram: ").partition("; full-length: ")
                    got = (_pairs(text), int(full))
                return None if got == expect else f"{command} output differs from the library"
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparsable {command} output: {exc}"

    @staticmethod
    def _check_indices(params, fmt, lines, table):
        q, n, zeros = params
        support = sorted(table.entries)
        excluded = table.index_n_count > 0
        if fmt == "json":
            record = json.loads("\n".join(lines))
            got = (record["index_set"], record["excluded_N"], record["contributions"])
            ok = got == (support, excluded, _contributions(q, n, zeros))
        elif fmt == "csv":
            ok = lines == ["index", *map(str, support)]
        else:
            ok = (
                _line(lines, "indices: ") == ", ".join(map(str, support))
                and _line(lines, "full-length lcm occurs: ") == ("yes" if excluded else "no")
            )
        return None if ok else "indices output differs from the table's support"

    @staticmethod
    def _check_subspaces(params, fmt, lines):
        q, n = params
        counts = ref_maximal_counts(n, q).counts
        if counts_digest(counts) != recorded_digests().get(subspaces_key(q, n)):
            return "maximal counts differ from the recorded digest"
        total = galois(n, q) - 1
        if sum(counts.values()) != total:
            return "maximal counts do not sum to G_n - 1"
        if fmt == "json":
            record = json.loads("\n".join(lines))
            got = ({r["d"]: int(r["count"]) for r in record["counts"]}, int(record["total"]))
        elif fmt == "csv":
            got = (_csv_rows(lines, "d,count"), total)
        else:
            rows = [line.strip()[2:].split(": ") for line in lines if line.startswith("  d=")]
            got = ({int(d): int(c) for d, c in rows}, int(_line(lines, "total: ")))
        return None if got == (counts, total) else "subspaces output differs"

    def shape(self) -> dict:
        kinds = Counter("/".join(_command_format(argv)) for argv, _ in CLI_MIX)
        return {"ops_per_pass": len(CLI_MIX), "by_command_format": dict(sorted(kinds.items()))}
