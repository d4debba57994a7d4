"""qcenum benchmark: end-to-end metrics per workload, or per-layer from a traced run.

    python3 bench/run.py --workload engine-cold --seed 1 --seconds 16 --trace 0

Run from the repository root; the package is imported from ./src.  One
closed-loop client runs whole passes over the workload's inputs, with at most
one child process at a time, until the timed operations add up to --seconds
and at least one block of passes is done.  op_p50_s and op_tail_s are taken
in each whole block and their medians over the blocks are reported, so a
percentile keeps its rank when faster code fits more passes in a run.
The last stdout line is a JSON object with keys correct, attempted, failed and
metrics; the lines before it give the same figures by name, the raw wall-clock
figures, the input shape, every failure and, for cli, how the untimed probe
call ended (workloads.CLI_PROBE).  `correct` is false when an
operation returned a wrong output; operations that raise or exit non-zero
count as failed.

Times are reference-scaled (see refclock.py): each interval is scaled by how
fast the host ran a fixed loop around it, so runs at different moments of a
shared host compare.  The process and its children stay on one CPU, so the
loop runs where the work runs.

--trace 1 instead runs one traced pass of every workload, with spans around
qcenum's public functions, and reports per-layer times, counts, self times
and the tracing overhead on the chosen workload (traced minus untraced pass).
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("engine-cold", "engine-sweep", "cli", "oracle-verify")
LAYERS = ("numth", "counting", "index_calc", "enumeration", "closed_form", "cli", "gf", "oracle")

SETUP_REPS = 3  # at the start and again after every pass
IMPORT_REPS = 5
# qcenum is stdlib only: -S keeps the host's site-packages .pth hooks, which
# can take longer than qcenum itself, out of every child's start-up
PYTHON = (sys.executable, "-S")
# a fresh interpreter reports when `import qcenum.cli` has finished
SETUP_CHILD = "import time; import qcenum.cli; print(time.perf_counter())"
IMPORT_CHILD = (
    "import time; t = time.perf_counter(); import qcenum.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    """Children import ./src and reuse bytecode cached under .bench_build, as
    an installed package reuses its compiled files."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def python_child(code: str, env: dict) -> str:
    proc = subprocess.run(
        [*PYTHON, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


def timed_children(code: str, reps: int, env: dict, clock, since_spawn: bool) -> list:
    """Reference-scaled seconds per fresh interpreter: from spawn to the
    child's printed perf_counter (the clock is system-wide on Linux), or the
    duration the child prints itself."""
    samples = []
    for _ in range(reps):
        clock.tick()
        start = time.perf_counter()
        value = float(python_child(code, env).split()[-1])
        raw = value - start if since_spawn else value
        samples.append(raw * clock.scale(start, time.perf_counter()))
    clock.sample()
    return samples


class Tally:
    """Every attempted op as (start, end, ok), failures by reason."""

    def __init__(self):
        self.ops = []
        self.failures = {}
        self.wrong = 0

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.ops if not ok)

    def fail(self, label: str, reason: str) -> None:
        key = f"{label}: {reason}"[:300]
        self.failures[key] = self.failures.get(key, 0) + 1


def one_pass(wl, order, tally, run, clock, tracer=None) -> float:
    """Run every input once, sampling the reference loop between ops;
    returns the pass's reference-scaled seconds."""
    from workloads import OpFailed

    first = len(tally.ops)
    for item in order:
        wl.before(item)
        clock.tick()
        if tracer is not None:
            record = tracer.open("bench.op")
        start = time.perf_counter()
        try:
            result, error = run(item), None
        except OpFailed as exc:
            result, error = None, str(exc)
        except Exception as exc:  # the op boundary: record and keep going
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.close(record)
        if error is None:
            error = wl.check(item, result)
            if error is not None:
                tally.wrong += 1
        tally.ops.append((start, end, error is None))
        if error is not None:
            tally.fail(wl.label(item), error)
    clock.sample()
    return sum((end - start) * clock.scale(start, end) for start, end, _ in tally.ops[first:])


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least 10 samples beyond it,
    that percentile and the samples beyond; the maximum when too few."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def make_workloads(env: dict) -> dict:
    import workloads

    return {
        "engine-cold": workloads.EngineCold(),
        "engine-sweep": workloads.EngineSweep(),
        "cli": workloads.Cli(PYTHON, env, str(ROOT)),
        "oracle-verify": workloads.OracleVerify(),
    }


def shuffled(wl, rng) -> list:
    order = wl.inputs()
    rng.shuffle(order)
    return order


def end_to_end(tally, blocks, clock, scaled: bool) -> dict:
    """Latency figures per block of passes, given as (first, end) op ranges,
    and their medians over the blocks that have a successful op."""
    def latency(start, end):
        return (end - start) * (clock.scale(start, end) if scaled else 1.0)

    p50s, tails = [], []
    for first, end in blocks:
        ok = [latency(start, stop) for start, stop, good in tally.ops[first:end] if good]
        if ok:
            # the upper median: with an even count it is one measured op
            p50s.append(statistics.median_high(ok))
            tails.append((*tail(ok), len(ok)))
    if not p50s:
        raise SystemExit("no block of passes has a successful operation")
    _, pct, beyond, samples = tails[0]
    timed = sum(latency(start, end) for start, end, _ in tally.ops)
    return {
        "ops_per_s_overall": (tally.attempted - tally.failed) / timed,
        "op_p50_s": statistics.median(p50s),
        "op_tail_s": statistics.median(value for value, *_ in tails),
        "tail": {"percentile": pct, "samples": samples, "beyond": beyond, "blocks": len(tails)},
        "timed_s": timed,
    }


def measure(args, wl, env, clock) -> tuple:
    python_child(SETUP_CHILD, env)  # writes the bytecode cache
    setup = timed_children(SETUP_CHILD, SETUP_REPS, env, clock, since_spawn=True)
    rng = random.Random(args.seed)
    tally = Tally()
    probe = wl.probe() if hasattr(wl, "probe") else None
    if getattr(wl, "warm_up", False):
        one_pass(wl, shuffled(wl, rng), Tally(), wl.run, clock)  # fill the caches
    rates, timed, starts = [], 0.0, []
    while len(rates) < wl.block_passes or timed < args.seconds:
        first = len(tally.ops)
        starts.append(first)
        elapsed = one_pass(wl, shuffled(wl, rng), tally, wl.run, clock)
        rates.append(sum(ok for _, _, ok in tally.ops[first:]) / elapsed)
        timed += elapsed
        # set-up samples spread over the run see the host as the ops do
        setup += timed_children(SETUP_CHILD, SETUP_REPS, env, clock, since_spawn=True)
    if tally.failed == tally.attempted:
        raise SystemExit("every operation failed; nothing to measure")
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    # passes after the last whole block count for ops_per_s, not the latencies
    bounds, size = starts + [len(tally.ops)], wl.block_passes
    blocks = [(bounds[i], bounds[i + size]) for i in range(0, len(rates) - size + 1, size)]
    scaled, raw = end_to_end(tally, blocks, clock, True), end_to_end(tally, blocks, clock, False)
    fail_ratio = tally.failed / tally.attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_s": (scaled["op_p50_s"], "s"),
        "op_tail_s": (scaled["op_tail_s"], "s"),
        "ok_ratio": (1.0 - fail_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "passes": len(rates),
        "ops_per_s_by_pass": rates,
        "fail_ratio": fail_ratio,
        "op_tail": scaled.pop("tail"),
        "setup_samples_s": setup,
        "raw_wall_clock": raw,
        "rss_of": "children" if who == resource.RUSAGE_CHILDREN else "self",
    }
    if probe is not None:
        detail["probe"] = probe
    return tally, metrics, detail


def trace_run(args, wls: dict, env: dict, clock) -> tuple:
    """One traced pass per workload.  On the chosen workload every op also
    runs untraced, right before or after its traced run in turn, and the
    overhead is the difference of the two sums."""
    import workloads
    from spans import Tracer, traced

    tally = Tally()
    summaries, counts, missing = {}, {}, set()
    untraced = traced_s = 0.0
    hit_ratio = None
    for name in WORKLOADS:
        wl = wls[name]
        run = wl.run_inproc if name == "cli" else wl.run
        order = shuffled(wl, random.Random(args.seed))
        if getattr(wl, "warm_up", False):
            workloads.clear_caches()
            before = workloads.cache_stats()
            one_pass(wl, order, tally, run, clock)
            after = workloads.cache_stats()
            if before is not None:  # only while counting/numth keep functools caches
                hits, misses = (a - b for a, b in zip(after, before))
                hit_ratio = hits / max(hits + misses, 1)
        tracer = Tracer()
        start = time.perf_counter()
        if name == args.workload:
            for i, item in enumerate(order):
                if i % 2:
                    untraced += one_pass(wl, [item], tally, run, clock)
                with traced(tracer):
                    traced_s += one_pass(wl, [item], tally, run, clock, tracer)
                if not i % 2:
                    untraced += one_pass(wl, [item], tally, run, clock)
        else:
            with traced(tracer):
                one_pass(wl, order, tally, run, clock, tracer)
        factor = clock.scale(start, time.perf_counter())
        summaries[name] = {
            key: {**rec, "total_s": rec["total_s"] * factor, "self_s": rec["self_s"] * factor}
            for key, rec in tracer.summary().items()
        }
        counts[name] = tracer.counts
        missing.update(tracer.missing)
    python_child(IMPORT_CHILD, env)  # writes the bytecode cache
    imports = timed_children(IMPORT_CHILD, IMPORT_REPS, env, clock, since_spawn=False)

    def total(wl, span, key="total_s"):
        """The span's summed figure on the workload, or None if it never fired."""
        return summaries[wl].get(span, {}).get(key)

    cmd_selfs = [
        rec["self_s"] for span, rec in summaries["cli"].items() if span.startswith("cli.cmd_")
    ]
    metrics = {
        "numth.validate_s": (total("engine-sweep", "numth.validate_spec"), "s"),
        "counting.maximal_counts_s": (total("engine-cold", "counting.maximal_counts"), "s"),
        "counting.subspace_total_s": (total("engine-cold", "counting.subspace_total"), "s"),
        "enumeration.fold_s": (total("engine-sweep", "enumeration.multiplicity_table", "self_s"), "s"),
        "index_calc.index_set_s": (total("engine-sweep", "index_calc.index_set"), "s"),
        "index_calc.contribution_matrix_s": (total("engine-sweep", "index_calc.contribution_matrix"), "s"),
        "closed_form.cross_check_s": (total("cli", "closed_form.cross_check"), "s"),
        "cli.main_inproc_s": (total("cli", "cli.main"), "s"),
        "cli.str_format_s": (sum(cmd_selfs) if cmd_selfs else None, "s"),
        "cli.factored_form_s": (total("cli", "cli.factored_form"), "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        "gf.build_field_s": (total("oracle-verify", "gf.build_field"), "s"),
        "oracle.enumerate_subspaces_s": (total("oracle-verify", "oracle.enumerate_subspaces"), "s"),
        "oracle.build_subcode_s": (total("oracle-verify", "oracle.build_subcode"), "s"),
        "oracle.qc_index_s": (total("oracle-verify", "oracle.qc_index"), "s"),
        "oracle.measured_histogram_s": (total("oracle-verify", "oracle.measured_histogram"), "s"),
        "oracle.distinctness_s": (total("oracle-verify", "oracle.verify_distinctness"), "s"),
        "oracle.nondegeneracy_s": (total("oracle-verify", "oracle.verify_trace_nondegeneracy"), "s"),
        "oracle.shift_lemma_s": (total("oracle-verify", "oracle.verify_shift_lemma"), "s"),
        "oracle.subspaces": (counts["oracle-verify"].get("oracle.enumerate_subspaces"), "count"),
        "oracle.tuples": (total("oracle-verify", "oracle.build_subcode", "calls"), "count"),
        "counting.cache_hit_ratio": (hit_ratio, "ratio"),
    }
    layer_self = {}
    for summary in summaries.values():
        for span, rec in summary.items():
            layer = span.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + rec["self_s"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self.get(layer), "s")
    # a metric whose span is gone or never fired is left out, not read as 0
    unmeasured = sorted(name for name, (value, _) in metrics.items() if value is None)
    metrics = {name: rec for name, rec in metrics.items() if rec[0] is not None}
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - untraced) / untraced, "ratio")
    detail = {
        "overhead_on": args.workload,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced_s,
        "import_samples_s": imports,
        "layer_self_s": layer_self,
        "missing_spans": sorted(missing),
        "unmeasured_metrics": unmeasured,
        "spans": summaries,
    }
    return tally, metrics, detail


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, beside the reference loop."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcenum" / "__init__.py").is_file():
        print(f"error: no qcenum package under {SRC}", file=sys.stderr)
        return 2
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.path.insert(0, str(SRC))
    import qcenum
    from refclock import RefClock

    if Path(qcenum.__file__).resolve().parent != SRC / "qcenum":
        print(f"error: imported qcenum from {qcenum.__file__}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    clock = RefClock()
    env = child_env()
    wls = make_workloads(env)
    wl = wls[args.workload]
    if args.trace:
        tally, metrics, detail = trace_run(args, wls, env, clock)
        shape = {name: w.shape() for name, w in wls.items()}
    else:
        tally, metrics, detail = measure(args, wl, env, clock)
        shape = wl.shape()
    detail["reference_loop"] = clock.summary()
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {tally.attempted} ops, "
          f"{tally.failed} failed, {tally.wrong} wrong outputs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    if not args.trace:
        tail_info = detail["op_tail"]
        print(f"  op_tail_s is p{tail_info['percentile']:.1f} of {tail_info['samples']} samples, "
              f"median of {tail_info['blocks']} blocks; "
              f"fail_ratio {detail['fail_ratio']:.6g} ({tally.failed} of {tally.attempted})")
    if "probe" in detail:
        probe = detail["probe"]
        print(f"  probe, not timed: {probe['argv']} -> exit {probe['exit']}: {probe['stderr_last']}")
    if args.trace and (detail["missing_spans"] or detail["unmeasured_metrics"]):
        print(f"  missing spans: {detail['missing_spans']}; "
              f"left out: {detail['unmeasured_metrics']}")
    for reason, times in tally.failures.items():
        print(f"  failed x{times}: {reason}")
    print(json.dumps({"detail": detail, "shape": shape, "failures": tally.failures}, sort_keys=True))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
