"""Spans around qcenum's public functions, installed from outside the package.

A Tracer keeps every span in memory as [name, start, end, parent], where
parent is the index of the enclosing span (-1 at the top).  `traced` swaps
each named function for a timing wrapper in every loaded qcenum module that
holds it, which also catches calls that one module makes into another, and
puts the originals back on exit.
"""

import contextlib
import functools
import inspect
import sys
import time

# (module, function) pairs that get a span; the span is named layer.function.
TRACED = (
    ("numth", "validate_spec"),
    ("counting", "gaussian_binomial"),
    ("counting", "subspace_total"),
    ("counting", "maximal_counts"),
    ("counting", "maximal_counts_inclusion_exclusion"),
    ("index_calc", "contribution_matrix"),
    ("index_calc", "index_set"),
    ("enumeration", "multiplicity_table"),
    ("closed_form", "family_table"),
    ("closed_form", "cross_check"),
    ("gf", "build_field"),
    ("oracle", "oracle_field"),
    ("oracle", "enumerate_subspaces"),
    ("oracle", "build_subcode"),
    ("oracle", "qc_index"),
    ("oracle", "measured_histogram"),
    ("oracle", "verify_distinctness"),
    ("oracle", "verify_trace_nondegeneracy"),
    ("oracle", "verify_shift_lemma"),
    ("cli", "main"),
    ("cli", "cmd_indices"),
    ("cli", "cmd_enumerate"),
    ("cli", "cmd_closed_form"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_subspaces"),
    ("cli", "factored_form"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.missing = []  # TRACED functions that qcenum no longer has
        self._open = []

    def open(self, name) -> list:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        return record

    def close(self, record) -> None:
        record[2] = time.perf_counter()
        self._open.pop()

    def count(self, name, k) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so self times add up to the traced wall time without
        counting any interval twice.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - covered[i]
        return out


def _wrap(tracer, name, func):
    if inspect.isgeneratorfunction(func):
        # callers list() the subspaces at once, so consume inside the span
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = tracer.open(name)
            try:
                items = list(func(*args, **kwargs))
            finally:
                tracer.close(record)
            tracer.count(name, len(items))
            return iter(items)
    else:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = tracer.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(record)
    return wrapper


@contextlib.contextmanager
def traced(tracer):
    """Route every TRACED function through tracer; functions that no longer
    exist are listed in tracer.missing."""
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == "qcenum" or key.startswith("qcenum."))
    ]
    replaced = []
    try:
        for mod_name, attr in TRACED:
            func = getattr(sys.modules.get("qcenum." + mod_name), attr, None)
            if func is None:
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = _wrap(tracer, f"{mod_name}.{attr}", func)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        replaced.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for mod, key, value in reversed(replaced):
            setattr(mod, key, value)
