"""Write digests.json: a digest of every table and subspace count the checks see.

    python3 bench/make_digests.py

Run from the repository root.  The file pins the outputs of the qcenum that
defined the benchmark, so a later change that moves counts between indices
fails the checks.  Regenerate it only when the benchmark's inputs change, and
only from a qcenum whose tables are known to be right.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)


def main() -> int:
    specs = {
        *workloads.EngineCold.GRID,
        *workloads.EngineSweep().specs,
        *workloads.OracleVerify.CASES,
        *(params for _, params in workloads.CLI_MIX if len(params) == 3),
    }
    digests = {}
    for q, n, zeros in sorted(specs):
        table = workloads.ref_multiplicity_table(workloads.ref_validate_spec(q, n, zeros))
        digests[workloads._label(q, n, zeros)] = workloads.counts_digest(
            table.entries, table.index_n_count
        )
    for _, params in workloads.CLI_MIX:
        if len(params) == 2:
            q, n = params
            counts = workloads.ref_maximal_counts(n, q).counts
            digests[workloads.subspaces_key(q, n)] = workloads.counts_digest(counts)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
