"""Record the reference outputs of every workload on the default seed.

    python3 bench/record_reference.py

Writes bench/reference.json. ``run.py`` compares each pass against it when
run with the default seed: exact partitions and inner-iteration counts,
objectives and summary gaps to a relative tolerance. Re-record only when a
change is meant to alter those outputs, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads and puts the package on the path


def main() -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    reference = {"seed": DEFAULT_SEED, "commit": run.environment()["commit"]}
    for name, workload in WORKLOADS.items():
        state = workload.setup(DEFAULT_SEED)
        verdict = workload.evaluate(state, workload.run_pass(state))
        if verdict.problems:
            print(f"{name}: outputs fail their checks: {verdict.problems}",
                  file=sys.stderr)
            return 1
        reference[name] = verdict.record
        print(f"{name}: recorded {len(verdict.record)} rows")
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
