"""Record the reference outputs that benchmark runs are checked against.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs one full-size pass of every workload for each shipped seed and writes
``perfbench/reference/<workload>.json``: a digest per simulation run and
[upper, lower] per certified point or bound query.  ``bounds_grid`` outputs
do not depend on the seed: the whole grid is stored once, under "grid", in
canonical order.  Re-record only on purpose: a run whose outputs differ from
these files counts them as failed (lower bounds that fall are only counted,
as ``bounds_lower.changed_vs_reference``).
"""
import json
import sys

import run

SEEDS = range(16)


def main() -> int:
    run.require_source()
    import workloads

    run.REFERENCE.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        keys = ["grid"] if name == "bounds_grid" else [str(s) for s in SEEDS]
        entries = {}
        for key in keys:
            inputs = (workloads.build(name, 0, workloads.Sizes(grid="all"))
                      if key == "grid" else workloads.build(name, int(key)))
            outputs = run.run_pass(workloads, inputs).outputs
            entries[key] = workloads.reference_entries(inputs, outputs)
            print(name, key, flush=True)
        with open(run.REFERENCE / f"{name}.json", "w") as f:
            f.write("{\n" + ",\n".join(
                f"{json.dumps(k)}: {json.dumps(v)}"
                for k, v in entries.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
