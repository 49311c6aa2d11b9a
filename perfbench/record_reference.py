"""Record the last-10 summary values that ``run.py`` checks against.

Usage, from the repository root:

    python3 perfbench/record_reference.py $(seq 0 127)

The benchmark runs workload seeds 0 .. WORKLOAD_SEEDS-1 (127), so all
of them must be recorded. Runs every workload once per given workload
seed (fresh interpreter, pinned BLAS threads, as the benchmark does) and
writes the values into ``perfbench/reference.json``, keeping the seeds
already there. Re-record an existing seed only for a change that is
meant to alter the federation's results, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil

from run import HERE, WORK, WORKLOADS, repetition

TOLERANCE = 0.005  # absorbs summation-order changes, not a changed result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("seeds", type=int, nargs="+")
    args = ap.parse_args()
    path = HERE / "reference.json"
    table = json.loads(path.read_text())["workloads"]
    WORK.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        recorded = table.setdefault(workload, {})
        for seed in args.seeds:
            out = WORK / "reference_rep"
            try:
                rep = repetition(workload, seed, 0, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            recorded[str(seed)] = [rep["last10_acc"], rep["last10_alignment"]]
            print(workload, seed, recorded[str(seed)], flush=True)
        table[workload] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    ref = {"tolerance": TOLERANCE, "workloads": table}
    path.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
