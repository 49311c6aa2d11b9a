"""SHA-256 of every byte-checked output file of a fedgeo checkout.

Usage, from a repository root:

    python3 tools/output_digests.py [--root CHECKOUT] [--seeds 0 1 64 127] > digests.txt

Runs the shipped configs (``configs/*.conf``) and the given workload
seeds (default 0) of every benchmark workload (``perfbench/workloads.py``)
of the checkout at ``--root`` (default: the one holding this script),
each through ``fedgeo run`` in a fresh interpreter with 1 BLAS thread,
into a temporary directory. Prints one line ``sha256  <run>/<file>`` for
each ``metrics.csv``, ``regulation_seed*.jsonl``, ``summary.json`` and
``config.txt``, sorted by run and file name. Comparing two checkouts is
one run per checkout plus ``diff``; ``--root`` lets this copy measure a
checkout that predates it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKED = ("metrics.csv", "regulation_seed*.jsonl", "summary.json", "config.txt")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _runs(root: Path, seeds: list[int], work: Path) -> list[tuple[str, Path]]:
    """(run name, config path) of every run, workload configs written to ``work``."""
    runs = [(p.stem, p) for p in sorted((root / "configs").glob("*.conf"))]
    sys.path.insert(0, str(root / "perfbench"))
    from workloads import WORKLOADS, config_text

    for name in sorted(WORKLOADS):
        for seed in seeds:
            path = work / f"{name}_seed{seed}.conf"
            path.write_text(config_text(name, seed))
            runs.append((path.stem, path))
    return runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0],
                    help="workload seeds to run (default 0)")
    args = ap.parse_args()
    root = args.root.resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in BLAS_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for run_name, config in _runs(root, args.seeds, work):
            out = work / "out" / run_name
            proc = subprocess.run(
                [sys.executable, "-m", "fedgeo.cli", "run", "--config", str(config),
                 "--out", str(out)],
                cwd=root, env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{run_name}: fedgeo run exited {proc.returncode}: {proc.stderr.strip()}",
                      file=sys.stderr)
                return 1
            files = sorted({p for pattern in CHECKED for p in out.glob(pattern)})
            for p in files:
                digest = hashlib.sha256(p.read_bytes()).hexdigest()
                print(f"{digest}  {run_name}/{p.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
