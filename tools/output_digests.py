"""SHA-256 of every byte-checked output file of a fedgeo checkout.

Usage, from a repository root:

    python3 tools/output_digests.py [--root CHECKOUT] [--seeds 0 1 64 127] > digests.txt
    python3 tools/output_digests.py --against PARENT [--seeds 0 1 64 127]

Runs the shipped configs (``configs/*.conf``) and the given workload
seeds (default 0; ``--seeds`` with none runs the configs alone) of every
benchmark workload (``perfbench/workloads.py``) of the checkout at
``--root`` (default: the one holding this script), each through
``fedgeo run`` in a fresh interpreter with 1 BLAS thread, into a
temporary directory. Prints one line ``sha256  <run>/<file>`` for each
``metrics.csv``, ``regulation_seed*.jsonl``, ``summary.json`` and
``config.txt``, sorted by run and file name. ``--root`` lets this copy
measure a checkout that predates it.

With ``--against DIR`` it runs the same configs again with the source of
the checkout ``DIR`` and prints only the lines that differ, ``- `` for
``DIR``'s and ``+ `` for ``--root``'s (a file one side lacks has a line
on the other side only). It exits 1 if any line differs, so checking
that a change keeps every output byte is one command.
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


def _digests(root: Path, runs: list[tuple[str, Path]], work: Path) -> dict[str, str]:
    """{``<run>/<file>``: sha256} of every checked file the runs give with
    ``root``'s source; RuntimeError naming the run if one fails."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in BLAS_VARS})
    digests = {}
    for run_name, config in runs:
        out = work / run_name
        proc = subprocess.run(
            [sys.executable, "-m", "fedgeo.cli", "run", "--config", str(config),
             "--out", str(out)],
            cwd=root, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{root}: {run_name}: fedgeo run exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        for p in sorted({p for pattern in CHECKED for p in out.glob(pattern)}):
            digests[f"{run_name}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="print only the lines that differ from checkout DIR's")
    # extend, so a repeated flag adds its seeds; argparse would extend a
    # list default in place, hence None
    ap.add_argument("--seeds", type=int, nargs="*", action="extend", default=None,
                    help="workload seeds to run (default 0)")
    args = ap.parse_args()
    root = args.root.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = _runs(root, [0] if args.seeds is None else args.seeds, work)
        try:
            ours = _digests(root, runs, work / "root")
            theirs = None
            if args.against:
                theirs = _digests(args.against.resolve(), runs, work / "against")
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 1
    if theirs is None:
        for name, digest in ours.items():
            print(f"{digest}  {name}")
        return 0
    differ = False
    for name in sorted(ours.keys() | theirs.keys()):
        if ours.get(name) != theirs.get(name):
            differ = True
            for sign, side in (("-", theirs), ("+", ours)):
                if name in side:
                    print(f"{sign} {side[name]}  {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
