"""Alternating A/B benchmark of a parent checkout against this one.

Usage, from a repository root:

    python3 tools/ab_pairs.py --parent DIR [--workload crowd_plain ...] --seed 101 \
        --pairs 10 --seconds 40

For each named workload (default: every workload of this checkout's
``BENCHMARK.json``; names may follow one ``--workload`` or several,
and an unknown name is refused before any run), each
pair runs ``perfbench/run.py --trace 0`` once in the parent checkout
``DIR`` and once in the checkout holding this script, the parent first
in even pairs and second in odd ones, so a shared host's slow drift
falls on both sides. Then it prints one table per workload: for every
end-to-end metric of ``BENCHMARK.json``, the median over the pairs on
each side, the parent's interquartile range, in how many pairs the
change was strictly better in the metric's direction, and a verdict
(see ``verdict``). Each pair's
values go to standard error as they arrive. A side whose benchmark
reports failed repetitions is counted, and the tool exits 1 if there
were any.

Before the first pair it byte-compiles ``src/`` and ``perfbench/`` of
both checkouts, so that neither side compiles modules inside a measured
repetition: compiling raises a process's peak RSS by about 1.3 MB, and
a checkout without bytecode caches would compile in every repetition
when ``PYTHONDONTWRITEBYTECODE`` is set.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent  # the checkout holding this script


def _measure(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` invocation in ``root``; its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: perfbench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _compile(root: Path) -> None:
    """Byte-compile ``src/`` and ``perfbench/`` of the checkout ``root``."""
    for part in ("src", "perfbench"):
        if not compileall.compile_dir(root / part, quiet=1):
            raise RuntimeError(f"{root / part}: byte-compiling failed")


def verdict(parent: list[float], change: list[float], better: str) -> str:
    """``same`` when every pair gave identical values; ``better`` or
    ``worse`` when the change or the parent won at least 9 of every 10
    pairs in the metric's direction (``better``: "higher" or "lower";
    a tie counts for neither) and the medians differ that way by more
    than the parent's interquartile range; ``unresolved`` otherwise."""
    if all(p == c for p, c in zip(parent, change)):
        return "same"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = sign * (statistics.median(change) - statistics.median(parent))
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return "better"
    if 10 * losses >= 9 * len(parent) and -gain > q3 - q1:
        return "worse"
    return "unresolved"


def _table(workload: str, values: dict, spec: list, args) -> None:
    """The comparison table of one workload's pairs."""
    print(f"{workload} seed {args.seed}, {args.pairs} alternating pairs of "
          f"{args.seconds:g} s runs")
    print(f"{'metric':18s} {'unit':9s} {'parent':>11s} {'change':>11s} "
          f"{'parent IQR':>23s} {'change better':>14s} {'verdict':>11s}")
    for m in spec:
        name = m["name"]
        parent, change = values["parent"].get(name), values["change"].get(name)
        if not parent or not change:
            print(f"{name:18s} missing")
            continue
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        print(f"{name:18s} {m['unit']:9s} {statistics.median(parent):11.5g} "
              f"{statistics.median(change):11.5g} {q1:11.5g}-{q3:<11.5g} "
              f"{wins:>9d}/{len(parent)} {verdict(parent, change, m['better']):>11s}")


def main() -> int:
    bench = json.loads((CHANGE / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    # extend, so a repeated flag adds its names; argparse would extend a
    # list default in place, hence None
    ap.add_argument("--workload", nargs="*", action="extend", default=None,
                    help="workloads to run (default: every one in BENCHMARK.json)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="length of each run (default: the benchmark's run_seconds)")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    workloads = args.workload or known  # a bare --workload names none
    unknown = [w for w in workloads if w not in known]
    if unknown:
        ap.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(known)}")
    roots = {"parent": args.parent.resolve(), "change": CHANGE}
    for root in roots.values():
        _compile(root)

    failed = {side: 0 for side in roots}
    for workload in workloads:
        values: dict[str, dict[str, list[float]]] = {side: {} for side in roots}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = _measure(roots[side], workload, args.seed, args.seconds)
                failed[side] += result["failed"]
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
                shown = ", ".join(f"{name} {m['value']:.6g}"
                                  for name, m in result["metrics"].items())
                print(f"{workload} pair {i + 1} {side}: {shown}", file=sys.stderr)
        _table(workload, values, bench["end_to_end"], args)
    print(f"failed repetitions: parent {failed['parent']}, change {failed['change']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
