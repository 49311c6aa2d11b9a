"""fedgeo benchmark: one workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload margin_ggrs --seed 0 --seconds 40 --trace 0

``--seed n`` picks workload seed ``n % WORKLOAD_SEEDS`` (128), every one
of which has recorded reference values, so any seed can be measured and
checked. Repeats the workload's federation (``perfbench/workloads.py``) for
``--seconds``, each repetition in a fresh interpreter (``rep.py``) with
the BLAS thread count pinned before NumPy loads, so every repetition
pays the process-wide caches a CLI user pays and owns its peak RSS.
Every repetition's outputs are checked: ``metrics.csv`` and
``regulation_seed*.jsonl`` digests must agree across the repetitions of
one invocation, and the last-10 accuracy and alignment must match
``reference.json``. A repetition that raises or fails a check counts as
failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over repetitions. The timings among them (``run_s``,
``setup_s``, ``rounds_per_s``) are read at a nominal host speed: each
repetition's wall times are multiplied by ``NOMINAL_CALIBRATION_S`` over
the time of a fixed calibration kernel run in the same interpreter,
because a shared host's speed drifts by tens of percent over minutes.
The unscaled medians are printed as ``wall_run_s`` and ``wall_setup_s``.
``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics (medians over the traced
ones); ``trace.overhead_s`` is traced minus untraced median ``run_s``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # byte-identical outputs hold only at a fixed thread count
REP_TIMEOUT_S = 120
# Nominal host speed: the one at which rep.py's calibration kernel takes
# this long. End-to-end timings are scaled to it, rep by rep.
NOMINAL_CALIBRATION_S = 0.06

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOAD_SEEDS, WORKLOADS  # noqa: E402


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def repetition(workload: str, seed: int, trace: int, out: Path,
               rounds: int | None = None) -> dict:
    """Run ``rep.py`` in a fresh interpreter; its report, or raise."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out", str(out)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(rep: dict, first: dict | None, workload: str, seed: int, rounds: int | None) -> str | None:
    """Why ``rep`` is wrong, or None."""
    if "metrics.csv" not in rep["digests"]:
        return "outputs missing"
    if first is not None and rep["digests"] != first["digests"]:
        return "output digests differ between repetitions"
    if rounds is not None:
        return None  # shortened runs have no recorded reference
    ref = _reference()
    recorded = ref["workloads"][workload].get(str(seed))
    if recorded is None:
        return f"no reference for seed {seed}; record it first with perfbench/record_reference.py"
    for name, value in zip(("last10_acc", "last10_alignment"), recorded):
        if abs(rep[name] - value) > ref["tolerance"]:
            return f"{name} {rep[name]} differs from the reference {value} by more than {ref['tolerance']}"
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: int,
            rounds: int | None = None) -> dict:
    """Repeat the workload for ``seconds``; the result object."""
    WORK.mkdir(exist_ok=True)
    kinds = (0, 1) if trace else (0,)
    reports: dict[int, list[dict]] = {0: [], 1: []}
    attempted = failed = 0
    first = None
    deadline = time.monotonic() + seconds
    while attempted < len(kinds) or time.monotonic() < deadline:
        kind = kinds[attempted % len(kinds)]
        attempted += 1
        out = WORK / f"{workload}_rep{attempted}"
        try:
            rep = repetition(workload, seed, kind, out, rounds)
            why = check(rep, first, workload, seed, rounds)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            why = str(exc)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if why is not None:
            failed += 1
            print(f"repetition {attempted} failed: {why}", file=sys.stderr)
            continue
        first = first or rep
        reports[kind].append(rep)

    plain, traced = reports[0], reports[1]
    samples: dict[str, list[float]] = {}
    for r in traced:
        for name, value in r["layers"].items():
            samples.setdefault(name, []).append(value)
    if traced and plain:
        overhead = _median([r["run_s"] for r in traced]) - _median([r["run_s"] for r in plain])
        samples["trace.overhead_s"] = [overhead]
    if not trace:
        for r in plain:
            scale = NOMINAL_CALIBRATION_S / r["calibration_s"]
            for name in ("peak_rss_mb", "last10_acc", "last10_alignment", "calibration_s"):
                samples.setdefault(name, []).append(r[name])
            for name in ("run_s", "setup_s"):
                samples.setdefault(name, []).append(r[name] * scale)
                samples.setdefault(f"wall_{name}", []).append(r[name])
            samples.setdefault("rounds_per_s", []).append(
                r["rounds_total"] / ((r["run_s"] - r["setup_s"]) * scale))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": _median(samples[m["name"]]), "unit": m["unit"]}
               for m in wanted if m["name"] in samples}

    manifest = dict(first["manifest"]) if first else {}
    manifest.update(nproc=len(os.sched_getaffinity(0)), git_commit=_git_commit(), workload=workload,
                    seed=seed, seconds=seconds, trace=trace)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(f"{workload} seed {seed}: {attempted} repetitions, {failed} failed "
          f"(failed_share {failed / attempted:.3f})")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, xs in samples.items():
        print(f"  {name:32s} {_median(xs):14.6g} {units.get(name, 's'):8s} "
              f"median of {len(xs)}, min {min(xs):.6g}, max {max(xs):.6g}")
    return {
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fedgeo" / "__init__.py").is_file():
        print(f"no fedgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % WORKLOAD_SEEDS
    print(f"seed {args.seed}: workload seed {seed}")
    if str(seed) not in _reference()["workloads"][args.workload]:
        print(f"no reference for workload seed {seed} of {args.workload}; record it at the "
              "parent commit with perfbench/record_reference.py", file=sys.stderr)
        return 2
    print(json.dumps(measure(args.workload, seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
