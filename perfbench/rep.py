"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage (from the repository root, BLAS threads already pinned):

    python3 perfbench/rep.py --workload margin_ggrs --seed 0 --trace 0 --out DIR

Times set-up (``parse_config`` plus ``build_clients`` for every run
seed) and then one ``fedgeo.run`` into ``DIR``, with a calibration
kernel timed before and after, and prints one JSON object: timings,
peak RSS, output digests, the last-10 summary values
and, with ``--trace 1``, the per-layer metrics and span call counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fedgeo.config  # noqa: E402
import fedgeo.harness  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _calibration_s() -> float:
    """Time of a fixed kernel shaped like GCN layer steps.

    It runs a layer-sized matmul with ReLU, then many tiny matmuls like
    the small clients' steps, whose per-call overhead reacts to a slow
    host more than a matmul does. On a shared host the speed of one vCPU
    drifts by tens of percent over minutes, and this kernel slows with
    it; ``run.py`` divides timings by it to report them at a nominal
    speed.
    """
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((256, 64)), rng.standard_normal((64, 64))
    x, v = rng.standard_normal((16, 12)), rng.standard_normal((12, 16))
    start = time.perf_counter()
    for _ in range(400):
        np.maximum(a @ w, 0.0).sum()
    for _ in range(2500):
        h = np.maximum(x @ v, 0.0)
        g = x.T @ h
        g *= 0.5
        float(g.sum())
    return time.perf_counter() - start


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--rounds", type=int, default=None)
    args = ap.parse_args()

    text = config_text(args.workload, args.seed, args.rounds)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(rounds=int(fedgeo.config.parse_config(text).rounds))
        tracer.install()

    before = _calibration_s()
    t0 = time.perf_counter()
    cfg = fedgeo.config.parse_config(text)
    for s in cfg.seeds:
        fedgeo.harness.build_clients(cfg, s)
    t1 = time.perf_counter()
    result = fedgeo.harness.run(cfg, out=args.out)
    t2 = time.perf_counter()
    after = _calibration_s()

    out = Path(args.out)
    files = sorted(p for p in out.iterdir() if p.is_file())
    report = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "calibration_s": (before + after) / 2,
        "rounds_total": len(cfg.seeds) * cfg.rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "last10_acc": result.summary["last10"]["test_acc"]["mean"],
        "last10_alignment": result.summary["last10"]["alignment"]["mean"],
        "digests": {p.name: _digest(p) for p in files
                    if p.name == "metrics.csv" or p.name.startswith("regulation_seed")},
        "output_bytes": sum(p.stat().st_size for p in files),
        "manifest": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer is not None:
        layers = tracer.metrics(wall_s=(t1 - t0) + (t2 - t1))
        layers["harness.output_bytes"] = report["output_bytes"]
        report["layers"] = layers
        report["calls"] = tracer.calls()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
