"""Self-checks of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench

Each workload runs for 2 rounds here; that is enough to show that every
metric named in BENCHMARK.json is emitted and that every wrapper sits
where the harness looks the function up (a wrapper patched at the wrong
name reads zero calls).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import HERE, ROOT, WORK, _reference, check, measure, repetition
from workloads import WORKLOAD_SEEDS, WORKLOADS, config_text

sys.path.insert(0, str(ROOT / "src"))
import fedgeo  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 2  # rounds

SPANS = {
    "config.parse", "graphs.generate", "graphs.normalize", "partition.split",
    "harness.run", "client.local_train", "model.gradient", "model.forward_train",
    "model.forward_eval", "model.layout", "model.adj_matmul", "server.regulate",
    "server.proxy_map", "server.update_reference", "server.align", "server.project",
    "server.clip", "metrics.coherence", "metrics.accuracy",
}
GATES = {"server.align", "server.project", "server.clip"}  # ggrs only


def test_default_seed_reproduces_shipped_config():
    shipped = (ROOT / "configs" / "alignment_margin_ggrs.conf").read_bytes()
    assert config_text("margin_ggrs").encode() == shipped


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_run_and_partition_seeds(workload):
    a = fedgeo.parse_config(config_text(workload, 0))
    b = fedgeo.parse_config(config_text(workload, 7))
    assert set(a.seeds).isdisjoint(b.seeds)
    assert (a.partition_seed, b.partition_seed) == (0, 7)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_emitted(workload, trace):
    result = measure(workload, 0, seconds=0, trace=trace, rounds=TINY)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_wrapped_layer_reports_calls(workload):
    out = WORK / f"selfcheck_{workload}"
    try:
        rep = repetition(workload, 0, 1, out, rounds=TINY)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    expected = SPANS - GATES if workload == "crowd_plain" else SPANS
    assert set(rep["calls"]) == expected
    assert all(rep["calls"][name] > 0 for name in expected)
    layers = rep["layers"]
    assert layers["server.proxy_projected_share"] == (1.0 if workload == "wide_ggrs" else 0.0)
    if workload == "margin_ggrs":
        assert layers["model.adj_matmul_repeat_share"] == 1.0
    if workload == "crowd_plain":
        assert layers["server.basis_unused_share"] == 1.0


def test_check_rejects_changed_outputs():
    ref = _reference()
    values, tol = ref["workloads"]["margin_ggrs"]["0"], ref["tolerance"]
    good = {"digests": {"metrics.csv": "a"}, "last10_acc": values[0],
            "last10_alignment": values[1]}
    assert check(good, good, "margin_ggrs", 0, None) is None
    assert check({**good, "digests": {"metrics.csv": "b"}}, good, "margin_ggrs", 0, None)
    assert check({**good, "last10_acc": values[0] + 2 * tol}, None, "margin_ggrs", 0, None)
    assert check({**good, "digests": {}}, None, "margin_ggrs", 0, None)
    assert check(good, None, "margin_ggrs", 10 ** 6, None)  # no reference recorded


def test_refuses_to_run_without_the_sources():
    bare = WORK / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "margin_ggrs", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_workload_seed_has_a_reference():
    table = _reference()["workloads"]
    for workload in WORKLOADS:
        assert set(table[workload]) == {str(s) for s in range(WORKLOAD_SEEDS)}


def test_any_seed_runs_a_recorded_workload_seed():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "margin_ggrs",
         "--seed", str(10 ** 6 + 5), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert f'"seed": {(10 ** 6 + 5) % WORKLOAD_SEEDS}' in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
