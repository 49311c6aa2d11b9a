import ast
import dataclasses
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fedgeo

# the package and each of its modules that declares __all__
MODULES = [fedgeo] + [
    m for m in (importlib.import_module(f"fedgeo.{info.name}")
                for info in sorted(pkgutil.iter_modules(fedgeo.__path__), key=lambda i: i.name))
    if hasattr(m, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is deleted would fail
    # only at `from fedgeo import *` time
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_every_dataclass_the_package_defines_is_frozen():
    # records are inputs and values; what training changes lives in the
    # Federation, so no dataclass of the package can be written into
    mutable = sorted(f"{m.__name__}.{name}" for m in MODULES
                     for name, obj in vars(m).items()
                     if dataclasses.is_dataclass(obj) and isinstance(obj, type)
                     and obj.__module__ == m.__name__
                     and not obj.__dataclass_params__.frozen)
    assert mutable == []


# exported names that no module of the package reads, each with the
# reason it stays
UNREAD_EXPORTS = {
    "graph_io.save_graph_csv": "the only writer of the format data.kind = csv reads; "
                               "test_graph_io round-trips the loader against it",
    "model.unflatten": "the inverse of flatten, which tests use to rebuild a parameter set; "
                       "perfbench's tracer patches it by name in model, client and harness",
}


def test_every_exported_name_is_read_by_the_package():
    # a public name that nothing reads is surface to keep for no run:
    # delete it, or list it above with its reason
    read = set()
    for path in Path(fedgeo.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{m.__name__.removeprefix('fedgeo.')}.{name}"
                    for m in MODULES if m is not fedgeo for name in m.__all__
                    if name not in read)
    assert unread == sorted(UNREAD_EXPORTS)


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/tracer.py wraps fedgeo functions under the module names
    # they are looked up by; a refactor that drops one of those names
    # fails here, not only under `pytest perfbench`
    root = Path(__file__).resolve().parent.parent
    code = "from tracer import Tracer; Tracer(1).install()"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "perfbench"), str(root / "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_counts_the_layers_of_a_short_run(tmp_path):
    # the tracer's callbacks read the server state (``ref.window``) and
    # the report (``report.clients``); a refactor that breaks one, or
    # leaves a traced layer uncalled, fails here, not only under
    # `pytest perfbench`. The two metrics spans patch the names the
    # harness imported, so a round must reach them through the harness,
    # and the three build spans the names it builds each source through
    root = Path(__file__).resolve().parent.parent
    code = textwrap.dedent("""\
        import dataclasses, json, sys, time
        from tracer import Tracer
        import fedgeo.config, fedgeo.harness
        tracer = Tracer(rounds=2)
        tracer.install()
        cfg = dataclasses.replace(fedgeo.config.load_config(sys.argv[1]), rounds=2)
        start = time.perf_counter()
        fedgeo.harness.run(cfg, out=sys.argv[2])
        tracer.metrics(wall_s=time.perf_counter() - start)
        print(json.dumps(tracer.calls()))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "perfbench"), str(root / "src")]))
    proc = subprocess.run([sys.executable, "-c", code, str(root / "configs" / "smoke.conf"),
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ("server.regulate", "server.update_reference", "server.proxy_map",
                 "client.local_train", "model.layout", "metrics.coherence",
                 "metrics.accuracy", "graphs.generate", "graphs.normalize",
                 "partition.split"):
        assert calls.get(name, 0) > 0, (name, calls)


@pytest.mark.parametrize("tool", ["output_digests.py", "ab_pairs.py"])
def test_benchmark_tools_print_their_help(tool):
    # the A/B and output-identity tools are run by hand, so no other test
    # would notice one that no longer starts
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, str(root / "tools" / tool), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_ab_pairs_refuses_an_unknown_workload_before_any_run(tmp_path):
    # a typo among several names fails at once, not after the first
    # workload's pairs; the parent path is never entered
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, str(root / "tools" / "ab_pairs.py"),
                           "--parent", str(tmp_path / "absent"), "--seed", "0",
                           "--workload", "wide_ggrs", "no_such_workload"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "unknown workload no_such_workload" in proc.stderr
    assert "wide_ggrs pair" not in proc.stderr


def test_ab_pairs_reads_every_repeated_workload_flag(tmp_path):
    # a repeated --workload adds its names: the unknown one in the first
    # flag is refused by name, before any run
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, str(root / "tools" / "ab_pairs.py"),
                           "--parent", str(tmp_path / "absent"), "--seed", "0",
                           "--workload", "nope", "--workload", "margin_ggrs"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "unknown workload nope;" in proc.stderr
    assert "margin_ggrs pair" not in proc.stderr


def test_output_digests_of_a_checkout_against_itself_print_nothing(tmp_path):
    # --against prints only the lines that differ and exits 1 on any; a
    # checkout of the smoke config alone keeps the two runs short
    import shutil

    root = Path(__file__).resolve().parent.parent
    checkout = tmp_path / "checkout"
    shutil.copytree(root / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (checkout / "configs").mkdir()
    shutil.copy(root / "configs" / "smoke.conf", checkout / "configs")
    (checkout / "perfbench").mkdir()
    shutil.copy(root / "perfbench" / "workloads.py", checkout / "perfbench")
    proc = subprocess.run([sys.executable, str(root / "tools" / "output_digests.py"),
                           "--root", str(checkout), "--against", str(checkout), "--seeds"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def _ab_pairs():
    """``tools/ab_pairs.py`` loaded as a module."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("ab_pairs", root / "tools" / "ab_pairs.py")
    ab_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_pairs)
    return ab_pairs


def test_ab_pairs_byte_compiles_both_checkouts(tmp_path):
    # before the first pair, every module of src/ and perfbench/ of each
    # checkout gets its bytecode cache, so no measured repetition compiles
    import shutil

    root = Path(__file__).resolve().parent.parent
    ab_pairs = _ab_pairs()
    for side in ("parent", "change"):
        for part in ("src", "perfbench"):
            shutil.copytree(root / part, tmp_path / side / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        ab_pairs._compile(tmp_path / side)
        sources = sorted((tmp_path / side).rglob("*.py"))
        assert sources
        for py in sources:
            assert Path(importlib.util.cache_from_source(str(py))).is_file(), py


def test_ab_pairs_verdict_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parents_iqr():
    verdict = _ab_pairs().verdict
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045
    lower = [p - 0.5 for p in parent]
    assert verdict(parent, parent, "lower") == verdict(parent, list(parent), "higher") == "same"
    assert verdict(parent, lower, "lower") == verdict(lower, parent, "higher") == "better"
    assert verdict(parent, lower, "higher") == verdict(lower, parent, "lower") == "worse"
    # 9 of 10 pairs is enough, 8 is not; a tie counts for neither side
    for changed, want in ((9, "better"), (8, "unresolved")):
        for other in (1.5, None):  # the rest lost, or tied
            change = lower[:changed] + [other or p for p in parent[changed:]]
            assert verdict(parent, change, "lower") == want, (changed, other)
    # every pair won, but the medians differ by no more than the parent's IQR
    assert verdict(parent, [p - 0.04 for p in parent], "lower") == "unresolved"
    assert verdict(parent, [p - 0.05 for p in parent], "lower") == "better"
    # the medians differ beyond the IQR, but the pairs split
    split = [p - 1.0 if i % 2 else p + 0.001 for i, p in enumerate(parent)]
    assert verdict(parent, split, "lower") == "unresolved"
