import ast
import importlib
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
    # harness imported, so a round must reach them through the harness
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
                 "metrics.accuracy"):
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


def test_ab_pairs_byte_compiles_both_checkouts(tmp_path):
    # before the first pair, every module of src/ and perfbench/ of each
    # checkout gets its bytecode cache, so no measured repetition compiles
    import importlib.util
    import shutil

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("ab_pairs", root / "tools" / "ab_pairs.py")
    ab_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_pairs)
    for side in ("parent", "change"):
        for part in ("src", "perfbench"):
            shutil.copytree(root / part, tmp_path / side / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        ab_pairs._compile(tmp_path / side)
        sources = sorted((tmp_path / side).rglob("*.py"))
        assert sources
        for py in sources:
            assert Path(importlib.util.cache_from_source(str(py))).is_file(), py
