"""The package namespace: lazy exports with the same contract as eager ones."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schreier_lab

# Exports whose ``__module__`` does not name their layer (values and a type
# alias), by defining layer.
_DEFINED_IN = {"FundamentalRule": "ordinal", "OMEGA": "ordinal",
               "ONE": "ordinal", "ZERO": "ordinal",
               "STREAM_CATALOG": "streams", "SCHEMA_VERSION": "reports"}


def test_every_export_is_its_layers_own_object():
    for name in schreier_lab.__all__:
        if name == "__version__":
            continue
        value = getattr(schreier_lab, name)
        if name in _DEFINED_IN:
            layer = importlib.import_module(f"schreier_lab.{_DEFINED_IN[name]}")
        else:
            layer = sys.modules[value.__module__]
        attr = "parse" if name == "parse_ordinal" else name
        assert getattr(layer, attr) is value, name


def test_every_layers_all_is_its_export_table_entry():
    for module, names in schreier_lab._LAYERS.items():
        layer = importlib.import_module(f"schreier_lab.{module}")
        exported = {schreier_lab._RENAMED.get(name, name) for name in names}
        assert set(layer.__all__) == exported, module
        assert len(layer.__all__) == len(names), module


def test_only_spaces_reads_a_norm_kind():
    # What a kind's integer totals mean, and how they become values, is
    # decided in ``spaces``; the quantities and the bundles never branch on
    # a kind themselves.
    package = Path(schreier_lab.__file__).parent
    reads = [f"{module}:{node.lineno}" for module in ("quantities", "verify")
             for node in ast.walk(ast.parse((package / f"{module}.py").read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert reads == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from schreier_lab import *", namespace)
    assert set(schreier_lab.__all__) <= set(namespace)


def test_dir_lists_every_export():
    assert set(schreier_lab.__all__) <= set(dir(schreier_lab))


def test_submodules_import_through_the_package():
    from schreier_lab import averages
    assert averages is sys.modules["schreier_lab.averages"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        schreier_lab.nope
    assert not hasattr(schreier_lab, "nope")


def test_importing_the_package_loads_no_layer():
    src = str(Path(schreier_lab.__file__).resolve().parents[1])
    probe = ("import sys, schreier_lab\n"
             "print([m for m in sys.modules if m.startswith('schreier_lab.')])\n"
             "schreier_lab.Budget\n"
             "print([m for m in sys.modules if m.startswith('schreier_lab.')])\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.splitlines() == ["[]", "['schreier_lab.budget']"]


def _load_workloads(monkeypatch):
    """``bench/workloads.py`` as a module, loaded without writing bytecode."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_workloads_import(monkeypatch):
    # The benchmark imports names from several layers, so one moved or
    # renamed away fails here first.  The module is loaded, writing nothing.
    module = _load_workloads(monkeypatch)
    assert all(callable(getattr(module, f"{name}_ops"))
               for name in module.WORKLOADS)


@pytest.mark.parametrize("workload, pass_index", [
    ("bundles", 0), ("norms", 0), ("norms", 1), ("norms", 2), ("averages", 0)])
def test_the_workload_operations_match_their_goldens(monkeypatch, workload,
                                                     pass_index):
    # The operations of the default seed that the goldens store (every
    # bundle level, and the norms passes ``NORM_GOLDEN_PASSES``), judged as
    # the benchmark judges them against the stored outputs, in this process,
    # with the oracles on the first pass.  A change of program output shows
    # here before the benchmark runs.  The ``cli`` workload is left to the
    # README smoke tests: its children take seconds.
    module = _load_workloads(monkeypatch)
    assert module.NORM_GOLDEN_PASSES == 3
    goldens = module.load_goldens()[workload]
    if workload == "bundles":
        ops = module.bundles_ops(module.DEFAULT_SEED, 0, every_level=True)
    else:
        ops = module.build_ops(workload, module.DEFAULT_SEED, pass_index)
    oracle = pass_index == 0
    failed = []
    for op in ops:
        exc = value = None
        try:
            value = op.call()
        except Exception as error:
            exc = error
        status, reason, _ = module.verdict(op, value, exc, goldens, oracle=oracle)
        if status == "failed":
            failed.append(f"{op.name}: {reason}")
    assert ops
    assert failed == []


def test_the_benchmark_selftest_passes():
    # The benchmark's own self-tests, run from the repository root as its
    # usage says, so a change in ``src`` that breaks its traced pass fails here.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def _references(tree) -> list[str]:
    """The names ``tree`` refers to: plain names, attributes and imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend(alias.name.rpartition(".")[2] for alias in node.names)
    return found


def test_every_private_helper_is_referenced_in_src():
    # A private function or class that nothing else in the package names is
    # dead code; a reference inside its own body does not count.
    package = Path(schreier_lab.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))]
    everywhere: dict[str, int] = {}
    for tree in trees:
        for name in _references(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    private = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert len(private) > 100
    unreferenced = [node.name for node in private
                    if everywhere.get(node.name, 0)
                    == _references(node).count(node.name)]
    assert unreferenced == []
