"""Every module-level import in the package's modules is used, every
module-level private definition is referenced somewhere in the package,
array arguments are converted by ``core.real_array`` alone, integer
arguments are checked by the rules in ``core`` alone, every function
that the benchmark's tracer wraps still exists, and no step loads a scipy
module: fits (a wide one whose Gram is large enough for the filtered
iteration among them), clustering scores, labelled experiment runs and every
CLI step load neither ``scipy.optimize`` nor ``scipy.linalg``, nor any other."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epca

PACKAGE = sorted(Path(epca.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert unused == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(epca.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(epca.__all__) == sorted(imported | {"__version__"})


def _private_definitions(tree):
    """Module-level private functions, classes and constants (not dunders)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            stored = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in stored if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _referenced_names(tree):
    """Every name the module reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_definition_is_referenced_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    referenced = set().union(*map(_referenced_names, trees.values()))
    unreferenced = sorted(f"{stem}.{name} (line {line})" for stem, tree in trees.items()
                          for name, line in _private_definitions(tree).items()
                          if name not in referenced)
    assert unreferenced == []


def test_every_exported_name_is_used_in_the_package():
    # reconstruct is the documented inverse of transform and appears in the
    # README quick start, so it stays public without a caller in the package.
    exempt = {"reconstruct"}
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                               for p in MODULES))
    assert sorted(set(epca.__all__) - referenced - exempt) == []


# The sites that convert their own arrays by a rule of their own: labels are
# whole numbers, and ingest_csv builds its matrix from floats it parsed itself.
_OWN_ARRAY_RULE = {("evaluation", "_whole_numbers"), ("harness", "ingest_csv")}


def _array_conversions(tree):
    """``{top-level definition: [lines]}`` of each ``np.asarray``/``np.array``
    call that converts a parameter (``self.<field>`` too) or asks for floats."""
    found = {}
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        for func in (node for node in ast.walk(top) if isinstance(node, ast.FunctionDef)):
            args = func.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                        and node.func.attr in ("asarray", "array", "ascontiguousarray")
                        and node.args):
                    continue
                arg = node.args[0]
                converts_param = ((isinstance(arg, ast.Name) and arg.id in params)
                                  or (isinstance(arg, ast.Attribute)
                                      and isinstance(arg.value, ast.Name)
                                      and arg.value.id == "self"))
                to_float = any(k.arg == "dtype" and isinstance(k.value, ast.Name)
                               and k.value.id == "float" for k in node.keywords)
                if converts_param or to_float:
                    found.setdefault(top.name, set()).add(node.lineno)
    return found


def test_array_arguments_are_converted_by_core_real_array():
    sites = {(p.stem, name): lines for p in MODULES if p.stem != "core"
             for name, lines in _array_conversions(ast.parse(p.read_text(encoding="utf-8"))).items()}
    stray = sorted(f"{stem}.{name} (lines {sorted(lines)})"
                   for (stem, name), lines in sites.items() if (stem, name) not in _OWN_ARRAY_RULE)
    assert stray == []
    # The exemptions name sites that still exist.
    assert sorted(_OWN_ARRAY_RULE - sites.keys()) == []


def test_integer_rules_are_applied_by_core_alone():
    # Outside core an integer argument goes through as_count, as_seed or
    # check_rank, so each integer rule and its message live in one place.
    calls = sorted(f"{p.stem} (line {node.lineno})" for p in MODULES if p.stem != "core"
                   for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Call)
                   and (getattr(node.func, "id", None) == "as_integer"
                        or getattr(node.func, "attr", None) == "as_integer"))
    assert calls == []


def test_every_benchmark_trace_target_resolves():
    # perfbench/tracing.py wraps these module globals on every benchmark
    # run, so one that is renamed or no longer imported fails every run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = sorted(f"{module.__name__}.{attr}" for module, attr, *_ in tracing.TARGETS
                     if not callable(getattr(module, attr, None)))
    assert tracing.TARGETS
    assert missing == []


_NO_SCIPY_RUN = """
import sys
from pathlib import Path

import numpy as np

import epca
import epca.cli
from epca import (CorruptionSpec, DataMatrix, ExperimentConfig, LabelVector, SigmaLossParams,
                  clustering_accuracy, corrupt, epca_fit, fit_classical_pca, fit_pca_om,
                  reconstruct, reconstruction_error, run_experiment, transform)
from epca.core import _SMALL_GRAM, gram_route


def no_scipy(step):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, (step, loaded)


tmp = Path(sys.argv[1])
gen = np.random.default_rng(0)
wide, tall = DataMatrix(gen.normal(size=(40, 12))), DataMatrix(gen.normal(size=(5, 30)))
assert gram_route(40, 12, 2) and not gram_route(5, 30, 2)
for X in (wide, tall):
    epca_fit(X, 2, SigmaLossParams(1.0))
    fit_classical_pca(X, 2)
    model = fit_pca_om(X, 2)
    reconstruct(model, transform(model, X.values))
    X_occ, _, _ = corrupt(X, CorruptionSpec(0.5, 0.5, seed=1))
    reconstruction_error(X, X_occ, model.basis, model.translation)
no_scipy("small fits")

# Rank-5 data with 10% outlier columns, whose Gram is too large for the
# direct eigh: every basis step runs the filtered iteration.
basis = np.linalg.qr(gen.normal(size=(600, 5)))[0]
planted = 5.0 + basis @ (3.0 * gen.normal(size=(5, 200))) + 0.05 * gen.normal(size=(600, 200))
planted[:, :20] += gen.normal(size=(600, 20))
assert gram_route(600, 200, 5) and 200 > _SMALL_GRAM
assert epca_fit(planted, 5, SigmaLossParams(1.0)).iterations > 1
fit_classical_pca(planted, 5)
no_scipy("filtered Gram fits")

accuracy = clustering_accuracy([1, 1, 0, 0, 0], LabelVector.from_raw([0, 0, 1, 1, 0]))
assert accuracy == 0.8, accuracy
no_scipy("clustering_accuracy")

data, labels = tmp / "data.csv", tmp / "labels.csv"
occluded, model = tmp / "occluded.csv", tmp / "model.json"
np.savetxt(data, gen.normal(size=(30, 5)), delimiter=",")
np.savetxt(labels, np.arange(30) % 3, fmt="%d")
for labels_path in (None, str(labels)):
    report = run_experiment(ExperimentConfig(
        str(data), ["classical_pca", "epca", "pca_om"], [2], [1.0],
        CorruptionSpec(0.2, 0.2, seed=0), [0], labels_path=labels_path, kmeans_restarts=3))
    assert all((cell["mean_accuracy"] is None) == (labels_path is None)
               for cell in report.cells), report.cells
    no_scipy(f"run_experiment, labels {labels_path}")
for argv in (["corrupt", "--input", str(data), "--out", str(occluded)],
             ["fit", "--input", str(occluded), "--rank", "2", "--out", str(model)],
             ["grid-sigma", "--input", str(data), "--rank", "2", "--sigma", "0.5",
              "--sigma", "1", "--sigma", "2"],
             ["eval", "--clean", str(data), "--occluded", str(occluded), "--model", str(model)],
             ["eval", "--clean", str(data), "--occluded", str(occluded), "--model", str(model),
              "--labels", str(labels), "--restarts", "3"],
             ["run", "--input", str(data), "--labels", str(labels), "--rank", "2",
              "--sigma", "1", "--seed", "0", "--restarts", "3"]):
    assert epca.cli.main(argv) == 0, argv
    no_scipy(argv)
"""


def test_no_step_loads_scipy(tmp_path):
    # The steps run in a fresh interpreter, since the test process has loaded
    # scipy.optimize and scipy.linalg already.
    src = str(Path(epca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
