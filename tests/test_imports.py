"""Every module-level import in the package's modules is used, every
module-level private definition is referenced somewhere in the package,
array arguments are converted by ``core.real_array`` alone, integer
arguments are checked by the rules in ``core`` alone, and every function
that the benchmark's tracer wraps still exists."""

import ast
import importlib.util
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
