"""The analytic side and the chain-recurrence oracle share nothing but map
evaluation: `chainoracle` imports no module of the package except `maps`,
which imports none, and the analytic modules never import `chainoracle`,
directly or through the package root.  The closed forms in `structure`
never name `maps.runs`, the run splitter of the oracle and the estimator.
The estimator in `backward` never reads the prediction it is compared
with: it imports only `maps` and `orbits`, and the comparisons live in
`cli`.  The export lists are honest too: every name in a module's
`__all__` exists, and the root re-exports only exported names.  No
private helper outlives its last caller: every private function, class
and module-level constant of the package is read somewhere in it.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "unimodal"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if not p.stem.startswith("__"))


def package_imports(source: str) -> set:
    """Modules of the package that source imports; the root is "__init__"."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                path = (node.module or "").split(".")
            elif node.module and node.module.split(".")[0] == "unimodal":
                path = node.module.split(".")[1:]
            else:
                continue
            if path and path[0]:
                out.add(path[0])
            else:
                # from . import x, from unimodal import x: a module or a name
                # of the root
                out.update(a.name if (SRC / f"{a.name}.py").exists() else "__init__"
                           for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                path = a.name.split(".")
                if path[0] == "unimodal":
                    out.add(path[1] if len(path) > 1 else "__init__")
    return out


def imports_of(module: str) -> set:
    return package_imports((SRC / f"{module}.py").read_text())


def test_oracle_imports_only_maps():
    assert imports_of("chainoracle") == {"maps"}


def test_maps_imports_no_module_of_the_package():
    # the oracle's one allowed import must not reach the analytic side
    assert imports_of("maps") == set()


@pytest.mark.parametrize("module", ["structure", "orbits", "backward"])
def test_analytic_side_never_imports_the_oracle(module):
    found = imports_of(module)
    assert "maps" in found
    assert not found & {"chainoracle", "__init__"}


def test_estimator_never_reads_the_prediction():
    assert imports_of("backward") == {"maps", "orbits"}


def test_comparisons_live_in_the_comparison_layer(monkeypatch):
    import unimodal.backward as backward
    from unimodal import (cli, compare_salpha, expansion_time, match_nodes,
                          predicted_salpha)

    assert match_nodes.__module__ == "unimodal.cli"
    assert compare_salpha.__module__ == "unimodal.cli"
    assert predicted_salpha.__module__ == "unimodal.structure"
    assert expansion_time.__module__ == "unimodal.orbits"
    # compare_salpha reaches the estimator through the module attribute, so
    # a wrapper put there sees every estimate
    calls = []
    estimate = backward.salpha

    def spy(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(backward, "salpha", spy)
    cli.compare_salpha(1.8, 0.5, depth=12)
    assert len(calls) == 1


@pytest.mark.parametrize("source,found", [
    ("from .chainoracle import chain_classes", {"chainoracle"}),
    ("from . import chainoracle, maps", {"chainoracle", "maps"}),
    ("import unimodal.chainoracle as co", {"chainoracle"}),
    ("from unimodal.chainoracle import build_grid", {"chainoracle"}),
    ("from unimodal import chainoracle", {"chainoracle"}),
    ("from unimodal import make_tent", {"__init__"}),
    ("import unimodal", {"__init__"}),
    ("def f():\n    from .structure import analytic_nodes", {"structure"}),
    ("import numpy as np\nfrom scipy.sparse import csr_matrix", set()),
])
def test_import_reader(source, found):
    assert package_imports(source) == found


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"unimodal.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# the names of the package root
ROOT_NAMES = {
    "Interval", "PiecewiseMap", "hausdorff", "make_logistic", "make_tent", "make_tu",
    "merge_intervals", "subtract_intervals", "tu_skeleton",
    "Cycle", "critical_orbit", "expansion_bound", "expansion_time", "find_cycle", "make_cycle",
    "CantorCover", "CoreCollection", "LevelPartition", "Node", "PredictedSAlpha",
    "Renormalization", "TrappingRegion", "analytic_nodes", "cantor_cover", "classify_attractor",
    "classify_point", "core_of_node", "is_cyclic", "level_partition", "node_depth",
    "predicted_salpha", "renormalize", "trapping_region", "tu_cycle", "tu_cycles", "tu_nodes",
    "ChainClasses", "GridGraph", "build_grid", "chain_classes", "conley_graph",
    "recurrent_cells", "verify_tower",
    "BackwardTree", "DenseOrbit", "SAlphaEstimate", "build_backward_tree",
    "dense_backward_orbit", "salpha",
    "compare_salpha", "match_nodes",
}


def test_root_reexports_only_exported_names():
    import unimodal

    # the root's table of lazily loaded names: each from a module exporting it
    missing = [f"{module}.{name}" for module, names in unimodal._EXPORTS.items()
               for name in names
               if name not in importlib.import_module(f"unimodal.{module}").__all__]
    assert missing == []
    # each name resolves, to the object of the module that defines it
    wrong = [name for name in unimodal.__all__
             if getattr(unimodal, name) is not getattr(
                 importlib.import_module(f"unimodal.{unimodal._HOME[name]}"), name)]
    assert wrong == []
    # no name listed twice, and today's 51 names
    assert sum(map(len, unimodal._EXPORTS.values())) == len(ROOT_NAMES) == 51
    assert set(unimodal.__all__) == ROOT_NAMES
    star = {}
    exec("from unimodal import *", star)
    assert set(star) - {"__builtins__"} == ROOT_NAMES
    assert ROOT_NAMES <= set(dir(unimodal))


def names_in(source: str) -> set:
    """Every name, attribute and imported name that source mentions."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update((node.name, node.asname))
    return out


def test_analytic_side_never_names_the_run_splitter():
    # the oracle's class supports and the estimator's clusters come from
    # maps.runs; the closed forms must not start sharing it with them
    assert "runs" not in names_in((SRC / "structure.py").read_text())


@pytest.mark.parametrize("source", [
    "from .maps import runs",
    "from .maps import runs as split",
    "from . import maps\nmaps.runs(x, 1)",
    "def f(x):\n    return runs(x, 1)",
])
def test_name_reader_sees_runs(source):
    assert "runs" in names_in(source)


def private_definitions(source: str) -> set:
    """Private functions and classes (nested ones too) and module-level
    constants that source defines: names with one leading underscore."""
    tree = ast.parse(source)
    found = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.add(node.target.id)
    return {name for name in found if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set:
    """Every name and attribute that source reads, and every name it imports;
    assignments and definitions do not count."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_private_name_is_read():
    # a helper that lost its last caller is dead code: delete it with the caller
    sources = [p.read_text() for p in SRC.glob("*.py")]
    defined = set().union(*map(private_definitions, sources))
    read = set().union(*map(names_read, sources))
    assert sorted(defined - read) == []


@pytest.mark.parametrize("source, defined, unread", [
    ("def _f():\n    return 1\n\n_f()", {"_f"}, set()),
    ("_LIMIT = 3\n_N: int = 2\nx = _N", {"_LIMIT", "_N"}, {"_LIMIT"}),
    ("class _Box:\n    def __init__(self):\n        self._n = 1\n    def _get(self):\n"
     "        return self._n", {"_Box", "_get"}, {"_Box", "_get"}),
    ("from .maps import _cut as cut\ndef f(x):\n    def _step(y):\n        return cut(y)\n"
     "    return _step(x)", {"_step"}, set()),
])
def test_private_name_reader(source, defined, unread):
    assert private_definitions(source) == defined
    assert defined - names_read(source) == unread
