"""The package's import layering, read from the import statements of its
modules: the root pipeline's stages import only stages below them, and no
module imports scipy when it is imported."""

import ast
import glob
import os

import dickelattice

SRC = os.path.dirname(dickelattice.__file__)

# model -> dynamics -> {steady_state, stability} -> classify -> sweep -> cli,
# with the worker pool (_pool) below the root search and the verdicts
LAYER = {"model": 0, "dynamics": 1, "_pool": 1, "steady_state": 2,
         "stability": 2, "classify": 3, "sweep": 4, "cli": 5}


def _tree(module):
    with open(os.path.join(SRC, module + ".py")) as fh:
        return ast.parse(fh.read())


def _relative_imports(module):
    return {node.module for node in ast.walk(_tree(module))
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_pipeline_modules_import_only_lower_layers():
    wrong = [(module, dep) for module in LAYER
             for dep in sorted(_relative_imports(module) & LAYER.keys())
             if LAYER[dep] >= LAYER[module]]
    assert wrong == []


def test_stability_reads_states_not_root_searches():
    assert not _relative_imports("stability") & {"steady_state", "classify"}


def test_no_module_imports_scipy_at_import_time():
    # scipy.integrate is ~0.6 s of import: scipy is imported inside the
    # functions that need it (_blas, the integrators)
    wrong = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        for node in _tree(module).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            wrong += [(module, name) for name in names
                      if name.split(".")[0] == "scipy"]
    assert wrong == []
