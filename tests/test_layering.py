"""The package's import layering, read from the `from .x import` lines of
its modules: the root pipeline's stages import only stages below them."""

import ast
import os

import dickelattice

SRC = os.path.dirname(dickelattice.__file__)

# model -> dynamics -> {steady_state, stability} -> classify -> sweep -> cli
LAYER = {"model": 0, "dynamics": 1, "steady_state": 2, "stability": 2,
         "classify": 3, "sweep": 4, "cli": 5}


def _relative_imports(module):
    with open(os.path.join(SRC, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_pipeline_modules_import_only_lower_layers():
    wrong = [(module, dep) for module in LAYER
             for dep in sorted(_relative_imports(module) & LAYER.keys())
             if LAYER[dep] >= LAYER[module]]
    assert wrong == []


def test_stability_reads_states_not_root_searches():
    assert not _relative_imports("stability") & {"steady_state", "classify"}
