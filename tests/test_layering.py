"""The package's import layering, read from the import statements of its
modules: the root pipeline's stages import only stages below them, and no
module imports scipy.  Also read from the source: every error class is
raised somewhere."""

import ast
import glob
import os

import dickelattice

SRC = os.path.dirname(dickelattice.__file__)

# model -> dynamics -> {steady_state, stability} -> classify -> sweep -> cli,
# with the stepper (_dop853) below dynamics and the worker pool (_pool)
# below the root search and the verdicts
LAYER = {"model": 0, "_dop853": 0, "dynamics": 1, "_pool": 1,
         "steady_state": 2, "stability": 2, "classify": 3, "sweep": 4,
         "cli": 5}


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


def _identifiers(module):
    """Every name that module defines, imports, reads or looks up as an
    attribute."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_only_the_pool_sizes_stacks():
    # how many matrices a stack holds, and so whether it goes to the
    # pool, is decided in _pool alone: callers pass the matrix order
    wrong = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        if module != "_pool":
            wrong += [(module, name) for name in sorted(
                _identifiers(module) & {"STACK_BYTES", "stack_size"})]
    assert wrong == []


def test_sweep_runs_the_root_pipeline_once():
    # phase cells and cut rows share one task: roots -> verdicts -> stable
    # classes is written once in sweep
    calls = [node.func.id for node in ast.walk(_tree("sweep"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert [calls.count(name) for name in ("find_all", "stable_class_set")] \
        == [1, 1]


def _raised_names(module):
    """The name of each class that a raise statement of module raises."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised():
    # an exception class that nothing raises is dead code, and an except
    # clause naming it handles nothing
    classes = {node.name for node in _tree("errors").body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        raised.update(_raised_names(os.path.basename(path)[:-3]))
    assert classes and classes - raised == set()


def _absolute_imports(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_scipy_at_import_time():
    # no module imports scipy, at module level or inside a function:
    # _dop853 reads only scipy's file of coefficients, and _blas pins
    # numpy's OpenBLAS, so no process loads scipy or its own OpenBLAS
    wrong = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        wrong += [(module, name)
                  for name in _absolute_imports(ast.walk(_tree(module)))
                  if name.split(".")[0] == "scipy"]
    assert wrong == []


def _small_float_literals(module):
    """(line, value) of each float literal with 0 < |x| < 1e-2 in module
    that is not the whole value of a module-level NAME = literal."""
    tree = _tree(module)
    named = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            value = node.value
            if isinstance(value, ast.UnaryOp):     # NAME = -1e-3
                value = value.operand
            named.add(id(value))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) < 1e-2 and id(node) not in named]


def test_small_float_literals_are_named_module_constants():
    # a tolerance is defined once, with a name: a small float written out
    # in a function body or a default is a second, unnamed definition
    wrong = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        wrong += [(module, line, value)
                  for line, value in _small_float_literals(module)]
    assert wrong == []


def _constant_defaults():
    """Parameter name -> the ALL-CAPS names that parameters of that name
    default to in the package's functions, cli's aside."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        if module == "cli":
            continue
        for fn in ast.walk(_tree(module)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args.posonlyargs + fn.args.args
            pairs = list(zip(args[len(args) - len(fn.args.defaults):],
                             fn.args.defaults))
            pairs += zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            for arg, default in pairs:
                if isinstance(default, ast.Name) and default.id.isupper():
                    found.setdefault(arg.arg, set()).add(default.id)
    return found


def test_cli_defaults_are_the_library_constants():
    # an option whose library parameter defaults to a module constant
    # takes that constant by name, not a copy of its value
    constants = _constant_defaults()
    [options] = [node.value for node in _tree("cli").body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_OPTIONS"]
    checked, wrong = set(), []
    for row in options.elts:
        key, default = row.elts[0].value, row.elts[2]
        if key in constants:
            checked.add(key)
            if not (isinstance(default, ast.Name)
                    and default.id in constants[key]):
                wrong.append((key, ast.unparse(default)))
    assert wrong == []
    assert {"n_random_seeds", "dedup_tol", "t_end", "settle_tol", "rtol",
            "atol", "init_amplitude", "scale"} <= checked
