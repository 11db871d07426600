"""Every module-level function and class of src/edgefit serves the package
or the benchmark: a name that no src module references and no perfbench
file names is code that only tests run. No src module reaches into
another one's private names: what two modules share is public. And a
conv's channel counts come from model.topology's records alone: no other
walker reads a config's width. And no src module calls the numpy
wrappers np.copyto, np.take or np.all, whose array-function dispatch
costs more than the one-window work they do: dst[...] = src, an array's
take method and an array's all method do the same work for less. And the
functions a one-window call runs through build no view: every reshape,
transpose and .T of their operands is bound at plan time."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_ONLY = set()
# model.topology sizes every conv and validate checks the width;
# cmd_train reads argparse's --width, not a config's, and build_parser
# takes ModelConfig's default width as --width's
WIDTH_READERS = {"model.validate", "model.topology", "cli.cmd_train",
                 "cli.build_parser"}
# numpy functions that dispatch through the array-function protocol
# before the method or assignment that does their work (timings in the
# kernels module docstring)
DISPATCHED = {"copyto", "take", "all"}
# what a one-window float or int8 call runs: each of these calls kernels
# on operands its plan bound, and builds no view of them, but in an
# `if ... is None:` branch, which allocates a buffer the caller did not
# give
VIEW_FREE = {"model.forward_batch", "quantize.QuantPlan.run",
             "quantize._ConvStep.run", "quantize._AddStep.run",
             "quantize._HeadStep.run", "kernels.conv1d", "kernels.im2col"}
VIEW_BUILDERS = {"reshape", "transpose", "T"}


def src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "edgefit").glob("*.py"))}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports() -> set[str]:
    """"module: source.name" for each underscore name that a src module
    takes from another src module, by `from .source import _name` or as
    `source._name` of a src module it imports."""
    found = set()
    for module, tree in src_trees().items():
        modules = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            package, _, source = ("edgefit." * node.level
                                  + (node.module or "")).partition(".")
            if package != "edgefit":
                continue
            for alias in node.names:
                if not source:
                    modules.add(alias.asname or alias.name)
                elif is_private(alias.name):
                    found.add(f"{module}: {source}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and is_private(node.attr)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add(f"{module}: {node.value.id}.{node.attr}")
    return found


def unreferenced_definitions() -> set[str]:
    """module.name of each module-level def or class of src/edgefit that no
    src module uses as a Name or an Attribute and no perfbench/*.py file
    names."""
    trees = src_trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    perfbench = "\n".join(path.read_text()
                          for path in sorted((ROOT / "perfbench").glob("*.py")))
    named = set(re.findall(r"\w+", perfbench))
    return {f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in used | named}


def width_readers() -> set[str]:
    """module.function for each function of src/edgefit that reads a
    .width attribute, named by its innermost enclosing def (module.None
    at module level)."""
    found = set()

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "width"
                    and isinstance(child.ctx, ast.Load)):
                found.add(f"{module}.{function}")
            visit(module, child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    for module, tree in src_trees().items():
        visit(module, tree, None)
    return found


def dispatched_calls(trees: dict[str, ast.Module]) -> set[str]:
    """"module:line numpy.name" for each use in trees of a DISPATCHED
    numpy function: an attribute of a name the module imports numpy as,
    or a name taken from numpy by `from numpy import`."""
    found = set()
    for module, tree in trees.items():
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in DISPATCHED
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                found.add(f"{module}:{node.lineno} numpy.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found |= {f"{module}:{node.lineno} numpy.{alias.name}"
                          for alias in node.names
                          if alias.name in DISPATCHED}
    return found


def is_none_test(test: ast.expr) -> bool:
    """Whether test is `name is None`."""
    return (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None)


def view_builds(trees: dict[str, ast.Module], functions: set[str]
                ) -> tuple[set[str], set[str]]:
    """("module.qualname:line .name" for each reshape, transpose or .T in
    the bodies of functions, given as module.qualname, outside the body of
    an `if ... is None:`, whose else is searched; and the functions
    found)."""
    found, seen = set(), set()

    def walk(module, node, qual):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qual = f"{qual}.{node.name}" if qual else node.name
            seen.add(f"{module}.{qual}")
        elif isinstance(node, ast.If) and is_none_test(node.test):
            for stmt in node.orelse:
                walk(module, stmt, qual)
            return
        elif (isinstance(node, ast.Attribute) and node.attr in VIEW_BUILDERS
              and f"{module}.{qual}" in functions):
            found.add(f"{module}.{qual}:{node.lineno} .{node.attr}")
        for child in ast.iter_child_nodes(node):
            walk(module, child, qual)

    for module, tree in trees.items():
        walk(module, tree, "")
    return found, seen & functions


def test_src_holds_no_test_only_code():
    assert unreferenced_definitions() == TEST_ONLY


def test_src_modules_import_no_private_name():
    assert private_imports() == set()


def test_only_topology_reads_a_config_width():
    assert width_readers() == WIDTH_READERS


def test_src_calls_no_dispatched_numpy_wrapper():
    assert dispatched_calls(src_trees()) == set()


def test_dispatched_wrapper_check_sees_every_spelling():
    source = """
import numpy
import numpy as np
from numpy import take, all as every
np.copyto(a, b)
f = numpy.all
a.take(i)
a[...] = b
"""
    assert dispatched_calls({"m": ast.parse(source)}) == {
        "m:4 numpy.take", "m:4 numpy.all", "m:5 numpy.copyto",
        "m:6 numpy.all"}


def test_one_window_path_builds_no_view():
    assert view_builds(src_trees(), VIEW_FREE) == (set(), VIEW_FREE)


def test_view_check_sees_every_spelling():
    source = """
def run(x, w, out=None):
    if out is None:
        out = x.reshape(2, -1)
    else:
        w = w.T
    y = np.transpose(x)
    if out is not None:
        x = x.reshape(-1)
    return x.transpose(1, 0) @ w

class Step:
    def run(self, w):
        return w.T

def other(x):
    return x.reshape(-1)
"""
    assert view_builds({"m": ast.parse(source)},
                       {"m.run", "m.Step.run", "m.absent"}) == (
        {"m.run:6 .T", "m.run:7 .transpose", "m.run:9 .reshape",
         "m.run:10 .transpose", "m.Step.run:14 .T"},
        {"m.run", "m.Step.run"})
