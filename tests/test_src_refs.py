"""Every module-level function and class of src/edgefit serves the package
or the benchmark: a name that no src module references and no perfbench
file names is code that only tests run."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_ONLY = set()


def unreferenced_definitions() -> set[str]:
    """module.name of each module-level def or class of src/edgefit that no
    src module uses as a Name or an Attribute and no perfbench/*.py file
    names."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "edgefit").glob("*.py"))}
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


def test_src_holds_no_test_only_code():
    assert unreferenced_definitions() == TEST_ONLY
