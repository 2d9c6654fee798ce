"""Every top-level function and class of the library is used by the library or exported."""

import ast
from pathlib import Path

import matmom

SRC = Path(matmom.__file__).parent


def test_no_library_code_only_tests_call():
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    orphans = [f"{file}:{name}" for file, name in defined
               if name not in named and name not in matmom.__all__]
    assert not orphans, f"defined but never used in src/matmom nor exported: {orphans}"
