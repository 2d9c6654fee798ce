"""Every top-level function and class of the library has a caller outside the tests.

A name counts as used when it is read (as a name or an attribute) in the library's own
code, in a python block of README.md or in the benchmark scripts bench/*.py.  Being
listed in __all__ or imported does not count.
"""

import ast
import re
from pathlib import Path

import matmom

SRC = Path(matmom.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_library_code_only_tests_call():
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        named |= _read_names(tree)
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.S)
    for block in blocks:
        named |= _read_names(ast.parse(block))
    for path in sorted((ROOT / "bench").glob("*.py")):
        named |= _read_names(ast.parse(path.read_text(), filename=str(path)))
    orphans = [f"{file}:{name}" for file, name in defined if name not in named]
    assert not orphans, f"defined but never used in src/matmom, README.md or bench/: {orphans}"
