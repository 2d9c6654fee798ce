"""Every top-level function and class of the library, and every non-dunder method and
property of its classes, has a caller outside the tests.

A name counts as used when it is read (a name or an attribute in Load context) outside
its own definition, in the library's own code, in a python block of README.md or in the
benchmark scripts bench/*.py.  Being listed in __all__, imported, assigned (a dataclass
field of the same name is a store) or read in its own body does not count.
"""

import ast
import re
from pathlib import Path

import matmom

SRC = Path(matmom.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node, enclosing=()):
    """(name, enclosing definitions) for every name and attribute read under node."""
    if isinstance(node, DEFS):
        enclosing += (node,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, enclosing
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, enclosing)


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of the classes."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS[:2]) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def test_no_library_code_only_tests_call():
    defined, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.name, label, node) for label, node in _definitions(tree)]
        reads += _reads(tree)
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.S)
    for block in blocks:
        reads += _reads(ast.parse(block))
    for path in sorted((ROOT / "bench").glob("*.py")):
        reads += _reads(ast.parse(path.read_text(), filename=str(path)))
    readers = {}
    for name, enclosing in reads:
        readers.setdefault(name, []).append(enclosing)
    orphans = [f"{file}:{label}" for file, label, node in defined
               if all(node in enclosing for enclosing in readers.get(node.name, ()))]
    assert not orphans, f"defined but never used in src/matmom, README.md or bench/: {orphans}"
