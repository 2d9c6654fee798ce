"""Every top-level function and class of the library, and every non-dunder method and
property of its classes, has a caller outside the tests.

A name counts as used when it is read (a name or an attribute in Load context) outside
its own definition, in the library's own code, in a python block of README.md or in the
benchmark scripts bench/*.py.  Being listed in __all__, imported, assigned (a dataclass
field of the same name is a store) or read in its own body does not count, and neither
does an attribute of a module that the file binds with its own `import`, other than
matmom: np.empty and math.inf read numpy's and math's members (the python blocks of
README.md run in one namespace, so they count as one file).

A read of a member name cannot tell apart the classes that define it, so a member name
that two or more classes define, as a method, a property or a dataclass field, is checked
by hand: SHARED_MEMBERS lists every such name with each class whose method or property
of that name has a caller outside the tests.
"""

import ast
import re
from pathlib import Path

import matmom

SRC = Path(matmom.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# name -> each class whose method or property of that name has a caller; a comment names one
SHARED_MEMBERS = {
    "atoms": {"AtomicMeasure",  # bench/workloads.py: measure.atoms
              "GapAnalysis"},  # gap.py: analysis.atoms(mu)
    "delta": {"OperatorModel"},  # hilbert_space.py: model.delta; nevanlinna.py: bases.delta
    "moments": {"AtomicMeasure"},  # gap.py: measure.moments(2 * rep.d + 1)
    "size": {"OrthoBasisSet",  # hilbert_space.py: range_basis.size
             "AtomicMeasure"},  # bench/workloads.py: measure.size
    "tau": {"OperatorModel"},  # hilbert_space.py: model.tau; nevanlinna.py: bases.tau
    "to_json_obj": {"AtomicMeasure",  # cli.py: measure.to_json_obj()
                    "GapClassDecision",  # cli.py: decision.to_json_obj()
                    "GapSpec",  # bench/workloads.py: self.spec.to_json_obj()
                    "MatrixPolynomial",  # nevanlinna.py: self.A_poly.to_json_obj()
                    "MomentCheckReport",  # cli.py: report.to_json_obj() in _cmd_verify
                    "NevanlinnaCoefficients",  # cli.py: assemble_coefficients(...).to_json_obj()
                    "SolvabilityReport"},  # cli.py: report.to_json_obj() in _cmd_check
}


def _file_reads(tree):
    """_reads over a whole file, leaving out the attributes of the modules other than
    matmom that its `import` statements bind (np for `import numpy as np`)."""
    modules = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.partition(".")[0] != "matmom"}
    return _reads(tree, modules)


def _reads(node, modules, enclosing=()):
    """(name, enclosing definitions) for every name and attribute read under node,
    except an attribute read on one of the module names."""
    if isinstance(node, DEFS):
        enclosing += (node,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, enclosing
    elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
          and not (isinstance(node.value, ast.Name) and node.value.id in modules)):
        yield node.attr, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, modules, enclosing)


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
        reads += _file_reads(tree)
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.S)
    reads += _file_reads(ast.parse("\n".join(blocks)))
    for path in sorted((ROOT / "bench").glob("*.py")):
        reads += _file_reads(ast.parse(path.read_text(), filename=str(path)))
    readers = {}
    for name, enclosing in reads:
        readers.setdefault(name, []).append(enclosing)
    orphans = [f"{file}:{label}" for file, label, node in defined
               if all(node in enclosing for enclosing in readers.get(node.name, ()))]
    assert not orphans, f"defined but never used in src/matmom, README.md or bench/: {orphans}"


def test_attribute_of_an_imported_module_is_not_a_read():
    """np.empty reads numpy's member, not a library name; matmom.analyze reads one."""
    tree = ast.parse("import matmom, numpy as np\nnp.empty(matmom.analyze)")
    names = {name for name, _ in _file_reads(tree)}
    assert "empty" not in names and {"analyze", "np", "matmom"} <= names


def test_shared_member_names_are_checked_by_hand():
    """A new shared member name, or a class that starts to define one, fails until its
    callers are checked and SHARED_MEMBERS is updated; a stale row fails too."""
    owners, members = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, DEFS[:2]) and not item.name.startswith("__"):
                    name = item.name
                    members.setdefault(name, set()).add(node.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                owners.setdefault(name, set()).add(node.name)
    shared = {name: members[name] for name in members if len(owners[name]) > 1}
    changed = {name: (shared.get(name), SHARED_MEMBERS.get(name))
               for name in shared.keys() | SHARED_MEMBERS.keys()
               if shared.get(name) != SHARED_MEMBERS.get(name)}
    assert not changed, f"check the callers, then update SHARED_MEMBERS (defined, listed): {changed}"
