"""The python blocks of README.md run as written, in order, in one namespace, and
every `matmom` line of its sh blocks is accepted by the CLI."""

import re
import shlex
from pathlib import Path

import numpy as np

from matmom import MomentSequence, analyze, canonical_solution
from matmom.cli import main
from matmom.moment_model import dumps

from conftest import example21_matrices, moments_json

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    namespace: dict = {}
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)


def test_readme_cli_lines_are_not_input_errors(tmp_path, capsys):
    """Each `matmom ...` line on the 2x2 golden input, with its optional [...] parts
    included: input.json is the golden document and measure.json a canonical solution
    of it.  Status 2 (e.g. `solve` on this indeterminate problem) is an answer; status 1
    would mean the README shows a command the CLI refuses to parse."""
    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    state = analyze(ms)
    files = {"input.json": moments_json(ms),
             "measure.json": dumps(canonical_solution(state.rep, state.bases,
                                                      np.array([[1.0]])).to_json_obj())}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("matmom ")]
    assert lines
    for line in lines:
        line = re.sub(r'\[(--\S+ "[^"]*")\]', r"\1", line)  # include the optional parts
        args = [str(tmp_path / arg) if arg.endswith((".json", ".csv")) else arg
                for arg in shlex.split(line, comments=True)[1:]]
        status = main(args)
        capsys.readouterr()
        assert status != 1, f"README line exits 1: {line}"
