"""SHA-256 digests of the CLI payloads of the benchmark instances.

usage: PYTHONPATH=<checkout>/src python3 tools/payload_digest.py [--seeds 1 2] [--reps 0 ... 8]

Runs ``matmom.cli.main`` in-process, in a temporary directory, on the solve-ladder
and gap-search instances of each seed and realisation, as bench/instances.py and
bench/workloads.py build them (both are only imported):

- solve-ladder: ``check``; when it passes, ``inspect``, then ``solve --csv`` or
  ``parametrize``, and for an indeterminate problem, with the F of
  ``find_admissible_unitary``, ``canonical --csv`` and ``evaluate`` of F and of
  0.6 F at the points EVALUATE_POINTS;
- gap-search: ``gap-solve --csv`` with the benchmark's random-candidate budget
  (the CLI default costs seconds per op when delta > 1), ``gap-check``, and for a
  found witness ``gap-check --F`` of its F;
- ``verify`` of every emitted measure, with ``--gap`` for gap witnesses.

Each payload is its arguments, stdout, stderr, exit status and CSV bytes; a
warning enters as its category and message, an uncaught exception as its type
and message.  The script prints the payload count and the digest of all
payloads, then one line of both for each subcommand.  Run it with the ``src`` of
two checkouts on PYTHONPATH in turn: equal digests mean the two print the same
bytes on every payload (of that subcommand), so a declared change to one
subcommand leaves the others comparable.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import GAP_BUDGET_RANDOM, TOL, build_gap_search, build_solve_ladder  # noqa: E402

from matmom import analyze, assemble_coefficients, find_admissible_unitary  # noqa: E402
from matmom.cli import main  # noqa: E402
from matmom.moment_model import dumps, matrix_to_json  # noqa: E402

EVALUATE_POINTS = ("2j", "0.5+0.25j", "-1.5+3j", "0.3+0.05j")


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0
        self.commands = {}  # subcommand -> [sha, count]

    def add(self, *fields: bytes, command: str | None = None) -> None:
        shas = [self.sha]
        if command is not None:
            entry = self.commands.setdefault(command, [hashlib.sha256(), 0])
            entry[1] += 1
            shas.append(entry[0])
        for field in fields:  # length-prefixed, so no two payload lists collide
            for sha in shas:
                sha.update(len(field).to_bytes(8, "little") + field)

    def run(self, *argv: str, csv: bool = False) -> tuple:
        """(status, stdout) of one CLI call, added to the digest."""
        argv = list(argv) + (["--csv", "out.csv"] if csv else [])
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                status = main(argv)
            except Exception as exc:  # noqa: BLE001 -- an uncaught error is a payload too
                status = f"raised {type(exc).__name__}: {exc}"
        noise = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        table = b""
        if csv and os.path.exists("out.csv"):
            table = Path("out.csv").read_bytes()
            os.remove("out.csv")
        self.add("\0".join(argv).encode(), out.getvalue().encode(),
                 (err.getvalue() + noise).encode(), str(status).encode(), table,
                 command=argv[0])
        self.count += 1
        return status, out.getvalue()

    def verify(self, stdout: str, *extra: str) -> None:
        """verify of the measure printed on stdout, when there is one."""
        if '"atoms"' in stdout:
            Path("measure.json").write_text(stdout, encoding="utf-8")
            self.run("verify", "in.json", "--measure", "measure.json", *extra)


def ladder_payloads(digest: Digest, op) -> None:
    Path("in.json").write_text(op.text, encoding="utf-8")
    status, _ = digest.run("check", "in.json")
    if status != 0:
        return
    status, stdout = digest.run("inspect", "in.json")
    if status != 0:
        return
    if json.loads(stdout)["determinate"]:
        digest.verify(digest.run("solve", "in.json", csv=True)[1])
        return
    digest.run("parametrize", "in.json")
    try:
        state = analyze(op.moments(), TOL)
        F = find_admissible_unitary(assemble_coefficients(state.rep, state.bases, TOL).Xi, TOL)
    except Exception as exc:  # noqa: BLE001 -- the parametrize payload holds the error
        digest.add(f"no parameter: {type(exc).__name__}".encode())
        return
    digest.verify(digest.run("canonical", "in.json", "--F", dumps(matrix_to_json(F)),
                             csv=True)[1])
    for param in (F, 0.6 * F):
        digest.run("evaluate", "in.json", "--F", dumps(matrix_to_json(param)),
                   *(f"--z={z}" for z in EVALUATE_POINTS))


def gap_payloads(digest: Digest, op) -> None:
    Path("in.json").write_text(op.inst.json_text(), encoding="utf-8")
    delta = ",".join(f"({a!r},{b!r})" for a, b in op.spec.intervals)
    _, stdout = digest.run("gap-solve", "in.json", "--delta", delta,
                           "--budget", str(GAP_BUDGET_RANDOM), csv=True)
    digest.run("gap-check", "in.json", "--delta", delta)
    found = json.loads(stdout) if stdout.startswith("{") else {}
    if "F" in found:
        digest.run("gap-check", "in.json", "--delta", delta, "--F", dumps(found["F"]))
    digest.verify(stdout, "--gap", delta)


def main_digest(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--reps", type=int, nargs="+", default=list(range(9)))
    args = parser.parse_args(argv)
    digest = Digest()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # the payloads name their files relative to it
        try:
            for seed in args.seeds:
                for rep in args.reps:
                    for op in build_solve_ladder(seed, rep):
                        ladder_payloads(digest, op)
                    for op in build_gap_search(seed, rep):
                        gap_payloads(digest, op)
        finally:
            os.chdir(home)
    print(f"{digest.count} payloads, sha256 {digest.sha.hexdigest()}")
    for command, (sha, count) in sorted(digest.commands.items()):
        print(f"{command}: {count} payloads, sha256 {sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
