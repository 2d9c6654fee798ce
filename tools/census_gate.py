"""Refuse a benchmark log whose census names a refused failure class.

usage: python3 tools/census_gate.py LOG [--unknown] [CLASS ...]

bench/run.py prints one line `census failing-op {...}` for each op that fails in its
census pass; the JSON object names the op's failure class ("failure") and whether the
op class is known to fail ("known").  The gate prints every such line whose failure is
one of the CLASS arguments, known or not, and with --unknown also every line not
marked known, then exits 1 if it printed any and 0 otherwise.
"""

import argparse
import json
import sys

TAG = "census failing-op "


def refused_lines(lines, classes, unknown: bool) -> list:
    bad = []
    for line in lines:
        if line.startswith(TAG):
            op = json.loads(line[len(TAG):])
            if op["failure"] in classes or (unknown and op["known"] is not True):
                bad.append(line)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("log", help="stdout of bench/run.py")
    parser.add_argument("classes", nargs="*", metavar="CLASS",
                        help="failure class to refuse, e.g. gap.errors")
    parser.add_argument("--unknown", action="store_true",
                        help="also refuse every failing op not marked known")
    args = parser.parse_intermixed_args(argv)
    with open(args.log, encoding="utf-8") as fh:
        bad = refused_lines(fh, set(args.classes), args.unknown)
    sys.stdout.writelines(bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
