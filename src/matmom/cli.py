"""Command-line interface: JSON in, JSON/CSV out.

Exit codes: 0 success, 1 input error (including non-finite numbers such as
NaN or Infinity in any input, and evaluation points outside the transform's
domain), 2 infeasible or misused subcommand (e.g. asking for the unique
solution of an indeterminate problem), 3 numerical failure: a rank
inconsistency, a singular pivot in evaluate, or an emitted measure whose own
verify block fails.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import analyze
from .errors import EvaluationError, InputError, MatMomError, RankError, SolvabilityError
from .determinate import build_determinate_model, solve_determinate
from .gap import analyze_gap, check_gap_class, gap_solvable_search, verify_gap
from .moment_model import (TOLERANCE_NAMES, AtomicMeasure, GapSpec, Tolerances,
                           dumps, matrix_from_json, matrix_to_json, parse_moments,
                           verify_moments, write_distribution_csv)
from .nevanlinna import assemble_coefficients, canonical_solution, evaluate_transform
from .solvability import build_block_hankel, check_solvable


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are input errors
        raise InputError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _tolerances(args) -> Tolerances:
    overrides = {name: getattr(args, name) for name in TOLERANCE_NAMES
                 if getattr(args, name, None) is not None}
    return Tolerances(**overrides)


def _parse_parameter(text: str, delta: int) -> np.ndarray:
    """Parse a delta x delta parameter matrix; innermost [re, im] pairs are complex.

    Parameters are always square, so the shorthand [[1,0]] (one row holding
    one pair) is accepted for a 1x1 matrix alongside the full [[[1,0]]] form.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot parse --F matrix: {exc}") from exc
    mat = matrix_from_json(obj)
    if mat.shape[0] != mat.shape[1] and isinstance(obj, list):
        try:
            rows = [[row] for row in obj]  # reinterpret each row as a single pair
            alt = matrix_from_json(rows)
            if alt.shape[0] == alt.shape[1]:
                mat = alt
        except InputError:
            pass
    if mat.shape[0] != mat.shape[1]:
        raise InputError(f"parameter matrix must be square, got shape {mat.shape}")
    if mat.shape[0] != delta:
        raise InputError(f"parameter matrix must be {delta} x {delta} (the defect "
                         f"dimension delta), got shape {mat.shape}")
    return mat


def _parse_z_values(values) -> list:
    points = []
    for chunk in values:
        for token in chunk.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                point = complex(token)
            except ValueError as exc:
                raise InputError(f"cannot parse z value {token!r}") from exc
            if not cmath.isfinite(point):
                raise InputError(f"z value {token!r} is not finite")
            points.append(point)
    if not points:
        raise InputError("at least one --z value is required")
    return points


def _emit(obj) -> None:
    sys.stdout.write(dumps(obj) + "\n")


def _analyze(args, tol, determinate=None):
    """Parse the moments, then --delta when the command has one, then analyse.

    Returns (state, spec); spec is None without --delta.  A required problem
    kind (determinate True or False) that does not hold is an error.
    """
    ms = parse_moments(_read_text(args.input), tol)
    spec = GapSpec.parse(args.delta) if "delta" in args else None
    state = analyze(ms, tol)
    if determinate is not None and state.determinate != determinate:
        raise MatMomError("moment problem is indeterminate; use parametrize/canonical"
                          if determinate else "moment problem is determinate; use solve")
    return state, spec


def _unique_solution(state) -> AtomicMeasure:
    return solve_determinate(build_determinate_model(state.rep, state.bases))


def _emit_measure(args, measure: AtomicMeasure, ms, tol: Tolerances, **extra) -> int:
    """Write the measure, its verify block and extra keys, and the CSV when asked.

    The CSV file is opened first, so a path that cannot be written is an input
    error with nothing on stdout.  Returns the exit status: 3 when the measure
    fails its own verification.
    """
    report = verify_moments(measure, ms, tol.moment_tol)
    payload = measure.to_json_obj()
    payload["verify"] = report.to_json_obj()
    payload.update(extra)
    if not args.csv:
        _emit(payload)
    else:
        try:
            fh = open(args.csv, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}") from exc
        with fh:
            _emit(payload)
            write_distribution_csv(fh, measure)
    return 0 if report.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matmom",
                     description="Truncated matrix Hamburger moment problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path of the JSON moment document, or - for stdin")
        for tol_name in TOLERANCE_NAMES:
            p.add_argument("--" + tol_name.replace("_", "-"), dest=tol_name,
                           type=float, default=None)
        return p

    add("check", "solvability report")
    add("inspect", "dimension and determinacy report")

    p = add("solve", "unique solution of a determinate problem")
    p.add_argument("--csv", default=None, help="also write the distribution CSV here")

    add("parametrize", "coefficients of the solution transform (indeterminate case)")

    p = add("evaluate", "evaluate the solution transform at given points")
    p.add_argument("--F", required=True, help="constant parameter matrix as JSON")
    p.add_argument("--z", action="append", required=True,
                   help="complex evaluation point(s), e.g. '0.5+2j'; repeatable")

    p = add("canonical", "atomic solution generated by a unitary parameter")
    p.add_argument("--F", required=True, help="unitary parameter matrix as JSON")
    p.add_argument("--csv", default=None, help="also write the distribution CSV here")

    p = add("gap-check", "regular-type analysis over a gap (optionally test a parameter)")
    p.add_argument("--delta", required=True, help="open interval list, e.g. '(-1,1),(3,inf)'")
    p.add_argument("--F", default=None, help="constant parameter matrix to test")

    p = add("gap-solve", "search for a solution vanishing on the gap")
    p.add_argument("--delta", required=True, help="open interval list")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="also write the distribution CSV here")

    p = add("verify", "moment reconstruction report for a measure")
    p.add_argument("--measure", required=True, help="path of the measure JSON")
    p.add_argument("--gap", default=None, help="also check the measure avoids this gap")

    return parser


def _cmd_check(args, tol) -> int:
    ms = parse_moments(_read_text(args.input), tol)
    report = check_solvable(build_block_hankel(ms), tol)
    _emit(report.to_json_obj())
    return 0 if report.solvable else 2


def _cmd_inspect(args, tol) -> int:
    state, _ = _analyze(args, tol)
    _emit(state.dimensions())
    return 0


def _cmd_solve(args, tol) -> int:
    state, _ = _analyze(args, tol, determinate=True)
    return _emit_measure(args, _unique_solution(state), state.moments, tol)


def _cmd_parametrize(args, tol) -> int:
    state, _ = _analyze(args, tol, determinate=False)
    _emit(assemble_coefficients(state.rep, state.bases, tol).to_json_obj())
    return 0


def _cmd_evaluate(args, tol) -> int:
    state, _ = _analyze(args, tol, determinate=False)
    nc = assemble_coefficients(state.rep, state.bases, tol)
    F = _parse_parameter(args.F, nc.delta)
    points = _parse_z_values(args.z)
    t_vals = evaluate_transform(nc, F, np.array(points), tol)
    _emit({"values": [{"z": [z.real, z.imag], "value": matrix_to_json(t_val)}
                      for z, t_val in zip(points, t_vals)]})
    return 0


def _cmd_canonical(args, tol) -> int:
    state, _ = _analyze(args, tol, determinate=False)
    F = _parse_parameter(args.F, state.bases.delta)
    measure = canonical_solution(state.rep, state.bases, F, tol)
    return _emit_measure(args, measure, state.moments, tol)


def _cmd_gap_check(args, tol) -> int:
    state, spec = _analyze(args, tol)
    # parsed first: with delta = 0 on a determinate problem, any --F is an input error
    F = None if args.F is None else _parse_parameter(args.F, state.bases.delta)
    if state.determinate:
        respects = verify_gap(_unique_solution(state), spec, tol)
        _emit({"determinate": True, "unique_solution_respects_gap": respects})
        return 0 if respects else 2
    analysis = analyze_gap(state.rep, state.bases, spec, tol)
    payload = {
        "determinate": False,
        "regular_type": analysis.regular_type,
        "grid_points": int(analysis.grid.size),
        "non_regular_at": analysis.non_regular[:10].tolist(),
    }
    status = 0 if analysis.regular_type else 2
    if F is not None:
        decision = check_gap_class(F, analysis, tol)
        payload["parameter"] = decision.to_json_obj()
        if not decision.accepted:
            status = 2
    _emit(payload)
    return status


def _cmd_gap_solve(args, tol) -> int:
    if args.budget < 1:
        raise InputError(f"--budget must be at least 1, got {args.budget}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    state, spec = _analyze(args, tol)
    if state.determinate:
        measure = _unique_solution(state)
        if verify_gap(measure, spec, tol):
            return _emit_measure(args, measure, state.moments, tol, determinate=True)
        _emit({"determinate": True,
               "error": "the unique solution has mass inside the gap; infeasible"})
        return 2
    nc = assemble_coefficients(state.rep, state.bases, tol)
    result = gap_solvable_search(state.rep, state.bases, nc, spec,
                                 budget=args.budget, tol=tol, seed=args.seed)
    if result.found:
        return _emit_measure(args, result.measure, state.moments, tol,
                             F=matrix_to_json(result.F))
    if result.status == "not_regular":
        _emit({"error": "no solution with this gap exists: regular type fails",
               "witness_lambda": result.witness})
    else:
        _emit({"error": "no constant-parameter witness found within the budget "
                        "(inconclusive, not a proof of infeasibility)"})
    return 2


def _cmd_verify(args, tol) -> int:
    ms = parse_moments(_read_text(args.input), tol)
    try:
        measure_obj = json.loads(_read_text(args.measure))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed measure document: {exc}") from exc
    measure = AtomicMeasure.from_json_obj(measure_obj, ms.N, tol)
    report = verify_moments(measure, ms, tol.moment_tol)
    payload = report.to_json_obj()
    ok = report.passed
    if args.gap is not None:
        spec = GapSpec.parse(args.gap)
        gap_ok = verify_gap(measure, spec, tol)
        payload["gap_respected"] = gap_ok
        ok = ok and gap_ok
    _emit(payload)
    return 0 if ok else 2


_COMMANDS = {
    "check": _cmd_check,
    "inspect": _cmd_inspect,
    "solve": _cmd_solve,
    "parametrize": _cmd_parametrize,
    "evaluate": _cmd_evaluate,
    "canonical": _cmd_canonical,
    "gap-check": _cmd_gap_check,
    "gap-solve": _cmd_gap_solve,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        tol = _tolerances(args)
        return _COMMANDS[args.command](args, tol)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except SolvabilityError as exc:
        _emit({"error": str(exc), "solvable": False})
        return 2
    except MatMomError as exc:
        _emit({"error": str(exc)})
        return 3 if isinstance(exc, (RankError, EvaluationError)) else 2


if __name__ == "__main__":
    sys.exit(main())
