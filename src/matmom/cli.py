"""Command-line interface: JSON in, JSON/CSV out.

Exit codes: 0 success, 1 input error, 2 infeasible or misused subcommand
(e.g. asking for the unique solution of an indeterminate problem).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analyze
from .errors import InputError, MatMomError, SolvabilityError
from .determinate import build_determinate_model, solve_determinate
from .gap import analyze_gap, check_gap_class, gap_solvable_search, verify_gap
from .moment_model import (AtomicMeasure, GapSpec, Tolerances, distribution_csv_rows, dumps,
                           matrix_from_json, matrix_to_json, parse_moments, verify_moments,
                           write_distribution_csv)
from .nevanlinna import (assemble_coefficients, canonical_solution, evaluate_transform,
                         forbidden_matrix, outside_domain)
from .solvability import build_block_hankel, check_solvable

_TOL_OPTIONS = ("hermitian_tol", "psd_tol", "rank_tol", "inv_tol", "moment_tol", "gap_tol")


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
    overrides = {name: getattr(args, name) for name in _TOL_OPTIONS
                 if getattr(args, name, None) is not None}
    return Tolerances(**overrides)


def _parse_parameter(text: str) -> np.ndarray:
    """Parse a square parameter matrix; innermost [re, im] pairs are complex.

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
                return alt
        except InputError:
            pass
    if mat.shape[0] != mat.shape[1]:
        raise InputError(f"parameter matrix must be square, got shape {mat.shape}")
    return mat


def _parse_z_values(values) -> list:
    points = []
    for chunk in values:
        for token in chunk.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                points.append(complex(token))
            except ValueError as exc:
                raise InputError(f"cannot parse z value {token!r}") from exc
    if not points:
        raise InputError("at least one --z value is required")
    return points


def _emit(obj) -> None:
    sys.stdout.write(dumps(obj) + "\n")


def _measure_payload(measure: AtomicMeasure, ms, tol: Tolerances) -> dict:
    report = verify_moments(measure, ms, tol.moment_tol)
    payload = measure.to_json_obj()
    payload["verify"] = report.to_json_obj()
    return payload


def _write_csv(path: str, measure: AtomicMeasure, dim: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_distribution_csv(fh, dim, distribution_csv_rows(measure, dim=dim))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matmom",
                     description="Truncated matrix Hamburger moment problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path of the JSON moment document, or - for stdin")
        for tol_name in _TOL_OPTIONS:
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
    ms = parse_moments(_read_text(args.input), tol)
    state = analyze(ms, tol)
    _emit(state.dimensions())
    return 0


def _cmd_solve(args, tol) -> int:
    ms = parse_moments(_read_text(args.input), tol)
    state = analyze(ms, tol)
    if not state.determinate:
        _emit({"error": "moment problem is indeterminate; use parametrize/canonical"})
        return 2
    dm = build_determinate_model(state.rep, state.bases)
    measure = solve_determinate(dm)
    _emit(_measure_payload(measure, ms, tol))
    if args.csv:
        _write_csv(args.csv, measure, ms.N)
    return 0


def _cmd_parametrize(args, tol) -> int:
    ms = parse_moments(_read_text(args.input), tol)
    state = analyze(ms, tol)
    if state.determinate:
        _emit({"error": "moment problem is determinate; use solve"})
        return 2
    nc = assemble_coefficients(state.rep, state.bases, tol)
    _emit(nc.to_json_obj())
    return 0


def _cmd_evaluate(args, tol) -> int:
    ms = parse_moments(_read_text(args.input), tol)
    state = analyze(ms, tol)
    if state.determinate:
        _emit({"error": "moment problem is determinate; use solve"})
        return 2
    nc = assemble_coefficients(state.rep, state.bases, tol)
    F = _parse_parameter(args.F)
    points = _parse_z_values(args.z)
    # one call on the points before the first one outside the domain, which is
    # then evaluated alone to raise: errors come in the order of the points
    outside = np.flatnonzero(outside_domain(np.array(points)))
    stop = int(outside[0]) if outside.size else len(points)
    t_vals = evaluate_transform(nc, F, np.array(points[:stop]), tol)
    if outside.size:
        evaluate_transform(nc, F, points[stop], tol)
    _emit({"values": [{"z": [z.real, z.imag], "value": matrix_to_json(t_val)}
                      for z, t_val in zip(points, t_vals)]})
    return 0


def _cmd_canonical(args, tol) -> int:
    ms = parse_moments(_read_text(args.input), tol)
    state = analyze(ms, tol)
    if state.determinate:
        _emit({"error": "moment problem is determinate; use solve"})
        return 2
    F = _parse_parameter(args.F)
    measure = canonical_solution(state.rep, state.bases, F, tol)
    _emit(_measure_payload(measure, ms, tol))
    if args.csv:
        _write_csv(args.csv, measure, ms.N)
    return 0


def _cmd_gap_check(args, tol) -> int:
    ms = parse_moments(_read_text(args.input), tol)
    spec = GapSpec.parse(args.delta)
    state = analyze(ms, tol)
    if state.determinate:
        dm = build_determinate_model(state.rep, state.bases)
        measure = solve_determinate(dm)
        respects = verify_gap(measure, spec, tol)
        _emit({"determinate": True, "unique_solution_respects_gap": respects})
        return 0 if respects else 2
    analysis = analyze_gap(state.rep, state.bases, spec, tol)
    payload = {
        "determinate": False,
        "regular_type": analysis.regular_type,
        "grid_points": int(analysis.grid.size),
        "non_regular_at": analysis.grid[~analysis.invertible][:10].tolist(),
    }
    status = 0 if analysis.regular_type else 2
    if args.F is not None:
        decision = check_gap_class(_parse_parameter(args.F),
                                   forbidden_matrix(state.bases, tol), analysis, tol)
        payload["parameter"] = decision.to_json_obj()
        if not decision.accepted:
            status = 2
    _emit(payload)
    return status


def _cmd_gap_solve(args, tol) -> int:
    ms = parse_moments(_read_text(args.input), tol)
    spec = GapSpec.parse(args.delta)
    state = analyze(ms, tol)
    if state.determinate:
        dm = build_determinate_model(state.rep, state.bases)
        measure = solve_determinate(dm)
        if verify_gap(measure, spec, tol):
            payload = _measure_payload(measure, ms, tol)
            payload["determinate"] = True
            _emit(payload)
            if args.csv:
                _write_csv(args.csv, measure, ms.N)
            return 0
        _emit({"determinate": True,
               "error": "the unique solution has mass inside the gap; infeasible"})
        return 2
    nc = assemble_coefficients(state.rep, state.bases, tol)
    result = gap_solvable_search(state.rep, state.bases, nc, spec,
                                 budget=args.budget, tol=tol, seed=args.seed)
    if result.found:
        payload = _measure_payload(result.measure, ms, tol)
        payload["F"] = matrix_to_json(result.F)
        _emit(payload)
        if args.csv:
            _write_csv(args.csv, result.measure, ms.N)
        return 0
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
    measure = AtomicMeasure.from_json_obj(measure_obj, tol)
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
        return 2


if __name__ == "__main__":
    sys.exit(main())
