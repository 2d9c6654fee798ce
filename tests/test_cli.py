import json

import numpy as np
import pytest

from matmom import analyze

from conftest import (golden_B, golden_C, golden_D, golden_k, golden_transform,
                      moments_from_measure, moments_json, random_measure, run_cli)
from test_assemble_batched import jittered_moments

EX21_DOC = json.dumps({
    "N": 2, "d": 1,
    "moments": [
        [[[1 / 3, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1 / 2, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    ],
})
POINT_MASS_DOC = json.dumps({"N": 1, "d": 1,
                             "moments": [[[[1, 0]]], [[[0, 0]]], [[[0, 0]]]]})
ZERO_DOC = json.dumps({"N": 1, "d": 1,
                       "moments": [[[[0, 0]]], [[[0, 0]]], [[[0, 0]]]]})
UNSOLVABLE_DOC = json.dumps({"N": 1, "d": 1,
                             "moments": [[[[0, 0]]], [[[0, 0]]], [[[1, 0]]]]})
TWO_ATOM_DOC = json.dumps({"N": 1, "d": 2,  # unit weights at -1 and 1: determinate
                           "moments": [[[[2, 0]]], [[[0, 0]]], [[[2, 0]]], [[[0, 0]]], [[[2, 0]]]]})
NAN_DOC = EX21_DOC.replace("[1, 0]]]", "[NaN, 0]]]", 1)
DOCS = {"ex21": EX21_DOC, "point_mass": POINT_MASS_DOC, "two_atom": TWO_ATOM_DOC,
        "nan": NAN_DOC}


@pytest.fixture()
def ex21_path(tmp_path):
    path = tmp_path / "ex21.json"
    path.write_text(EX21_DOC)
    return str(path)


@pytest.fixture()
def doc_path(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(DOCS[name])
        return str(path)
    return write


def test_check_solvable(ex21_path):
    proc = run_cli("check", ex21_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solvable"] is True


def test_check_detects_kernel_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(UNSOLVABLE_DOC)
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["solvable"] is False
    assert report["kernel_inclusion_defect"] > 0.5


def test_inspect_dimensions(ex21_path):
    proc = run_cli("inspect", ex21_path)
    assert proc.returncode == 0
    dims = json.loads(proc.stdout)
    assert dims == {"r": 3, "kappa": 2, "kappa_prime": 1, "tau": 2, "delta": 1,
                    "rho": 2, "determinate": False}


def test_stdin_input():
    proc = run_cli("inspect", "-", stdin=EX21_DOC)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["r"] == 3


def test_solve_zero_and_point_mass(tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(ZERO_DOC)
    proc = run_cli("solve", str(zero))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["atoms"] == []

    pm = tmp_path / "pm.json"
    pm.write_text(POINT_MASS_DOC)
    proc = run_cli("solve", str(pm))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["atoms"]) == 1
    assert abs(payload["atoms"][0]["t"]) < 1e-12
    assert payload["verify"]["passed"] is True


def test_solve_rejects_indeterminate(ex21_path):
    proc = run_cli("solve", ex21_path)
    assert proc.returncode == 2
    assert "indeterminate" in json.loads(proc.stdout)["error"]


def test_parametrize_deterministic(ex21_path):
    runs = [run_cli("parametrize", ex21_path) for _ in range(2)]
    assert all(p.returncode == 0 for p in runs)
    assert runs[0].stdout == runs[1].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["tau"] == 2 and payload["delta"] == 1 and payload["rho"] == 2
    assert len(payload["k"]) == 3  # quadratic scalar polynomial


def test_parametrize_rejects_determinate(tmp_path):
    pm = tmp_path / "pm.json"
    pm.write_text(POINT_MASS_DOC)
    proc = run_cli("parametrize", str(pm))
    assert proc.returncode == 2


def test_evaluate_golden_entry(ex21_path):
    proc = run_cli("evaluate", ex21_path, "--F", "[[0,0]]", "--z", "2j")
    assert proc.returncode == 0
    value = json.loads(proc.stdout)["values"][0]["value"]
    # second diagonal entry is 1/(1-2i) = 0.2 + 0.4i for every parameter
    assert abs(value[1][1][0] - 0.2) < 1e-9
    assert abs(value[1][1][1] - 0.4) < 1e-9


def test_canonical_unit_parameter(ex21_path, tmp_path):
    csv_path = tmp_path / "dist.csv"
    for f_arg in ("[[1,0]]", "[[[1,0]]]"):  # shorthand and full nesting
        proc = run_cli("canonical", ex21_path, "--F", f_arg, "--csv", str(csv_path))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        steps = [a for a in payload["atoms"] if a["W"][1][1][0] > 1e-9]
        assert len(steps) == 1 and abs(steps[0]["t"] - 1.0) < 1e-9
        assert payload["verify"]["passed"] is True
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("lambda")
    assert "m_{0,0}_re" in header and "m_{1,1}_im" in header


def test_canonical_rejects_forbidden(ex21_path):
    proc = run_cli("canonical", ex21_path, "--F",
                   "[[0.38461538461538464,0.9230769230769231]]")
    assert proc.returncode == 2
    assert "admissible" in json.loads(proc.stdout)["error"]


def test_canonical_refuses_a_non_contraction_as_evaluate_does(ex21_path):
    """canonical judges its parameter by the verdict gap-check uses, so F = 1.5 is
    refused as not a contraction, with evaluate's message, not as not unitary."""
    proc = run_cli("canonical", ex21_path, "--F", "[[1.5,0]]")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout == EVALUATE_ERRORS[1][1]


def test_parameter_next_to_the_forbidden_matrix_is_refused_by_both(ex21, ex21_path):
    """F = Xi e^{1e-9 i} on ex21 passes the forbidden-matrix test (|F - Xi| is above
    its inv_tol cutoff) but puts an eigenvalue of U_F within FIXED_POINT_TOL of 1.
    gap-check and canonical decide it by that one spectrum: both refuse it as not
    admissible, and neither writes to stderr."""
    from matmom import forbidden_matrix

    F = complex(forbidden_matrix(ex21.bases)[0, 0]) * np.exp(1e-9j)
    f_arg = json.dumps([[[F.real, F.imag]]])
    proc = run_cli("gap-check", ex21_path, "--delta", "(-1,1)", "--F", f_arg)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["parameter"] == {"accepted": False, "failures": [[None, "A"]]}
    proc = run_cli("canonical", ex21_path, "--F", f_arg)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert "not admissible" in json.loads(proc.stdout)["error"]


def test_gap_check_and_solve(ex21_path):
    proc = run_cli("gap-check", ex21_path, "--delta", "(-1,1)")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["regular_type"] is True

    proc = run_cli("gap-check", ex21_path, "--delta", "(-1,1)", "--F", "[[0.5,0]]")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["parameter"]["accepted"] is False

    proc = run_cli("gap-solve", ex21_path, "--delta", "(-1,1)", "--budget", "300")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verify"]["passed"] is True
    for atom in payload["atoms"]:
        assert not (-1.0 + 1e-8 < atom["t"] < 1.0 - 1e-8)

    # the mandatory atom at 1 makes (-10, 10) infeasible by regular type
    proc = run_cli("gap-solve", ex21_path, "--delta", "(-10,10)", "--budget", "80")
    assert proc.returncode == 2
    assert abs(json.loads(proc.stdout)["witness_lambda"] - 1.0) <= 1e-12

    proc = run_cli("gap-solve", ex21_path, "--delta", "(-10,0.99),(1.01,10)", "--budget", "80")
    assert proc.returncode == 2
    assert "inconclusive" in json.loads(proc.stdout)["error"]


def test_gap_solve_determinate_paths(tmp_path):
    pm = tmp_path / "pm.json"
    pm.write_text(POINT_MASS_DOC)
    proc = run_cli("gap-solve", str(pm), "--delta", "(1,2)")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["determinate"] is True
    proc = run_cli("gap-solve", str(pm), "--delta", "(-1,1)")
    assert proc.returncode == 2


def test_verify_round_trip(ex21_path, tmp_path):
    proc = run_cli("canonical", ex21_path, "--F", "[[1,0]]")
    measure = {"atoms": json.loads(proc.stdout)["atoms"]}
    mpath = tmp_path / "measure.json"
    mpath.write_text(json.dumps(measure))
    proc = run_cli("verify", ex21_path, "--measure", str(mpath), "--gap", "(-1,1)")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True and payload["gap_respected"] is True


def test_input_errors_exit_1(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert run_cli("check", str(garbage)).returncode == 1
    assert run_cli("check", str(tmp_path / "missing.json")).returncode == 1
    assert run_cli("evaluate", str(garbage)).returncode == 1  # missing required options
    proc = run_cli("gap-check", "-", "--delta", "(oops)", stdin=EX21_DOC)
    assert proc.returncode == 1


def test_overflowing_moments_are_an_input_error(tmp_path):
    """Finite entries whose modulus overflows (1.5e308 +- 1.5e308j off the diagonal of
    S_0, Hermitian) are refused by the per-matrix check as by the stacked one: exit 1
    with an input error, no warning and no traceback."""
    one, zero, big = [1, 0], [0, 0], 1.5e308
    eye = [[one, zero], [zero, one]]
    doc = {"N": 2, "d": 1, "moments": [[[one, [big, big]], [[big, -big], one]], eye, eye]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error:")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


# stdout of the closed-form gap layer: grid_points counts the finite endpoints of the
# gap and non_regular_at lists the exact non-regular points inside it
GAP_STDOUT = [
    (("gap-check", "--delta", "(-1,1)"), 0,
     '{"determinate": false, "regular_type": true, "grid_points": 2, "non_regular_at": []}\n'),
    (("gap-check", "--delta", "(0,2)"), 2,
     '{"determinate": false, "regular_type": false, "grid_points": 2, '
     '"non_regular_at": [1]}\n'),
    (("gap-check", "--delta", "(-1,3)"), 2,
     '{"determinate": false, "regular_type": false, "grid_points": 2, '
     '"non_regular_at": [1]}\n'),
    (("gap-solve", "--delta", "(-1,1)"), 0,
     '{"atoms": [{"t": -2.5026855528226819, "W": [[[0.014906247186841096, 0], [0, 0]], '
     '[[0, 0], [0, 0]]]}, {"t": 1, "W": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}, '
     '{"t": 1.6873741991726285, "W": [[[0.31842708614649212, 0], [0, 0]], [[0, 0], [0, 0]]]}], '
     '"verify": {"passed": true, "tol": 1e-08, "max_deviation": 3.3306690738754696e-16, '
     '"max_per_moment": [1.1102230246251565e-16, 1.6653345369377348e-16, '
     '3.3306690738754696e-16]}, "F": [[[0.95242414719932422, 0.30477572710378359]]]}\n'),
]

# gap-solve stdout of the sampled gap grid: another witness for the same gap
GAP_SOLVE_BEFORE = (
    '{"atoms": [{"t": -6.8395839721023419, "W": [[[0.0035562555112191659, 0], [0, 0]], '
    '[[0, 0], [0, 0]]]}, {"t": 1, "W": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}, '
    '{"t": 1.5899325436986915, "W": [[[0.32977707782211407, 0], [0, 0]], [[0, 0], [0, 0]]]}], '
    '"verify": {"passed": true, "tol": 1e-08, "max_deviation": 4.4408920985006262e-16, '
    '"max_per_moment": [5.5511151231257827e-17, 0, 4.4408920985006262e-16]}, '
    '"F": [[[0.67301251350977309, 0.7396310949786099]]]}\n')


def test_gap_solve_witness_verifies(ex21_path, tmp_path):
    mpath = tmp_path / "measure.json"
    for text in (run_cli("gap-solve", ex21_path, "--delta", "(-1,1)").stdout, GAP_SOLVE_BEFORE):
        mpath.write_text(json.dumps({"atoms": json.loads(text)["atoms"]}))
        proc = run_cli("verify", ex21_path, "--measure", str(mpath), "--gap", "(-1,1)")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["passed"] is True and payload["gap_respected"] is True


@pytest.mark.parametrize("args, status, stdout", GAP_STDOUT)
def test_gap_stdout_unchanged(ex21_path, args, status, stdout):
    proc = run_cli(args[0], ex21_path, *args[1:])
    assert proc.returncode == status
    assert proc.stdout == stdout


# `evaluate` output on the 2x2 golden input before the transform was batched
EVALUATE_VALUES = {
    "[[0,0]]": [
        [[[0.068807339449541247, 0.10397553516819538], [0, 0]],
         [[0, 0], [0.19999999999999962, 0.40000000000000063]]],
        [[[0.20987153482082715, 0.14983096686951999], [0, -0]],
         [[0, -0], [1.5999999999999932, 0.7999999999999986]]],
        [[[0.052797564687975876, 0.056645357686453186], [-0, 0]],
         [[-0, 0], [0.16393442622950749, 0.19672131147541069]]]],
    "[[0.6,0.8]]": [
        [[[0.080226904376012889, 0.10264721772015098], [0, 0]],
         [[0, 0], [0.19999999999999962, 0.40000000000000063]]],
        [[[0.29395249532959916, 0.068876434480931628], [0, -0]],
         [[0, -0], [1.5999999999999932, 0.7999999999999986]]],
        [[[0.054982817869416022, 0.054066437571591859], [-0, 0]],
         [[-0, 0], [0.16393442622950749, 0.19672131147541069]]]],
}


def test_evaluate_values_unchanged(ex21_path):
    for f_arg, expected in EVALUATE_VALUES.items():
        proc = run_cli("evaluate", ex21_path, "--F", f_arg,
                       "--z=2j", "--z=0.5+0.25j", "--z=-1.5+3j")
        assert proc.returncode == 0
        values = json.loads(proc.stdout)["values"]
        assert [v["z"] for v in values] == [[0, 2], [0.5, 0.25], [-1.5, 3]]
        got, want = np.array([v["value"] for v in values]), np.array(expected)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# `evaluate` errors before the points were evaluated in one call: the first
# point that raises decides, in the order the points are given
EVALUATE_ERRORS = [
    (("[[0,0]]", "--z=2j", "--z=0.5-1j", "--z=3j"),
     '{"error": "z must lie in the open upper half-plane"}\n'),
    (("[[1.5,0]]", "--z=2j", "--z=0.5-1j"),
     '{"error": "parameter is not a contraction (largest singular value 1.500000)"}\n'),
    (("[[0,0]]", "--z=1j", "--z=0.5-1j"),
     '{"error": "z = i is excluded from the transform domain"}\n'),
]


@pytest.mark.parametrize("args, stdout", EVALUATE_ERRORS)
def test_evaluate_errors_unchanged(ex21_path, args, stdout):
    proc = run_cli("evaluate", ex21_path, "--F", *args)
    assert proc.returncode == 2
    assert proc.stdout == stdout


# stdout and exit status of the commands whose bodies share the parse, analyse and
# measure-output steps, captured before those steps were folded into shared helpers
CLI_STDOUT = [
    ('ex21', ('inspect',), 0,
     '{"r": 3, "kappa": 2, "kappa_prime": 1, "tau": 2, "delta": 1, "rho": 2, '
     '"determinate": false}\n'),
    ('two_atom', ('inspect',), 0,
     '{"r": 2, "kappa": 2, "kappa_prime": 0, "tau": 2, "delta": 0, "rho": 1, '
     '"determinate": true}\n'),
    ('point_mass', ('solve',), 0,
     '{"atoms": [{"t": 0, "W": [[[1, 0]]]}], "verify": {"passed": true, "tol": 1e-08, '
     '"max_deviation": 0, "max_per_moment": [0, 0, 0]}}\n'),
    ('two_atom', ('solve',), 0,
     '{"atoms": [{"t": -1, "W": [[[0.99999999999999967, 0]]]}, {"t": 1, "W": '
     '[[[0.99999999999999967, 0]]]}], "verify": {"passed": true, "tol": 1e-08, '
     '"max_deviation": 6.6613381477509392e-16, "max_per_moment": '
     '[6.6613381477509392e-16, 0, 6.6613381477509392e-16, 0, '
     '6.6613381477509392e-16]}}\n'),
    ('ex21', ('parametrize',), 0,
     '{"N": 2, "tau": 2, "delta": 1, "rho": 2, "k": [[-0.75000000000000022, '
     '-2.2499999999999996], [0.99999999999999978, 3.4999999999999991], '
     '[-0.24999999999999978, -1.2499999999999998]], "A": '
     '[[[[-0.27083333333333348, -0.020833333333333703], [0, 0]], [[0, 0], '
     '[-1.1249999999999991, 0.375]]], [[[0.33333333333333326, '
     '-0.04166666666666563], [0, 0]], [[0, 0], [0.625, '
     '-0.12500000000000089]]], [[[-0.54166666666666563, '
     '0.083333333333333037], [0, 0]], [[0, 0], [-2.2499999999999991, 0.75]]], '
     '[[[0.54166666666666652, -0.083333333333333204], [0, 0]], [[0, 0], '
     '[1.2499999999999998, -0.24999999999999989]]], [[[-0.27083333333333315, '
     '0.10416666666666667], [0, 0]], [[0, 0], [-1.1249999999999996, 0.375]]], '
     '[[[0.20833333333333326, -0.041666666666666623], [0, 0]], [[0, 0], '
     '[0.62499999999999989, -0.12499999999999989]]]], "B": '
     '[[[[0.50000000000000033, 0.49999999999999978]], [[0, 0]]], '
     '[[[-0.50000000000000022, -0.49999999999999989]], [[0, 0]]], '
     '[[[0.50000000000000033, 0.49999999999999978]], [[0, 0]]], '
     '[[[-0.50000000000000022, -0.49999999999999989]], [[0, 0]]]], "C": '
     '[[[[0.74999999999999989, -2.25]]], [[[1.2499999999999993, 4.25]]], '
     '[[[-3.2499999999999991, -2.25]]], [[[1.2499999999999998, '
     '0.25000000000000011]]]], "D": [[[[0.49999999999999983, '
     '-0.50000000000000033], [0, 0]]], [[[3.8857805861880479e-16, 1], [0, '
     '0]]], [[[-0.50000000000000022, -0.49999999999999994], [0, 0]]]], "Xi": '
     '[[[0.38461538461538475, 0.92307692307692313]]], "W": '
     '[[[1.6732103039963083e-16, 0.43301270189221941]], [[0, 0]]], "T": '
     '[[[0.50000000000000022, -0.75]]], "Chat": [[[1.6732103039963083e-16, '
     '0.43301270189221941], [0, 0]]], "K": [[[1.1547005383792515, '
     '3.3090811497049173e-17], [0, 0]], [[0, 0], [1.4142135623730949, 0]]], '
     '"A0_coeff": [[[0.5, 0.74999999999999989], [0, 0]], [[0, 0], '
     '[2.2371143170757382e-17, 0.99999999999999978]]], "C0_coeff": '
     '[[[1.6732103039963083e-16, 0.43301270189221941], [0, 0]]], "psi": '
     '[[[[-0.66666666666666652, 0.24999999999999994], [0, 0]], [[0, 0], [-1, '
     '0.5]]], [[[0, 0.83333333333333315], [0, 0]], [[0, 0], [0, 1.5]]], [[[0, '
     '0.24999999999999994], [0, 0]], [[0, 0], [0, 0.5]]], [[[0, '
     '0.16666666666666663], [0, 0]], [[0, 0], [0, 0.5]]]]}\n'),
    ('ex21', ('canonical', '--F', '[[1,0]]'), 0,
     '{"atoms": [{"t": -1.7320508075688776, "W": [[[0.022329099369260204, 0], [0, '
     '0]], [[0, 0], [0, 0]]]}, {"t": 1, "W": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}, '
     '{"t": 1.7320508075688776, "W": [[[0.31100423396407295, 0], [0, 0]], [[0, 0], '
     '[0, 0]]]}], "verify": {"passed": true, "tol": 1e-08, "max_deviation": '
     '1.6653345369377348e-16, "max_per_moment": [1.6653345369377348e-16, '
     '1.1102230246251565e-16, 0]}}\n'),
    ('ex21', ('canonical', '--F', '[[0.6,0.8]]'), 0,
     '{"atoms": [{"t": -9.567764362830026, "W": [[[0.0020284731421230024, 0], [0, '
     '0]], [[0, 0], [0, 0]]]}, {"t": 1, "W": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}, '
     '{"t": 1.5677643628300224, "W": [[[0.33130486019121025, 0], [0, 0]], [[0, 0], '
     '[0, 0]]]}], "verify": {"passed": true, "tol": 1e-08, "max_deviation": '
     '1.1102230246251565e-16, "max_per_moment": [5.5511151231257827e-17, '
     '1.1102230246251565e-16, 0]}}\n'),
    ('two_atom', ('gap-check', '--delta', '(-1,1)'), 0,
     '{"determinate": true, "unique_solution_respects_gap": true}\n'),
    ('two_atom', ('gap-check', '--delta', '(0,2)'), 2,
     '{"determinate": true, "unique_solution_respects_gap": false}\n'),
    ('two_atom', ('gap-solve', '--delta', '(-1,1)'), 0,
     '{"atoms": [{"t": -1, "W": [[[0.99999999999999967, 0]]]}, {"t": 1, "W": '
     '[[[0.99999999999999967, 0]]]}], "verify": {"passed": true, "tol": 1e-08, '
     '"max_deviation": 6.6613381477509392e-16, "max_per_moment": '
     '[6.6613381477509392e-16, 0, 6.6613381477509392e-16, 0, '
     '6.6613381477509392e-16]}, "determinate": true}\n'),
    ('two_atom', ('gap-solve', '--delta', '(-10,10)'), 2,
     '{"determinate": true, "error": "the unique solution has mass inside the gap; '
     'infeasible"}\n'),
]


@pytest.mark.parametrize("doc, args, status, stdout", CLI_STDOUT)
def test_cli_stdout_unchanged(doc_path, doc, args, status, stdout):
    proc = run_cli(args[0], doc_path(doc), *args[1:])
    assert proc.returncode == status
    assert proc.stdout == stdout


# `parametrize` stdout on the 2x2 golden input while k, A, B, C and D were
# interpolated in the monomial basis from samples at upper half-plane nodes
PARAMETRIZE_EX21_BEFORE = (
    '{"N": 2, "tau": 2, "delta": 1, "rho": 2, "k": [[-0.75000000000000133, '
    '-2.25], [1.0000000000000002, 3.4999999999999978], [-0.24999999999999892, '
    '-1.2499999999999996]], "A": [[[[-0.27083333333334253, '
    '-0.020833333333314163], [0, 0]], [[0, 0], [-1.1250000000000087, '
    '0.37499999999998657]]], [[[0.3333333333332682, -0.041666666666700748], '
    '[0, 0]], [[0, 0], [0.62500000000005651, -0.12500000000001718]]], '
    '[[[-0.54166666666661401, 0.083333333333241458], [0, 0]], [[0, 0], '
    '[-2.2500000000000018, 0.75000000000009581]]], [[[0.54166666666673535, '
    '-0.083333333333291501], [0, -0]], [[0, -0], [1.2499999999999167, '
    '-0.25000000000002542]]], [[[-0.27083333333335097, 0.10416666666669422], '
    '[0, -0]], [[0, -0], [-1.1249999999999771, 0.37499999999996225]]], '
    '[[[0.20833333333332846, -0.04166666666667003], [0, -0]], [[0, -0], '
    '[0.62500000000000688, -0.12499999999999292]]]], "B": '
    '[[[[0.50000000000000067, 0.50000000000000067]], [[0, 0]]], '
    '[[[-0.50000000000000222, -0.49999999999999806]], [[0, -0]]], '
    '[[[0.49999999999999778, 0.49999999999999734]], [[0, -0]]], '
    '[[[-0.49999999999999883, -0.50000000000000122]], [[-0, 0]]]], "C": '
    '[[[[0.74999999999999822, -2.2500000000000115]]], [[[1.250000000000028, '
    '4.2499999999999947]]], [[[-3.2499999999999933, -2.2499999999999662]]], '
    '[[[1.2499999999999798, 0.25000000000000339]]]], "D": '
    '[[[[0.4999999999999995, -0.50000000000000133], [0, 0]]], '
    '[[[3.6188084697060014e-15, 0.99999999999999922], [0, -0]]], '
    '[[[-0.49999999999999944, -0.49999999999999617], [0, -0]]]], "Xi": '
    '[[[0.38461538461538475, 0.92307692307692313]]], "W": '
    '[[[1.6732103039963083e-16, 0.43301270189221941]], [[0, 0]]], "T": '
    '[[[0.50000000000000022, -0.75]]], "Chat": [[[1.6732103039963083e-16, '
    '0.43301270189221941], [0, 0]]], "K": [[[1.1547005383792515, '
    '3.3090811497049173e-17], [0, 0]], [[0, 0], [1.4142135623730949, 0]]], '
    '"A0_coeff": [[[0.5, 0.74999999999999989], [0, 0]], [[0, 0], '
    '[2.2371143170757382e-17, 0.99999999999999978]]], "C0_coeff": '
    '[[[1.6732103039963083e-16, 0.43301270189221941], [0, 0]]], "psi": '
    '[[[[-0.66666666666666652, 0.24999999999999994], [0, 0]], [[0, 0], [-1, '
    '0.5]]], [[[0, 0.83333333333333315], [0, 0]], [[0, 0], [0, 1.5]]], [[[0, '
    '0.24999999999999994], [0, 0]], [[0, 0], [0, 0.5]]], [[[0, '
    '0.16666666666666663], [0, 0]], [[0, 0], [0, 0.5]]]]}\n')


def _printed_poly(obj):
    """Coefficients, lowest degree first, of a printed k or A..D."""
    pairs = np.array(obj, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def test_parametrize_no_farther_from_golden(doc_path):
    """Printed k, A, B, C and D are no farther from the closed forms than before."""
    proc = run_cli("parametrize", doc_path("ex21"))
    assert proc.returncode == 0
    now, before = json.loads(proc.stdout), json.loads(PARAMETRIZE_EX21_BEFORE)
    golden = {"k": golden_k, "B": golden_B, "C": golden_C, "D": golden_D,
              "A": lambda z: golden_transform(z, 0.0) * (z * z + 1) ** 2 * golden_k(z) / 2j}
    rng = np.random.default_rng(21)
    zs = rng.uniform(-3.0, 3.0, 16) + 1j * rng.uniform(0.2, 3.0, 16)
    for name, fn in golden.items():
        want = np.array([fn(z) for z in zs])
        errors = []
        for doc in (now, before):
            coeffs = _printed_poly(doc[name])
            got = np.array([np.polynomial.polynomial.polyval(z, coeffs) for z in zs])
            errors.append(np.abs(got - want).max() / np.abs(want).max())
        assert errors[0] <= errors[1], (name, errors)


def test_numerical_failures_exit_3(doc_path, tmp_path):
    """A measure failing its own verify block and a RankError exit 3, stdout as before."""
    for doc, args in (("two_atom", ("solve",)), ("ex21", ("canonical", "--F", "[[1,0]]"))):
        proc = run_cli(args[0], doc_path(doc), *args[1:], "--moment-tol", "1e-30")
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["verify"]["passed"] is False
    # a Cayley-norm RankError: N=3, d=12, whose Cayley images miss norm 1 by about 3e-3
    path = tmp_path / "cayley.json"
    path.write_text(moments_json(jittered_moments(0, n_dim=3, d=12, n_atoms=15)))
    proc = run_cli("parametrize", str(path))
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"].startswith("Cayley image norms deviate from 1")
    # the N=4, d=6 instance with tau=24, beyond the former monomial interpolation
    path = tmp_path / "tau24.json"
    path.write_text(moments_json(jittered_moments(0)))
    proc = run_cli("parametrize", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tau"] == 24


def test_non_finite_moments_rejected(doc_path):
    proc = run_cli("check", doc_path("nan"))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "not finite" in proc.stderr


def test_non_finite_parameter_rejected(doc_path):
    proc = run_cli("canonical", doc_path("ex21"), "--F", "[[[NaN,0]]]")
    assert proc.returncode == 1 and proc.stdout == ""
    assert "not finite" in proc.stderr


def test_non_finite_measure_weight_rejected(doc_path, tmp_path):
    mpath = tmp_path / "measure.json"
    mpath.write_text('{"atoms": [{"t": 1.0, "W": [[NaN, 0], [0, 1]]}]}')
    proc = run_cli("verify", doc_path("ex21"), "--measure", str(mpath))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "not finite" in proc.stderr


def test_bool_dimensions_rejected(tmp_path):
    # JSON true is not the integer 1
    for key in ("N", "d"):
        path = tmp_path / f"{key}.json"
        path.write_text(POINT_MASS_DOC.replace(f'"{key}": 1', f'"{key}": true'))
        proc = run_cli("inspect", str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert "'N' and 'd' must be integers" in proc.stderr


def test_non_number_atom_location_rejected(doc_path, tmp_path):
    # read as -1 and 1, these atoms would reproduce the moments; neither a string nor a bool
    # is an atom location
    for lo, hi in (('"-1"', "1"), ("-1", "true")):
        mpath = tmp_path / "measure.json"
        mpath.write_text('{"atoms": [{"t": %s, "W": [[[1, 0]]]}, '
                         '{"t": %s, "W": [[[1, 0]]]}]}' % (lo, hi))
        proc = run_cli("verify", doc_path("two_atom"), "--measure", str(mpath))
        assert proc.returncode == 1 and proc.stdout == ""
        assert "atom location must be a number" in proc.stderr


def test_non_finite_z_rejected(doc_path):
    for z in ("nan+1j", "1+infj"):
        proc = run_cli("evaluate", doc_path("ex21"), "--F", "[[0,0]]", "--z", "2j", "--z", z)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "is not finite" in proc.stderr


def test_gap_solve_budget_below_one_rejected(doc_path):
    for budget in ("0", "-3"):
        proc = run_cli("gap-solve", doc_path("ex21"), "--delta", "(0.5,0.6)", "--budget", budget)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "--budget must be at least 1" in proc.stderr


def test_gap_solve_negative_seed_rejected(doc_path, tmp_path):
    # delta = 1 never draws from the seed and delta = 2 seeds its Haar candidates with it;
    # a negative seed is an input error either way
    ms = moments_from_measure(random_measure(np.random.default_rng(7101), 2, 5), 2, 2)
    assert analyze(ms).bases.delta == 2
    delta2 = tmp_path / "delta2.json"
    delta2.write_text(moments_json(ms))
    for path in (doc_path("ex21"), str(delta2)):
        proc = run_cli("gap-solve", path, "--delta", "(0.2,0.3)", "--seed", "-1")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "--seed must be non-negative" in proc.stderr


def test_evaluate_far_point_refused(doc_path):
    """A point beyond |z - i| = 1e150, where the squares of z overflow, is an evaluate
    error with exit 2 and nothing on stderr, where it printed NaN and exited 0."""
    for z in ("1e200+1j", "1.4e154j"):
        proc = run_cli("evaluate", doc_path("ex21"), "--F", "[[1,0]]", "--z", "2j", "--z", z)
        assert proc.returncode == 2 and proc.stderr == ""
        assert proc.stdout == '{"error": "z must satisfy |z - i| <= 1e+150"}\n'


@pytest.mark.parametrize("doc, args", [
    ("two_atom", ("solve",)),
    ("ex21", ("canonical", "--F", "[[1,0]]")),
    ("ex21", ("gap-solve", "--delta", "(-1,1)")),
])
def test_unwritable_csv_rejected(doc_path, tmp_path, doc, args):
    """A --csv path that cannot be written is an input error found before any output:
    exit 1, nothing on stdout and no traceback."""
    target = tmp_path / "missing" / "dist.csv"
    proc = run_cli(args[0], doc_path(doc), *args[1:], "--csv", str(target))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"input error: cannot write {target}: ")
    assert "Traceback" not in proc.stderr


WRONG_SIZE_F = "[[[1,0],[0,0]],[[0,0],[1,0]]]"  # 2x2; the golden input has delta = 1


@pytest.mark.parametrize("args", [
    ("evaluate", "--F", WRONG_SIZE_F, "--z", "2j"),
    ("canonical", "--F", WRONG_SIZE_F),
    ("gap-check", "--delta", "(-1,1)", "--F", WRONG_SIZE_F),
])
def test_wrong_size_parameter_rejected(doc_path, args):
    proc = run_cli(args[0], doc_path("ex21"), *args[1:])
    assert proc.returncode == 1 and proc.stdout == ""
    assert "parameter matrix must be 1 x 1" in proc.stderr


@pytest.mark.parametrize("f_arg", ["[[1,0]]", "[[[1,0]]]", "garbage", "[[1,"])
def test_gap_check_parameter_on_determinate_problem_rejected(doc_path, f_arg):
    """A determinate problem has delta = 0, so any --F, well-formed or not, is an
    input error rather than ignored."""
    proc = run_cli("gap-check", doc_path("two_atom"), "--delta", "(-1,1)", "--F", f_arg)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("input error: ")
    assert ("cannot parse --F" in proc.stderr) == (f_arg in ("garbage", "[[1,"))


def test_pair_row_shorthand_checked_against_delta(tmp_path):
    """"[[1,0]]" read as the 1x1 shorthand is still checked against delta: with
    delta = 2 it is an input error, like any --F that is not delta x delta."""
    ms = moments_from_measure(random_measure(np.random.default_rng(7101), 2, 5), 2, 2)
    path = tmp_path / "delta2.json"
    path.write_text(moments_json(ms))
    for args in (("canonical",), ("gap-check", "--delta", "(-1,1)")):
        proc = run_cli(args[0], str(path), *args[1:], "--F", "[[1,0]]")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "parameter matrix must be 2 x 2" in proc.stderr


def test_verify_wrong_size_weights_rejected(doc_path, tmp_path):
    mpath = tmp_path / "measure.json"
    mpath.write_text('{"atoms": [{"t": 1.0, "W": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}')
    proc = run_cli("verify", doc_path("point_mass"), "--measure", str(mpath))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "measure weights must be 1 x 1" in proc.stderr


# Hostile entries for every matrix the CLI reads: finite parts whose modulus overflows,
# and a large finite entry.  The moment and weight matrices carry the entry at [0, 1]
# and its conjugate at [1, 0]; the 1 x 1 parameter of ex21 is the entry itself.
HOSTILE = {"overflow": (1.5e308, 1.5e308), "large": (1e200, 0.0)}
HOSTILE_CASES = [
    ("overflow", "moments", ("check", "{hostile}"), 1,
     "moment matrix n=0 has an entry whose modulus overflows"),
    ("large", "moments", ("check", "{hostile}"), 2, '"solvable": false'),
    ("overflow", "weight", ("verify", "{ex21}", "--measure", "{hostile}"), 1,
     "weight at t=0.5 has an entry whose modulus overflows"),
    ("large", "weight", ("verify", "{ex21}", "--measure", "{hostile}"), 1,
     "weight at t=0.5 is not PSD (min eigenvalue -1.000e+200)"),
    *((kind, "F", args, 2, "parameter is not a contraction (largest singular value "
       + ("nan)" if kind == "overflow" else "99999999999999996"))
      for kind in HOSTILE
      for args in (("canonical", "{ex21}", "--F", "{F}"),
                   ("evaluate", "{ex21}", "--F", "{F}", "--z", "0.5+2j"),
                   ("gap-check", "{ex21}", "--delta", "(-1,1)", "--F", "{F}"))),
]


@pytest.mark.parametrize("kind, target, args, status, message", HOSTILE_CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2][0]}" for c in HOSTILE_CASES])
def test_hostile_entries_are_refused_cleanly(tmp_path, kind, target, args, status, message):
    re_, im = HOSTILE[kind]
    one, zero = [1, 0], [0, 0]
    off = [[one, [re_, im]], [[re_, -im], one]]
    eye = [[one, zero], [zero, one]]
    doc = ({"N": 2, "d": 1, "moments": [off, eye, eye]} if target == "moments"
           else {"atoms": [{"t": 0.5, "W": off}]})
    paths = {"ex21": tmp_path / "ex21.json", "hostile": tmp_path / "hostile.json"}
    paths["ex21"].write_text(EX21_DOC)
    paths["hostile"].write_text(json.dumps(doc))
    fields = {name: str(path) for name, path in paths.items()}
    fields["F"] = json.dumps([[re_, im]])
    proc = run_cli(*(arg.format(**fields) for arg in args))
    assert proc.returncode == status
    assert message in (proc.stderr if status == 1 else proc.stdout)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
