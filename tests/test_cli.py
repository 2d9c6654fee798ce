import json
import subprocess
import sys

import numpy as np
import pytest

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


def run_cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "matmom.cli", *args],
                          capture_output=True, text=True, input=stdin)


@pytest.fixture()
def ex21_path(tmp_path):
    path = tmp_path / "ex21.json"
    path.write_text(EX21_DOC)
    return str(path)


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

    proc = run_cli("gap-solve", ex21_path, "--delta", "(-10,10)", "--budget", "80")
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


# stdout of the per-point gap analysis these commands ran on before it was batched
GAP_STDOUT = [
    (("gap-check", "--delta", "(-1,1)"), 0,
     '{"determinate": false, "regular_type": true, "grid_points": 265, "non_regular_at": []}\n'),
    (("gap-check", "--delta", "(0,2)"), 2,
     '{"determinate": false, "regular_type": false, "grid_points": 265, '
     '"non_regular_at": [1]}\n'),
    (("gap-check", "--delta", "(-1,3)"), 2,
     '{"determinate": false, "regular_type": false, "grid_points": 465, '
     '"non_regular_at": [1.0000000000000002]}\n'),
    (("gap-solve", "--delta", "(-1,1)"), 0,
     '{"atoms": [{"t": -6.8395839721023419, "W": [[[0.0035562555112191659, 0], [0, 0]], '
     '[[0, 0], [0, 0]]]}, {"t": 1, "W": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}, '
     '{"t": 1.5899325436986915, "W": [[[0.32977707782211407, 0], [0, 0]], [[0, 0], [0, 0]]]}], '
     '"verify": {"passed": true, "tol": 1e-08, "max_deviation": 4.4408920985006262e-16, '
     '"max_per_moment": [5.5511151231257827e-17, 0, 4.4408920985006262e-16]}, '
     '"F": [[[0.67301251350977309, 0.7396310949786099]]]}\n'),
]


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
