"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import subprocess
import sys
import time
import warnings

import numpy as np
from numpy.polynomial.polynomial import polyval

from matmom import (MomentSequence, analyze, assemble_coefficients, build_block_hankel,
                    build_determinate_model, canonical_solution, check_gap_class,
                    check_solvable, evaluate_transform, forbidden_matrix,
                    gap_solvable_search, invert_transform, solve_determinate,
                    transform_via_resolvent, verify_gap, verify_moments, GapSpec)
from matmom.gap import analyze_gap

from conftest import (example21_matrices, golden_B, golden_D, golden_k,
                      golden_shift_matrix, golden_transform, golden_w_tilde,
                      moments_from_measure, pick_parameter, point_reference, polyval_matrix,
                      random_measure, w_tilde_table)


def _report(n, text):
    print(f"\nACCEPTANCE CRITERION {n}: PASS - {text}")


def _phase_align(vec, target):
    idx = int(np.argmax(np.abs(target)))
    phase = vec[idx] / target[idx]
    return vec / phase


def test_criterion_1_golden_pipeline():
    start = time.perf_counter()
    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    state = analyze(ms)
    elapsed = time.perf_counter() - start

    report = check_solvable(build_block_hankel(ms))
    assert report.solvable
    b = state.bases
    assert b.kappa == 2 and b.kappa_prime == 1
    assert not state.determinate

    root3 = np.sqrt(3.0)
    targets = [np.array([root3, 0, 0, 0]), np.array([0, 1, 0, 0]),
               np.array([-3, 0, 2, 0])]
    rows = [b.domain.expansions[0], b.domain.expansions[1], b.domain_comp.expansions[0]]
    for row, target in zip(rows, targets):
        aligned = _phase_align(row, target.astype(complex))
        assert np.abs(aligned - target).max() <= 1e-10
    assert elapsed < 0.1
    _report(1, f"solvable, kappa=2, kappa'=1, indeterminate, golden basis rows, "
               f"runtime {elapsed * 1e3:.1f} ms")


def test_criterion_2_golden_coefficients():
    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    state = analyze(ms)
    nc = assemble_coefficients(state.rep, state.bases)

    root3 = np.sqrt(3.0)
    assert np.abs(nc.W - np.array([[0.25 * root3 * 1j], [0.0]])).max() <= 1e-9
    assert np.abs(nc.T - np.array([[0.5 - 0.75j]])).max() <= 1e-9
    assert np.abs(nc.K - np.diag([2 / root3, 2 / np.sqrt(2)])).max() <= 1e-9
    assert np.abs(nc.Chat - np.array([[0.25 * root3 * 1j, 0.0]])).max() <= 1e-9

    rng = np.random.default_rng(2024)
    zs = rng.uniform(-3, 3, 10) + 1j * rng.uniform(0.2, 3.0, 10)
    for z in zs:
        for got, want in ((polyval(z, nc.k), golden_k(z)),
                          (polyval_matrix(nc.B_poly, z), golden_B(z)),
                          (polyval_matrix(nc.D_poly, z), golden_D(z))):
            scale = np.abs(want).max()
            assert np.abs(np.asarray(got) - want).max() / scale <= 1e-9

    xi = forbidden_matrix(state.bases)
    assert abs(xi[0, 0] - (5 / 13 + 12j / 13)) <= 1e-10
    _report(2, "W, T, K, Chat, k, B, D match closed forms at 10 random z; "
               "forbidden value 5/13 + 12i/13")


def test_criterion_3_transform_golden():
    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    state = analyze(ms)
    nc = assemble_coefficients(state.rep, state.bases)
    rng = np.random.default_rng(777)
    zs = rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.15, 3.0, 20)
    for f_val in (0.0, 1.0):
        F = np.array([[f_val]])
        for z in zs:
            got = evaluate_transform(nc, F, z)
            want = golden_transform(z, f_val)
            assert abs(got[0, 1]) <= 1e-12 and abs(got[1, 0]) <= 1e-12
            assert abs(got[1, 1] - 1 / (1 - z)) / abs(1 / (1 - z)) <= 1e-8
            assert np.abs(got - want).max() / np.abs(want).max() <= 1e-8
    _report(3, "transform matches the closed form for F=0 and F=1 at 20 random z, "
               "including entry (1,1) = 1/(1-z) and zero off-diagonals")


def test_criterion_4_canonical_unit_step():
    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    state = analyze(ms)
    measure = canonical_solution(state.rep, state.bases, np.array([[1.0]]))
    for _, w in measure.atoms:
        assert abs(w[0, 1]) <= 1e-9 and abs(w[1, 0]) <= 1e-9
    steps = [(t, w[1, 1].real) for t, w in measure.atoms if w[1, 1].real > 1e-9]
    assert len(steps) == 1
    assert abs(steps[0][0] - 1.0) <= 1e-9
    assert abs(steps[0][1] - 1.0) <= 1e-9
    report = verify_moments(measure, ms, 1e-9)
    assert report.passed
    _report(4, f"unit parameter gives a unit (1,1) step at t=1, vanishing "
               f"off-diagonals, moment deviation {report.max_deviation:.2e}")


def test_criterion_5_gap_golden():
    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    state = analyze(ms)
    grid = np.linspace(-1.0, 1.0, 103)[1:-1]
    assert grid.size == 101
    for lam in grid:
        m, invertible, _ = point_reference(state.rep, state.bases, lam)
        assert invertible
        assert np.abs(m - golden_shift_matrix(lam)).max() <= 1e-10
    regular, w = w_tilde_table(state.bases, grid)
    assert regular.all()
    assert np.abs(w[:, 0, 0] - golden_w_tilde(grid)).max() <= 1e-9

    spec = GapSpec.parse("(-1,1)")
    analysis = analyze_gap(state.rep, state.bases, spec)
    assert check_gap_class(np.array([[1.0]]), analysis).accepted

    nc = assemble_coefficients(state.rep, state.bases)
    result = gap_solvable_search(state.rep, state.bases, nc, spec, budget=400)
    assert result.found
    assert verify_gap(result.measure, spec)
    assert verify_moments(result.measure, ms, 1e-8).passed
    _report(5, "shift matrix and moving unitary match closed forms on a 101-point "
               "grid; unit parameter accepted; gap search returns a verified measure")


def test_criterion_6_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    n_det = n_ind = 0
    worst_recon = worst_path = 0.0
    worst_herglotz = 0.0
    for _ in range(200):
        n_dim = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        n_atoms = int(rng.integers(1, 7))
        measure = random_measure(rng, n_dim, n_atoms)
        ms = moments_from_measure(measure, n_dim, d)
        state = analyze(ms)  # raises if not solvable
        b = state.bases
        assert b.kappa + b.kappa_prime == state.rep.r
        assert b.tau + b.delta == state.rep.r
        if state.determinate:
            n_det += 1
            sol = solve_determinate(build_determinate_model(state.rep, b))
            chk = verify_moments(sol, ms, 1e-8)
            worst_recon = max(worst_recon, chk.max_deviation)
            assert chk.passed
        else:
            n_ind += 1
            nc = assemble_coefficients(state.rep, b)
            assert float(np.linalg.svd(nc.Xi, compute_uv=False)[0]) <= 1 + 1e-9
            F = pick_parameter(rng, state, nc)
            zs = rng.uniform(-2, 2, 3) + 1j * rng.uniform(0.2, 2.0, 3)
            t1 = evaluate_transform(nc, F, zs)
            t2 = transform_via_resolvent(state.rep, b, F, zs)
            rel = float(np.abs(t1 - t2).max() / (np.abs(t2).max() + 1.0))
            worst_path = max(worst_path, rel)
            assert rel <= 1e-8
            for z in zs:
                v = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
                v /= np.linalg.norm(v)
                herg = float(np.imag(np.vdot(v, evaluate_transform(nc, F, z) @ v)))
                worst_herglotz = min(worst_herglotz, herg)
                assert herg >= -1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, f"200 instances ({n_det} determinate, {n_ind} indeterminate) in "
               f"{elapsed:.1f}s; worst reconstruction {worst_recon:.1e}, worst path "
               f"disagreement {worst_path:.1e}, worst Herglotz {worst_herglotz:.1e}")


def test_criterion_7_inversion_recovers_mass():
    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    state = analyze(ms)
    nc = assemble_coefficients(state.rep, state.bases)
    F = np.array([[1.0]])
    measure = canonical_solution(state.rep, state.bases, F)
    lo = min(t for t, _ in measure.atoms) - 1.5
    hi = max(t for t, _ in measure.atoms) + 1.5
    grid = np.arange(lo, hi, 4e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # jump-point oscillation is flagged
        dist = invert_transform(lambda z: evaluate_transform(nc, F, z), grid)
    dev = np.abs(dist.total_mass() - ms.moments[0]).max()
    assert dev <= 2e-2  # limited by the default eps schedule
    _report(7, f"Stieltjes-Perron inversion recovers the total mass within {dev:.1e}")


def test_criterion_8_negative_controls(tmp_path):
    # kernel-inclusion violation -> exit 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"N": 1, "d": 1,
                               "moments": [[[[0, 0]]], [[[0, 0]]], [[[1, 0]]]]}))
    proc = subprocess.run([sys.executable, "-m", "matmom.cli", "check", str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["solvable"] is False

    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    state = analyze(ms)
    xi = forbidden_matrix(state.bases)

    # non-unitary parameter rejected by the gap class
    analysis = analyze_gap(state.rep, state.bases, GapSpec.parse("(-1,1)"))
    decision = check_gap_class(np.array([[0.5]]), analysis)
    assert not decision.accepted
    assert any(code == "B" for _, code in decision.failures)

    # forbidden value rejected by the admissibility test
    assert check_gap_class(xi, analysis).failures[0] == (None, "A")
    _report(8, "kernel violation exits 2; non-unitary parameter fails the gap class; "
               "the forbidden value itself is inadmissible")
