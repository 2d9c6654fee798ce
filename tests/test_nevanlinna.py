import numpy as np
import pytest

from matmom import (ParameterError, analyze, canonical_solution, check_constant_admissible,
                    evaluate_transform, find_admissible_unitary, forbidden_matrix,
                    invert_transform, transform_via_resolvent, verify_moments)
from matmom.errors import EvaluationError
from matmom.matpoly import polyval

from conftest import (golden_B, golden_C, golden_D, golden_k, golden_transform,
                      moments_from_measure, pick_parameter, random_measure)

RNG_Z = np.random.default_rng(42)


def random_upper_z(n, rng=RNG_Z):
    return rng.uniform(-3, 3, n) + 1j * rng.uniform(0.2, 3.0, n)


def test_forbidden_matrix_golden(ex21):
    b = ex21.bases
    xi = forbidden_matrix(b)
    assert abs(xi[0, 0] - (5 / 13 + 12j / 13)) < 1e-12
    assert abs(abs(xi[0, 0]) - 1.0) < 1e-12
    fp = b.domain_comp.vectors
    m_si = b.defect_basis.vectors.conj().T @ fp
    m_smi = b.codefect_basis.vectors.conj().T @ fp
    assert abs(m_si[0, 0] - (-0.75 + 0.5j)) < 1e-12
    assert abs(m_smi[0, 0] - (-0.75 - 0.5j)) < 1e-12


def test_forbidden_matrix_requires_indeterminate(point_mass_state):
    _, state = point_mass_state
    with pytest.raises(ParameterError):
        forbidden_matrix(state.bases)


def test_structural_matrices_golden(ex21_nc):
    nc = ex21_nc
    root3 = np.sqrt(3.0)
    assert np.abs(nc.W - np.array([[0.25 * root3 * 1j], [0.0]])).max() < 1e-12
    assert np.abs(nc.T - np.array([[0.5 - 0.75j]])).max() < 1e-12
    assert np.abs(nc.K - np.diag([2 / root3, 2 / np.sqrt(2)])).max() < 1e-12
    assert np.abs(nc.Chat - np.array([[0.25 * root3 * 1j, 0.0]])).max() < 1e-12
    assert np.array_equal(nc.c0, nc.Chat)
    assert (nc.tau, nc.delta, nc.rho) == (2, 1, 2)


def test_scalar_polynomial_golden(ex21_nc):
    zs = random_upper_z(10)
    got = polyval(ex21_nc.k, zs)
    want = golden_k(zs)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


def test_coefficient_polynomials_golden(ex21_nc):
    for z in random_upper_z(10):
        scale_b = np.abs(golden_B(z)).max() + 1.0
        assert np.abs(ex21_nc.B_poly(z) - golden_B(z)).max() / scale_b < 1e-11
        scale_d = np.abs(golden_D(z)).max() + 1.0
        assert np.abs(ex21_nc.D_poly(z) - golden_D(z)).max() / scale_d < 1e-11
        scale_c = np.abs(golden_C(z)).max() + 1.0
        assert np.abs(ex21_nc.C_poly(z) - golden_C(z)).max() / scale_c < 1e-11


def test_coefficient_identity(ex21_nc):
    nc = ex21_nc
    eye = np.eye(nc.tau)
    for z in random_upper_z(10):
        a0z = eye - ((z - 1j) / (z + 1j)) * nc.a0
        m = (z + 1j) * a0z
        adj = np.linalg.det(m) * np.linalg.inv(m)
        rhs = (polyval(nc.k, z) / (z + 1j)) * eye
        assert np.abs(adj @ a0z - rhs).max() / (np.abs(rhs).max() + 1) < 1e-9


def test_transform_golden_values(ex21_nc):
    for f_val in (0.0, 1.0):
        F = np.array([[f_val]])
        for z in random_upper_z(20):
            got = evaluate_transform(ex21_nc, F, z)
            want = golden_transform(z, f_val)
            assert abs(got[0, 1]) < 1e-12 and abs(got[1, 0]) < 1e-12
            assert abs(got[1, 1] - 1.0 / (1.0 - z)) / abs(1.0 / (1.0 - z)) < 1e-10
            scale = np.abs(want).max()
            assert np.abs(got - want).max() / scale < 1e-10


def test_transform_domain_errors(ex21_nc):
    F = np.zeros((1, 1))
    with pytest.raises(EvaluationError):
        evaluate_transform(ex21_nc, F, 1.0 - 1j)
    with pytest.raises(EvaluationError):
        evaluate_transform(ex21_nc, F, 1j)
    with pytest.raises(EvaluationError):
        evaluate_transform(ex21_nc, F, 0.5)
    with pytest.raises(ParameterError):
        evaluate_transform(ex21_nc, np.array([[1.5]]), 2j)


def test_transform_callable_parameter(ex21_nc):
    # z-dependent contraction hook; evaluation only
    param = lambda z: np.array([[(z - 2j) / (z + 2j)]])
    z = 0.7 + 1.1j
    got = evaluate_transform(ex21_nc, param, z)
    want = golden_transform(z, complex(param(z)[0, 0]))
    assert np.abs(got - want).max() < 1e-10


def test_constant_admissibility(ex21):
    xi = forbidden_matrix(ex21.bases)
    assert check_constant_admissible(np.zeros((1, 1)), xi)
    assert check_constant_admissible(np.ones((1, 1)), xi)
    assert not check_constant_admissible(xi, xi)
    with pytest.raises(ParameterError):
        check_constant_admissible(np.array([[2.0]]), xi)


def test_admissibility_strict_contraction_equal_to_xi():
    # strictly contractive F equal to Xi is admissible: no isometric null vector
    xi = np.array([[0.5 + 0.1j]])
    assert check_constant_admissible(xi, xi)


def test_canonical_solution_golden(ex21, ex21_moments):
    measure = canonical_solution(ex21.rep, ex21.bases, np.array([[1.0]]))
    assert all(abs(w[0, 1]) < 1e-9 and abs(w[1, 0]) < 1e-9 for _, w in measure.atoms)
    steps = [(t, w[1, 1].real) for t, w in measure.atoms if w[1, 1].real > 1e-9]
    assert len(steps) == 1
    assert abs(steps[0][0] - 1.0) < 1e-9
    assert abs(steps[0][1] - 1.0) < 1e-9
    assert verify_moments(measure, ex21_moments, 1e-9).passed


def test_canonical_rejects_bad_parameters(ex21):
    with pytest.raises(ParameterError, match="unitary"):
        canonical_solution(ex21.rep, ex21.bases, np.array([[0.5]]))
    xi = forbidden_matrix(ex21.bases)
    with pytest.raises(ParameterError):
        canonical_solution(ex21.rep, ex21.bases, xi)  # unimodular but forbidden


def test_distinct_parameters_distinct_solutions(ex21, ex21_nc):
    phases = [0.0, 0.5, 1.4, 2.8]
    measures = [canonical_solution(ex21.rep, ex21.bases, np.array([[np.exp(1j * p)]]))
                for p in phases]
    z = 0.37 + 0.9j
    values = [evaluate_transform(ex21_nc, np.array([[np.exp(1j * p)]]), z) for p in phases]
    for i in range(len(phases)):
        for j in range(i + 1, len(phases)):
            assert np.abs(values[i] - values[j]).max() > 1e-6
            locs_i = [t for t, _ in measures[i].atoms]
            locs_j = [t for t, _ in measures[j].atoms]
            assert max(abs(a - b) for a, b in zip(locs_i, locs_j)) > 1e-6


def test_path_equivalence_golden(ex21, ex21_nc):
    F = np.array([[1.0]])
    for z in random_upper_z(20):
        t1 = evaluate_transform(ex21_nc, F, z)
        t2 = transform_via_resolvent(ex21.rep, ex21.bases, F, z)
        assert np.abs(t1 - t2).max() / (np.abs(t2).max() + 1) < 1e-8


def test_resolvent_matches_atoms(ex21):
    F = np.array([[np.exp(0.9j)]])
    measure = canonical_solution(ex21.rep, ex21.bases, F)
    for z in random_upper_z(5):
        direct = sum((w.T / (t - z) for t, w in measure.atoms),
                     np.zeros((2, 2), dtype=complex))
        via_res = transform_via_resolvent(ex21.rep, ex21.bases, F, z)
        assert np.abs(direct - via_res).max() < 1e-9



def test_resolvent_empty_z(ex21, ex21_nc):
    F = np.array([[1.0]])
    empty = np.zeros(0, dtype=complex)
    assert transform_via_resolvent(ex21.rep, ex21.bases, F, empty).shape == (0, 2, 2)
    assert evaluate_transform(ex21_nc, F, empty).shape == (0, 2, 2)

def test_resolvent_limit_at_i(ex21, ex21_nc):
    # two-point extrapolation along the imaginary axis reproduces the value at i
    F = np.array([[1.0]])
    h = 1e-4
    f1 = evaluate_transform(ex21_nc, F, 1j + 1j * h)
    f2 = evaluate_transform(ex21_nc, F, 1j + 1j * h / 2)
    extrapolated = 2.0 * f2 - f1
    at_i = transform_via_resolvent(ex21.rep, ex21.bases, F, 1j)
    assert np.abs(extrapolated - at_i).max() < 1e-6


def test_herglotz_property(ex21_nc):
    rng = np.random.default_rng(9)
    for f_val in (0.0, 1.0, np.exp(2.2j)):
        F = np.array([[f_val]])
        for z in random_upper_z(10, rng):
            t_val = evaluate_transform(ex21_nc, F, z)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            assert np.imag(np.vdot(v, t_val @ v)) >= -1e-10


def test_find_admissible_unitary(ex21):
    xi = forbidden_matrix(ex21.bases)
    F = find_admissible_unitary(xi)
    assert abs(abs(F[0, 0]) - 1.0) < 1e-12
    assert check_constant_admissible(F, xi)


def test_invert_transform_single_pole():
    grid = np.arange(0.0, 2.0 + 1e-9, 2e-5)
    dist = invert_transform(lambda z: (1.0 / (1.0 - z)).reshape(-1, 1, 1), grid)
    assert abs(dist.total_mass()[0, 0].real - 1.0) < 2e-2
    # mass concentrates near 1: nothing accumulated before 0.5
    idx = np.searchsorted(dist.grid, 0.5)
    assert abs(dist.values[idx][0, 0]) < 2e-2


def test_invert_transform_zero():
    grid = np.linspace(-1, 1, 2001)
    dist = invert_transform(lambda z: np.zeros((z.size, 1, 1)), grid)
    assert np.abs(dist.values).max() == 0.0
    assert dist.monotone


def test_invert_transform_vs_canonical(ex21, ex21_nc, ex21_moments):
    F = np.array([[1.0]])
    measure = canonical_solution(ex21.rep, ex21.bases, F)
    lo = min(t for t, _ in measure.atoms) - 1.5
    hi = max(t for t, _ in measure.atoms) + 1.5
    grid = np.arange(lo, hi, 4e-5)
    # extrapolation oscillates right at the jumps; the flag must report it
    with pytest.warns(RuntimeWarning, match="not monotone"):
        dist = invert_transform(lambda z: evaluate_transform(ex21_nc, F, z), grid)
    assert not dist.monotone
    total = dist.total_mass()
    assert np.abs(total - ex21_moments.moments[0]).max() < 2e-2


@pytest.mark.parametrize("seed", range(4))
def test_random_instance_path_equivalence(seed):
    rng = np.random.default_rng(700 + seed)
    n_dim = int(rng.integers(1, 4))
    n_atoms = int(rng.integers(3, 7))
    measure = random_measure(rng, n_dim, n_atoms)
    ms = moments_from_measure(measure, n_dim, 1)
    state = analyze(ms)
    if state.determinate:
        pytest.skip("instance came out determinate")
    from matmom import assemble_coefficients
    nc = assemble_coefficients(state.rep, state.bases)
    assert float(np.linalg.svd(nc.Xi, compute_uv=False)[0]) <= 1 + 1e-9
    F = pick_parameter(rng, state, nc)
    zs = random_upper_z(6, rng)
    t1 = evaluate_transform(nc, F, zs)
    t2 = transform_via_resolvent(state.rep, state.bases, F, zs)
    assert np.abs(t1 - t2).max() / (np.abs(t2).max() + 1) < 1e-8
