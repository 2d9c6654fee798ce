from pathlib import Path

import numpy as np
from numpy.polynomial.polynomial import polyval
import pytest

from matmom import (GapSpec, ParameterError, analyze, analyze_gap, assemble_coefficients,
                    canonical_solution, check_gap_class, evaluate_transform,
                    find_admissible_unitary, forbidden_matrix, gap_solvable_search,
                    invert_transform, parse_moments, transform_via_resolvent, verify_moments)
from matmom.errors import InputError
from matmom.gap import random_unitary
from matmom.moment_model import DEFAULT_TOL, matrix_to_json
from matmom.nevanlinna import extension_operator

from conftest import (check_constant_admissible, golden_B, golden_C, golden_D, golden_k,
                      golden_transform, indeterminate_states, moments_from_measure,
                      pick_parameter, polyval_matrix, random_measure)

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
    assert nc.to_json_obj()["C0_coeff"] == matrix_to_json(nc.Chat)
    assert (nc.tau, nc.delta, nc.rho) == (2, 1, 2)


def test_scalar_polynomial_golden(ex21_nc):
    zs = random_upper_z(10)
    got = polyval(zs, ex21_nc.k)
    want = golden_k(zs)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12


def test_coefficient_polynomials_golden(ex21_nc):
    for z in random_upper_z(10):
        scale_b = np.abs(golden_B(z)).max() + 1.0
        assert np.abs(polyval_matrix(ex21_nc.B_poly, z) - golden_B(z)).max() / scale_b < 1e-11
        scale_d = np.abs(golden_D(z)).max() + 1.0
        assert np.abs(polyval_matrix(ex21_nc.D_poly, z) - golden_D(z)).max() / scale_d < 1e-11
        scale_c = np.abs(golden_C(z)).max() + 1.0
        assert np.abs(polyval_matrix(ex21_nc.C_poly, z) - golden_C(z)).max() / scale_c < 1e-11


def test_coefficient_identity(ex21_nc):
    nc = ex21_nc
    eye = np.eye(nc.tau)
    for z in random_upper_z(10):
        a0z = eye - ((z - 1j) / (z + 1j)) * nc.a0
        m = (z + 1j) * a0z
        adj = np.linalg.det(m) * np.linalg.inv(m)
        rhs = (polyval(z, nc.k) / (z + 1j)) * eye
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
    with pytest.raises(InputError):
        evaluate_transform(ex21_nc, F, 1.0 - 1j)
    with pytest.raises(InputError):
        evaluate_transform(ex21_nc, F, 1j)
    with pytest.raises(InputError):
        evaluate_transform(ex21_nc, F, 0.5)
    with pytest.raises(ParameterError):
        evaluate_transform(ex21_nc, np.array([[1.5]]), 2j)


def test_points_are_checked_before_the_parameter(ex21_nc):
    """A point outside the domain is an input error even after a valid point and with
    a parameter that is not a contraction; so is a grid that does not increase."""
    for F in (np.array([[1.5]]), lambda w: np.array([[1.5]])):
        with pytest.raises(InputError, match="upper half-plane"):
            evaluate_transform(ex21_nc, F, np.array([2j, 0.5 - 1j]))
    with pytest.raises(InputError, match="strictly increasing"):
        invert_transform(lambda z: evaluate_transform(ex21_nc, np.zeros((1, 1)), z),
                         np.array([0.0, 0.0, 1.0]))


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
    with pytest.raises(ParameterError, match="not admissible"):
        canonical_solution(ex21.rep, ex21.bases, xi)  # unimodular but forbidden


def near_forbidden(xi, rng, eps):
    """polar(Xi) e^{i eps H} for a random Hermitian H of norm 1: a unitary within
    about eps of the forbidden matrix."""
    u, _, vh = np.linalg.svd(xi)
    g = rng.normal(size=xi.shape) + 1j * rng.normal(size=xi.shape)
    w, v = np.linalg.eigh(g + g.conj().T)
    w /= np.abs(w).max()
    return u @ vh @ (v * np.exp(1j * eps * w)) @ v.conj().T


@pytest.mark.parametrize("base_seed", [7700, 7720, 7740])
def test_spectrum_test_agrees_with_forbidden_matrix(ex21, base_seed):
    """A unitary F is admissible exactly when U_F has no eigenvalue within
    FIXED_POINT_TOL of 1 (extension_operator).  On ex21 (delta = 1) and random
    indeterminate instances (delta = 2 and 3), for Haar F and F within eps of Xi:
    every F that the forbidden-matrix test rejects fails the spectrum test, and
    every F with sigma_min(F - Xi) >= 1e-6 passes both.  Between the cutoffs
    (sigma_min of about 1e-9) the spectrum test alone may reject."""
    rng = np.random.default_rng(base_seed)
    counts = {"both reject": 0, "both pass": 0}
    for state in [ex21] + indeterminate_states(base_seed):
        xi = forbidden_matrix(state.bases)
        candidates = list(random_unitary(rng, state.bases.delta, 8))
        candidates += [near_forbidden(xi, rng, eps) for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
                       for _ in range(3)]
        for F in candidates:
            try:
                extension_operator(state.bases, F)
                spectrum_ok = True
            except ParameterError as exc:
                assert "not admissible" in str(exc)
                spectrum_ok = False
            forbidden_ok = check_constant_admissible(F, xi)
            assert forbidden_ok or not spectrum_ok
            if np.linalg.svd(F - xi, compute_uv=False)[-1] >= 1e-6:
                assert spectrum_ok and forbidden_ok
            counts["both reject"] += not (spectrum_ok or forbidden_ok)
            counts["both pass"] += spectrum_ok and forbidden_ok
    assert counts["both reject"] >= 15 and counts["both pass"] >= 50, counts


@pytest.mark.parametrize("base_seed", [7700, 7720])
def test_extension_operator_and_gap_class_share_one_verdict(ex21, base_seed):
    """extension_operator refuses F as not unitary exactly when check_gap_class reports
    code B, and otherwise as not admissible exactly when it reports code A: both read
    parameter_verdict.  The candidates are those of the spectrum-test comparison above
    and 0.5 times Haar unitaries, contractions that fail code B."""
    rng = np.random.default_rng(base_seed)
    seen = set()
    for state in [ex21] + indeterminate_states(base_seed):
        xi = forbidden_matrix(state.bases)
        haar = random_unitary(rng, state.bases.delta, 12)
        candidates = list(haar[:8]) + list(0.5 * haar[8:])
        candidates += [near_forbidden(xi, rng, eps) for eps in (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
                       for _ in range(3)]
        analysis = analyze_gap(state.rep, state.bases, GapSpec.parse("(-0.5,0.5)"))
        for F in candidates:
            codes = {code for _, code in check_gap_class(F, analysis).failures}
            want = "not unitary" if "B" in codes else "not admissible" if "A" in codes else None
            try:
                extension_operator(state.bases, F)
                got = None
            except ParameterError as exc:
                got = next(m for m in ("not unitary", "not admissible") if m in str(exc))
            assert got == want
            seen.add(got)
    assert seen == {None, "not unitary", "not admissible"}


def test_constant_parameters_reach_eigvals_only_through_the_verdict(ex21, ex21_nc, monkeypatch):
    """canonical_solution, check_gap_class and gap_solvable_search compute no spectrum of
    their own: every np.linalg.eigvals call runs inside parameter_verdict, and the
    search calls parameter_verdict once per batch of candidates."""
    import matmom.gap as gap_mod
    import matmom.nevanlinna as nev

    calls = {"verdict": 0, "eigvals": 0, "outside": 0, "batches": 0}
    depth = [0]
    verdict, eigvals, batches = nev.parameter_verdict, np.linalg.eigvals, gap_mod.doubling_batches

    def counted_verdict(*args, **kwargs):
        calls["verdict"] += 1
        depth[0] += 1
        try:
            return verdict(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_eigvals(a):
        calls["eigvals"] += 1
        calls["outside"] += depth[0] == 0
        return eigvals(a)

    def counted_batches(count):
        for item in batches(count):
            calls["batches"] += 1
            yield item

    monkeypatch.setattr(nev, "parameter_verdict", counted_verdict)
    monkeypatch.setattr(gap_mod, "parameter_verdict", counted_verdict)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(gap_mod, "doubling_batches", counted_batches)
    state = next(s for s in indeterminate_states(7700) if s.bases.delta == 2)
    nc = assemble_coefficients(state.rep, state.bases)
    F = find_admissible_unitary(nc.Xi)
    spec = GapSpec.parse("(-0.5,0.5)")
    runs = [lambda: canonical_solution(state.rep, state.bases, F),
            lambda: check_gap_class(F, analyze_gap(state.rep, state.bases, spec)),
            lambda: gap_solvable_search(state.rep, state.bases, nc, spec, budget=40),
            lambda: gap_solvable_search(ex21.rep, ex21.bases, ex21_nc, GapSpec.parse("(-1,1)"))]
    for k, run in enumerate(runs):
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls["outside"] == 0 and calls["eigvals"] == calls["verdict"] >= 1
        assert calls["verdict"] == (calls["batches"] if k >= 2 else 1)


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
    """The pick -polar(Xi) is unitary, keeps sigma_min(F - Xi) = 1 + sigma_min(Xi) >= 1,
    and its extension passes the spectrum test, on ex21 (delta = 1) and on random
    indeterminate instances (delta = 2 and 3) at three seeds."""
    states = [ex21] + [s for seed in (7700, 7720, 7740) for s in indeterminate_states(seed)]
    for state in states:
        xi = forbidden_matrix(state.bases)
        F = find_admissible_unitary(xi)
        eye = np.eye(state.bases.delta)
        assert np.abs(F.conj().T @ F - eye).max() < 1e-12
        gap = np.linalg.svd(F - xi, compute_uv=False)[-1]
        assert gap >= 1.0 - 1e-12
        assert abs(gap - 1.0 - np.linalg.svd(xi, compute_uv=False)[-1]) < 1e-12
        assert check_constant_admissible(F, xi)
        extension_operator(state.bases, F)


def test_pick_verifies_on_the_n4d6s1a9_rung():
    """On the benchmark ladder's N4d6s1a9 moments (seed 1, realisation 0) the canonical
    solution of the pick reproduces the moments within the default moment_tol, and its
    atoms stay inside [-1, 1], where the generating measure's atoms lie."""
    ms = parse_moments((Path(__file__).parent / "n4d6s1a9_moments.json").read_text())
    state = analyze(ms)
    nc = assemble_coefficients(state.rep, state.bases)
    measure = canonical_solution(state.rep, state.bases, find_admissible_unitary(nc.Xi))
    assert verify_moments(measure, ms, DEFAULT_TOL.moment_tol).passed
    assert max(abs(t) for t, _ in measure.atoms) < 1.0


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


@pytest.mark.parametrize("shape", [(1, 4), (4, 1)])
def test_mis_sized_parameter_rejected(shape):
    measure = random_measure(np.random.default_rng(0), 2, 5)
    state = analyze(moments_from_measure(measure, 2, 2))
    nc = assemble_coefficients(state.rep, state.bases)
    assert nc.delta == 2
    F = find_admissible_unitary(nc.Xi).reshape(shape)
    with pytest.raises(ParameterError, match="parameter must be 2 x 2"):
        evaluate_transform(nc, F, 2j)
    with pytest.raises(ParameterError, match="parameter must be 2 x 2"):
        evaluate_transform(nc, lambda z: F, np.array([2j, 1 + 1j]))
    with pytest.raises(ParameterError, match="parameter must be 2 x 2"):
        canonical_solution(state.rep, state.bases, F)
