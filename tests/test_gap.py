import numpy as np
import pytest

from matmom import (AtomicMeasure, GapSpec, ParameterError, analyze, analyze_gap,
                    assemble_coefficients, canonical_solution, check_gap_class,
                    find_admissible_unitary, forbidden_matrix, gap_basis, gap_solvable_search,
                    regular_type_check, verify_gap, verify_moments, w_tilde)

from conftest import (golden_shift_matrix, golden_w_tilde, indeterminate_states,
                      moments_from_measure, random_measure)


@pytest.fixture(scope="module")
def gap_setup(ex21):
    spec = GapSpec.parse("(-1,1)")
    grid = np.linspace(-1.0, 1.0, 203)[1:-1]  # interior grid containing 0
    analysis = analyze_gap(ex21.rep, ex21.bases, spec, grid=grid)
    xi = forbidden_matrix(ex21.bases)
    return spec, analysis, xi


def test_gap_basis_golden(ex21):
    rep = ex21.rep
    X = rep.X
    lam = 0.37
    range_part, defect_part = gap_basis(rep, lam)
    denom = np.sqrt(lam * lam - 3 * lam + 3)
    g0 = (np.sqrt(3) / denom) * (X[:, 2] - lam * X[:, 0])
    g1 = (1.0 / (1.0 - lam)) * (X[:, 3] - lam * X[:, 1])
    gp = (1.0 / denom) * ((-3 * lam + 6) * X[:, 0] + (2 * lam - 3) * X[:, 2])
    assert range_part.size == 2 and defect_part.size == 1
    assert np.abs(range_part.vectors[:, 0] - g0).max() < 1e-12
    assert np.abs(range_part.vectors[:, 1] - g1).max() < 1e-12
    assert np.abs(defect_part.vectors[:, 0] - gp).max() < 1e-12


def test_gap_basis_at_zero(ex21):
    range_part, _ = gap_basis(ex21.rep, 0.0)
    X = ex21.rep.X
    # shifted sequence reduces to the upper half of the generating vectors
    for col, src in zip(range_part.vectors.T, (2, 3)):
        target = X[:, src] / np.linalg.norm(X[:, src])
        assert np.abs(col - target).max() < 1e-12


def test_regular_type_golden_grid(ex21):
    for lam in np.linspace(-1, 1, 103)[1:-1]:
        m, invertible = regular_type_check(ex21.rep, ex21.bases, lam)
        assert invertible
        assert np.abs(m - golden_shift_matrix(lam)).max() < 1e-10


def test_regular_type_fails_at_one(ex21):
    # the mandatory unit atom makes lambda = 1 a non-regular point
    _, invertible = regular_type_check(ex21.rep, ex21.bases, 1.0)
    assert not invertible


def test_regular_type_far_from_spectrum(ex21):
    for lam in (-50.0, 75.0):
        _, invertible = regular_type_check(ex21.rep, ex21.bases, lam)
        assert invertible


def test_w_tilde_golden(ex21):
    for lam in np.linspace(-1, 1, 103)[1:-1]:
        w = w_tilde(ex21.rep, ex21.bases, lam)
        assert abs(w[0, 0] - golden_w_tilde(lam)) < 1e-9
        assert abs(abs(w[0, 0]) - 1.0) < 1e-10
    assert abs(w_tilde(ex21.rep, ex21.bases, 0.0)[0, 0] - (-(27 + 36j) / 45)) < 1e-12


def test_w_tilde_approaches_forbidden_matrix(ex21):
    xi = forbidden_matrix(ex21.bases)
    w_far = w_tilde(ex21.rep, ex21.bases, 1e7)
    assert np.abs(w_far - xi).max() < 1e-5


def test_check_gap_class_accepts_unit(gap_setup):
    spec, analysis, xi = gap_setup
    assert analysis.regular_type
    assert check_gap_class(np.array([[1.0]]), xi, analysis).accepted


def test_check_gap_class_rejects_matched_value(ex21, gap_setup):
    _, analysis, xi = gap_setup
    w0 = w_tilde(ex21.rep, ex21.bases, 0.0)
    decision = check_gap_class(w0, xi, analysis)
    assert not decision.accepted
    assert any(code == "C" and abs(lam) <= 1e-12 for lam, code in decision.failures)


def test_check_gap_class_rejects_mis_sized_parameter(gap_setup):
    _, analysis, xi = gap_setup
    with pytest.raises(ParameterError, match="parameter must be 1 x 1"):
        check_gap_class(np.eye(2), xi, analysis)


def test_check_gap_class_rejects_contraction(gap_setup):
    _, analysis, xi = gap_setup
    decision = check_gap_class(np.array([[0.5]]), xi, analysis)
    assert not decision.accepted
    assert any(code == "B" for _, code in decision.failures)


def test_gap_class_monotone_under_shrinking(ex21, gap_setup):
    spec, analysis, xi = gap_setup
    sub_grid = np.linspace(-0.5, 0.5, 101)
    sub_analysis = analyze_gap(ex21.rep, ex21.bases, GapSpec.parse("(-0.5,0.5)"),
                               grid=sub_grid)
    for phase in np.linspace(0, 2 * np.pi, 12, endpoint=False):
        F = np.array([[np.exp(1j * phase)]])
        if check_gap_class(F, xi, analysis).accepted:
            assert check_gap_class(F, xi, sub_analysis).accepted


def test_verify_gap_rules(ex21):
    measure = canonical_solution(ex21.rep, ex21.bases, np.array([[1.0]]))
    assert verify_gap(measure, GapSpec.parse("(-1,1)"))   # atom at 1 sits on the boundary
    assert not verify_gap(measure, GapSpec.parse("(0,2)"))
    assert verify_gap(AtomicMeasure(atoms=()), GapSpec.parse("(-100,100)"))


def test_gap_search_finds_witness(ex21, ex21_nc, ex21_moments):
    spec = GapSpec.parse("(-1,1)")
    result = gap_solvable_search(ex21.rep, ex21.bases, ex21_nc, spec, budget=400)
    assert result.found
    assert verify_gap(result.measure, spec)
    assert verify_moments(result.measure, ex21_moments, 1e-8).passed


def test_gap_search_wide_gap_exhausts(ex21, ex21_nc):
    # every solution must carry its mass somewhere inside (-10, 10); the mandatory
    # atom at 1 proves it, and without 1 every boundary arc fails
    result = gap_solvable_search(ex21.rep, ex21.bases, ex21_nc,
                                 GapSpec.parse("(-10,10)"), budget=100)
    assert result.status == "not_regular" and abs(result.witness - 1.0) <= 1e-12
    result = gap_solvable_search(ex21.rep, ex21.bases, ex21_nc,
                                 GapSpec.parse("(-10,0.99),(1.01,10)"), budget=100)
    assert result.status == "exhausted"


def test_gap_search_empty_gap(ex21, ex21_nc):
    result = gap_solvable_search(ex21.rep, ex21.bases, ex21_nc, GapSpec.parse(""),
                                 budget=50)
    assert result.found
    assert verify_gap(result.measure, GapSpec.parse(""))


def test_gap_search_requires_indeterminate(point_mass_state, ex21_nc):
    _, state = point_mass_state
    with pytest.raises(ParameterError):
        gap_solvable_search(state.rep, state.bases, ex21_nc, GapSpec.parse("(-1,1)"))


def test_gap_class_acceptance_implies_gap_respected(ex21, ex21_nc, gap_setup):
    # the computational core of the gap theory: accepted constants generate
    # measures whose atoms avoid the gap
    spec, analysis, xi = gap_setup
    checked = 0
    for phase in np.linspace(0, 2 * np.pi, 40, endpoint=False):
        F = np.array([[np.exp(1j * phase)]])
        if not check_gap_class(F, xi, analysis).accepted:
            continue
        try:
            measure = canonical_solution(ex21.rep, ex21.bases, F)
        except ParameterError:
            continue
        checked += 1
        assert verify_gap(measure, spec)
    assert checked >= 5


def test_w_tilde_unitary_on_random_instances():
    checked = 0
    for seed in range(10):
        rng = np.random.default_rng(4000 + seed)
        measure = random_measure(rng, 2, 5)
        ms = moments_from_measure(measure, 2, 1)
        state = analyze(ms)
        if state.determinate or state.bases.delta < 2:
            continue
        locs = [t for t, _ in measure.atoms]
        a, b = max(zip(locs, locs[1:]), key=lambda p: p[1] - p[0])
        lam_samples = np.linspace(a + 0.25 * (b - a), b - 0.25 * (b - a), 7)
        for lam in lam_samples:
            _, invertible = regular_type_check(state.rep, state.bases, lam)
            if not invertible:
                continue
            w = w_tilde(state.rep, state.bases, lam)
            svals = np.linalg.svd(w, compute_uv=False)
            assert np.abs(svals - 1.0).max() < 1e-8
            checked += 1
    assert checked >= 10


def test_oracle_gap_feasibility():
    # moments from atoms outside the gap admit a witness
    rng = np.random.default_rng(1234)
    found = 0
    trials = 0
    for seed in range(12):
        rng_i = np.random.default_rng(9000 + seed)
        measure = random_measure(rng_i, 1, 3, spread=2.5, min_gap=0.6)
        locs = [t for t, _ in measure.atoms]
        # carve an open gap strictly between two adjacent atoms
        gaps = [(a, b) for a, b in zip(locs, locs[1:])]
        a, b = max(gaps, key=lambda p: p[1] - p[0])
        pad = 0.12 * (b - a)
        spec = GapSpec.from_intervals([(a + pad, b - pad)])
        ms = moments_from_measure(measure, 1, 1)
        state = analyze(ms)
        if state.determinate:
            continue
        trials += 1
        nc = assemble_coefficients(state.rep, state.bases)
        result = gap_solvable_search(state.rep, state.bases, nc, spec, budget=600)
        if result.found:
            found += 1
            assert verify_gap(result.measure, spec)
            assert verify_moments(result.measure, ms, 1e-8).passed
    assert trials >= 6
    assert found == trials


def test_gap_search_checks_each_candidate_once(ex21, ex21_nc, monkeypatch):
    """check_gap_class decides admissibility once per candidate; the canonical
    solution of an accepted one is built without repeating it or recomputing the
    forbidden matrix, and is the measure canonical_solution gives."""
    import matmom.gap as gap_mod
    import matmom.nevanlinna as nev

    calls = {"class": 0, "admissible": 0, "forbidden": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    state = next(s for s in indeterminate_states(7700) if s.bases.delta == 2)
    nc = assemble_coefficients(state.rep, state.bases)
    locs = [t for t, _ in canonical_solution(state.rep, state.bases,
                                             find_admissible_unitary(nc.Xi)).atoms]
    cases = [(ex21, ex21_nc, GapSpec.parse("(-1,1)")),
             (state, nc, GapSpec.parse(f"({max(locs) + 0.5},inf)"))]
    for st, coeffs, spec in cases:
        monkeypatch.setattr(gap_mod, "check_gap_class", counted("class", gap_mod.check_gap_class))
        monkeypatch.setattr(nev, "check_constant_admissible",
                            counted("admissible", nev.check_constant_admissible))
        monkeypatch.setattr(nev, "forbidden_matrix", counted("forbidden", nev.forbidden_matrix))
        result = gap_solvable_search(st.rep, st.bases, coeffs, spec, budget=200)
        monkeypatch.undo()
        assert result.found, spec
        assert calls["class"] >= 1 and calls["admissible"] == calls["forbidden"] == 0
        want = canonical_solution(st.rep, st.bases, result.F)
        assert len(result.measure.atoms) == len(want.atoms)
        for (t, w), (t_want, w_want) in zip(result.measure.atoms, want.atoms):
            assert t == t_want and np.array_equal(w, w_want)
        calls.update(dict.fromkeys(calls, 0))
