import json

import numpy as np
import pytest

from matmom import (AtomicMeasure, GapSpec, ParameterError, analyze, analyze_gap,
                    assemble_coefficients, canonical_solution, check_gap_class,
                    find_admissible_unitary, forbidden_matrix, gap_solvable_search, verify_gap,
                    verify_moments)
from matmom.hilbert_space import orthonormal_split
from matmom.moment_model import DEFAULT_TOL

from conftest import (check_constant_admissible, gap_sequences, golden_shift_matrix,
                      golden_w_tilde, indeterminate_states, moments_from_measure, moments_json,
                      point_reference, random_measure, verify_gap_reference, w_tilde_table)
from test_cli import run_cli


@pytest.fixture(scope="module")
def gap_setup(ex21):
    spec = GapSpec.parse("(-1,1)")
    return spec, analyze_gap(ex21.rep, ex21.bases, spec)


def test_gap_basis_golden(ex21):
    rep = ex21.rep
    X = rep.X
    lam = 0.37
    range_part, defect_part = orthonormal_split(gap_sequences(rep, [lam])[0], rep.dN)
    denom = np.sqrt(lam * lam - 3 * lam + 3)
    g0 = (np.sqrt(3) / denom) * (X[:, 2] - lam * X[:, 0])
    g1 = (1.0 / (1.0 - lam)) * (X[:, 3] - lam * X[:, 1])
    gp = (1.0 / denom) * ((-3 * lam + 6) * X[:, 0] + (2 * lam - 3) * X[:, 2])
    assert range_part.size == 2 and defect_part.size == 1
    assert np.abs(range_part.vectors[:, 0] - g0).max() < 1e-12
    assert np.abs(range_part.vectors[:, 1] - g1).max() < 1e-12
    assert np.abs(defect_part.vectors[:, 0] - gp).max() < 1e-12


def test_gap_basis_at_zero(ex21):
    range_part, _ = orthonormal_split(gap_sequences(ex21.rep, [0.0])[0], ex21.rep.dN)
    X = ex21.rep.X
    # shifted sequence reduces to the upper half of the generating vectors
    for col, src in zip(range_part.vectors.T, (2, 3)):
        target = X[:, src] / np.linalg.norm(X[:, src])
        assert np.abs(col - target).max() < 1e-12


def test_regular_type_golden_grid(ex21):
    for lam in np.linspace(-1, 1, 103)[1:-1]:
        m, invertible, _ = point_reference(ex21.rep, ex21.bases, lam)
        assert invertible
        assert np.abs(m - golden_shift_matrix(lam)).max() < 1e-10


def test_regular_type_fails_at_one(ex21):
    # the mandatory unit atom makes lambda = 1 a non-regular point
    _, invertible, _ = point_reference(ex21.rep, ex21.bases, 1.0)
    assert not invertible


def test_regular_type_far_from_spectrum(ex21):
    for lam in (-50.0, 75.0):
        _, invertible, _ = point_reference(ex21.rep, ex21.bases, lam)
        assert invertible


def test_w_tilde_golden(ex21):
    lams = np.linspace(-1, 1, 103)[1:-1]
    invertible, w = w_tilde_table(ex21.bases, lams)
    assert invertible.all()
    assert np.abs(w[:, 0, 0] - golden_w_tilde(lams)).max() < 1e-9
    assert np.abs(np.abs(w[:, 0, 0]) - 1.0).max() < 1e-10
    assert abs(w_tilde_table(ex21.bases, 0.0)[1][0, 0, 0] - (-(27 + 36j) / 45)) < 1e-12


def test_w_tilde_approaches_forbidden_matrix(ex21):
    xi = forbidden_matrix(ex21.bases)
    w_far = w_tilde_table(ex21.bases, 1e7)[1][0]
    assert np.abs(w_far - xi).max() < 1e-5


def test_check_gap_class_accepts_unit(gap_setup):
    spec, analysis = gap_setup
    assert analysis.regular_type
    assert check_gap_class(np.array([[1.0]]), analysis).accepted


def test_check_gap_class_rejects_matched_value(ex21, gap_setup):
    _, analysis = gap_setup
    w0 = w_tilde_table(ex21.bases, 0.0)[1][0]
    decision = check_gap_class(w0, analysis)
    assert not decision.accepted
    assert any(code == "C" and abs(lam) <= 1e-12 for lam, code in decision.failures)


def test_check_gap_class_rejects_mis_sized_parameter(gap_setup):
    _, analysis = gap_setup
    with pytest.raises(ParameterError, match="parameter must be 1 x 1"):
        check_gap_class(np.eye(2), analysis)


def test_check_gap_class_rejects_contraction(gap_setup):
    _, analysis = gap_setup
    decision = check_gap_class(np.array([[0.5]]), analysis)
    assert not decision.accepted
    assert any(code == "B" for _, code in decision.failures)


def test_contraction_admissibility_from_the_spectrum(tmp_path):
    """A contraction F = U diag(1, 1/2, ...) V^H, from the SVD Xi = U Sigma V^H of a
    unitary Xi, keeps the isometric null vector v_1 of F - Xi, so U_F has the eigenvalue
    1: check_gap_class and gap-check --F report A and B, as the forbidden-matrix oracle
    rejects it.  The strict contraction polar(Xi) / 2 reports B only.  delta = 2 and 3."""
    spec = GapSpec.parse("(-0.5,0.5)")
    deltas = set()
    for state in indeterminate_states(7700)[1:3]:
        xi = forbidden_matrix(state.bases)
        u, sigma, vh = np.linalg.svd(xi)
        assert np.abs(sigma - 1.0).max() < 1e-12
        delta = state.bases.delta
        touching = u @ np.diag([1.0] + [0.5] * (delta - 1)) @ vh
        strict = 0.5 * u @ vh
        assert not check_constant_admissible(touching, xi) and check_constant_admissible(strict, xi)
        analysis = analyze_gap(state.rep, state.bases, spec)
        path = tmp_path / f"delta{delta}.json"
        path.write_text(moments_json(state.moments))
        for F, codes in ((touching, [[None, "A"], [None, "B"]]), (strict, [[None, "B"]])):
            assert check_gap_class(F, analysis).to_json_obj() == {"accepted": False,
                                                                   "failures": codes}
            f_arg = json.dumps([[[v.real, v.imag] for v in row] for row in F])
            proc = run_cli("gap-check", str(path), "--delta", "(-0.5,0.5)", "--F", f_arg)
            assert (proc.returncode, proc.stderr) == (2, "")
            assert json.loads(proc.stdout)["parameter"]["failures"] == codes
        deltas.add(delta)
    assert deltas == {2, 3}


def test_gap_class_monotone_under_shrinking(ex21, gap_setup):
    spec, analysis = gap_setup
    sub_analysis = analyze_gap(ex21.rep, ex21.bases, GapSpec.parse("(-0.5,0.5)"))
    for phase in np.linspace(0, 2 * np.pi, 12, endpoint=False):
        F = np.array([[np.exp(1j * phase)]])
        if check_gap_class(F, analysis).accepted:
            assert check_gap_class(F, sub_analysis).accepted


def test_verify_gap_rules(ex21):
    measure = canonical_solution(ex21.rep, ex21.bases, np.array([[1.0]]))
    assert verify_gap(measure, GapSpec.parse("(-1,1)"))   # atom at 1 sits on the boundary
    assert not verify_gap(measure, GapSpec.parse("(0,2)"))
    assert verify_gap(AtomicMeasure(atoms=()), GapSpec.parse("(-100,100)"))


def test_verify_gap_matches_atom_loop():
    """The stacked verify_gap gives the per-atom verdict on atoms at an endpoint and
    within, at or just past gap_tol of it, with weight traces just under, at and
    just over gap_tol, for single gaps, unions and infinite endpoints, N = 1, 2, 9."""
    tol = DEFAULT_TOL.gap_tol
    specs = [GapSpec.parse(text) for text in
             ("(-1,1)", "(-1,1),(3,inf)", "(-inf,-2),(0,0.5),(4,inf)", "(-inf,inf)", "")]
    places = [-2.0, -1.0, 0.0, 0.5, 1.0, 3.0, 4.0]
    offsets = [0.0, tol, 2 * tol, 0.5]
    near = {p + sign * off for p in places for off in offsets for sign in (-1.0, 1.0)}
    points = sorted(near | {float(np.nextafter(t, side)) for t in near
                            for side in (-np.inf, np.inf)})
    traces = [0.0, float(np.nextafter(tol, 0.0)), tol, float(np.nextafter(tol, 1.0)), 1.0]
    rng = np.random.default_rng(53)
    verdicts = set()
    for n_dim in (1, 2, 9):
        for spec in specs:
            for trace in traces:
                weight = np.eye(n_dim, dtype=complex) * (trace / n_dim)
                for t in points:
                    measure = AtomicMeasure(atoms=((t, weight),))
                    want = verify_gap_reference(measure, spec)
                    assert verify_gap(measure, spec) == want
                    verdicts.add(want)
            for _ in range(20):  # four atoms, each with a trace drawn from traces
                picks = np.sort(rng.choice(points, size=4, replace=False))
                atoms = tuple((float(t), np.eye(n_dim) * (traces[rng.integers(5)] / n_dim))
                              for t in picks)
                measure = AtomicMeasure(atoms=atoms)
                assert verify_gap(measure, spec) == verify_gap_reference(measure, spec)
    assert verdicts == {True, False}


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
    spec, analysis = gap_setup
    checked = 0
    for phase in np.linspace(0, 2 * np.pi, 40, endpoint=False):
        F = np.array([[np.exp(1j * phase)]])
        if not check_gap_class(F, analysis).accepted:
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
            _, invertible, _ = point_reference(state.rep, state.bases, lam)
            if not invertible:
                continue
            regular, w = w_tilde_table(state.bases, lam)
            assert regular[0]
            svals = np.linalg.svd(w[0], compute_uv=False)
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
    """The search makes one eigvals per batch and no other: _verdict decides
    admissibility, unitarity and the gap for the whole batch from that spectrum, and
    the canonical solution of an accepted candidate is built with no second spectrum,
    no extension_operator (which would decide codes A and B again) and no forbidden
    matrix; it is the measure canonical_solution gives, bit for bit."""
    import matmom.gap as gap_mod
    import matmom.nevanlinna as nev

    calls = {"verdict": 0, "eigvals": 0, "forbidden": 0, "extension": 0}

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
        monkeypatch.setattr(gap_mod, "_verdict", counted("verdict", gap_mod._verdict))
        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(nev, "forbidden_matrix", counted("forbidden", nev.forbidden_matrix))
        extension = counted("extension", nev.extension_operator)
        monkeypatch.setattr(nev, "extension_operator", extension)
        monkeypatch.setattr(gap_mod, "extension_operator", extension, raising=False)
        result = gap_solvable_search(st.rep, st.bases, coeffs, spec, budget=200)
        monkeypatch.undo()
        assert result.found, spec
        assert calls["verdict"] >= 1
        assert calls["eigvals"] == calls["verdict"]
        assert calls["forbidden"] == calls["extension"] == 0
        want = canonical_solution(st.rep, st.bases, result.F)
        assert len(result.measure.atoms) == len(want.atoms)
        for (t, w), (t_want, w_want) in zip(result.measure.atoms, want.atoms):
            assert t == t_want and np.array_equal(w, w_want)
        calls.update(dict.fromkeys(calls, 0))
