"""The closed-form gap layer against independent oracles: the per-point Gram-Schmidt
W and regular-type test, the atoms of canonical solutions, and verify_gap."""

import json
import warnings

import numpy as np
import pytest

from matmom import (AtomicMeasure, GapSpec, MomentSequence, ParameterError, analyze,
                    analyze_gap, assemble_coefficients, canonical_solution, check_gap_class,
                    gap_solvable_search, verify_gap, verify_moments)
from matmom.gap import random_unitary
from matmom.nevanlinna import extended_colligation

from conftest import (contains_reference, golden_w_tilde, moments_from_measure, moments_json,
                      point_reference, random_measure, run_cli, w_tilde_table)
from test_gap_batched import random_indeterminate_states


def delta2_state():
    measure = random_measure(np.random.default_rng(7101), 2, 5)
    locs = [t for t, _ in measure.atoms]
    return analyze(moments_from_measure(measure, 2, 2)), locs


def test_closed_form_far_out(ex21):
    """|lam| up to 1e3, past the +-3 of the grid test in test_gap_batched.  The per-point
    Gram-Schmidt loses digits in proportion to |lam| there; the closed form stays
    unitary and puts an atom of its own canonical solution at lam."""
    lams = np.concatenate([-np.logspace(-2, 3, 16), np.logspace(-2, 3, 16)])
    regular, w_rows = w_tilde_table(ex21, lams)
    assert np.array_equal(regular, lams != 1.0)  # the mandatory atom at 1
    assert np.abs(w_rows[regular, 0, 0] - golden_w_tilde(lams[regular])).max() < 1e-12
    for state, _ in random_indeterminate_states():
        analysis = analyze_gap(state.rep, state.bases, GapSpec.parse(""))
        eye = np.eye(state.bases.delta)
        for lam, invertible, w in zip(lams, *w_tilde_table(state, lams)):
            _, ref_invertible, w_ref = point_reference(state.rep, state.bases, lam)
            assert invertible and ref_invertible
            assert np.abs(w - w_ref).max() < 1e-13 * max(1.0, abs(lam))
            assert np.abs(w.conj().T @ w - eye).max() < 1e-13
            atoms = analysis.atoms(np.linalg.eigvals(extended_colligation(analysis.u, w)))
            assert np.abs(atoms - lam).min() < 1e-13 * max(1.0, abs(lam))


def test_colligation_atoms_match_canonical_solution(ex21):
    cases = [(ex21, [np.array([[np.exp(1j * p)]]) for p in (0.0, 0.3, 2.0, 4.5)])]
    rng = np.random.default_rng(17)
    for state, _ in random_indeterminate_states() + [delta2_state()]:
        cases.append((state, list(random_unitary(rng, state.bases.delta, 4))))
    checked = 0
    for state, params in cases:
        analysis = analyze_gap(state.rep, state.bases, GapSpec.parse(""))
        for F in params:
            try:
                measure = canonical_solution(state.rep, state.bases, F)
            except ParameterError:
                continue
            want = np.array([t for t, _ in measure.atoms])
            got = analysis.atoms(np.linalg.eigvals(extended_colligation(analysis.u, F)))
            assert got.size == want.size == state.rep.r
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            checked += 1
    assert checked >= 20


def assert_class_matches_canonical(state, params, spec):
    """check_gap_class accepts F exactly when F's canonical measure avoids the gap."""
    analysis = analyze_gap(state.rep, state.bases, spec)
    outcomes = set()
    for F in params:
        decision = check_gap_class(F, analysis)
        try:
            measure = canonical_solution(state.rep, state.bases, F)
        except ParameterError:
            assert not decision.accepted
            continue
        assert decision.accepted == verify_gap(measure, spec)
        outcomes.add(decision.accepted)
        for lam, code in decision.failures:
            assert code == "C" and contains_reference(spec, lam)
    assert outcomes == {True, False}


def test_gap_class_equivalent_to_verify_gap_delta1(ex21):
    params = [np.array([[np.exp(1j * p)]]) for p in np.linspace(0, 2 * np.pi, 64, endpoint=False)]
    for text in ("(-1,1)", "(-3,0.5)", "(2,inf)"):
        assert_class_matches_canonical(ex21, params, GapSpec.parse(text))


def test_gap_class_equivalent_to_verify_gap_delta2():
    state, locs = delta2_state()
    assert state.bases.delta == 2
    rng = np.random.default_rng(23)
    params = list(random_unitary(rng, 2, 50))
    a, b = max(zip(locs, locs[1:]), key=lambda p: p[1] - p[0])
    assert_class_matches_canonical(state, params, GapSpec.from_intervals([(a, b)]))


def test_golden_regular_type(ex21):
    analysis = analyze_gap(ex21.rep, ex21.bases, GapSpec.parse("(0,2)"))
    assert not analysis.regular_type
    assert analysis.non_regular.size == 1 and abs(analysis.non_regular[0] - 1.0) <= 1e-12
    assert analyze_gap(ex21.rep, ex21.bases, GapSpec.parse("(-1,1)")).regular_type


@pytest.mark.parametrize("text", ["(-1,1)", "(1,3)", "(-inf,1)", "(1,inf)", "(-1,1),(1,2)"])
def test_gap_ending_at_pole_raises_no_warning(ex21, ex21_nc, text):
    spec = GapSpec.parse(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analysis = analyze_gap(ex21.rep, ex21.bases, spec)
        result = gap_solvable_search(ex21.rep, ex21.bases, ex21_nc, spec, analysis=analysis)
        invertible, w_tilde = w_tilde_table(ex21, analysis.grid)
    assert not invertible[analysis.grid == 1.0].any()
    assert np.isnan(w_tilde[~invertible]).all()
    assert result.status in ("found", "exhausted")
    if result.found:
        assert verify_gap(result.measure, spec)


# N=2, d=3, five atoms on [-4, 4]: the sampled gap grid raised a RankError on its tails
TAIL_LOCS = (-4.0, -1.5, 0.5, 2.0, 4.0)
TAIL_WEIGHTS = (np.array([[1.0, 0.3], [0.3, 0.5]]), np.array([[0.4, -0.2j], [0.2j, 1.0]]),
                np.array([[0.8, 0.1], [0.1, 0.6]]), np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]]),
                np.array([[0.6, -0.25], [-0.25, 0.9]]))


def tail_moments():
    measure = AtomicMeasure.from_atoms(zip(TAIL_LOCS, TAIL_WEIGHTS), 2)
    return MomentSequence.from_matrices(2, 3, measure.moments(7))


@pytest.mark.parametrize("interval", [(-np.inf, -4.25), (4.2, np.inf)])
def test_tail_gaps_found(interval):
    ms = tail_moments()
    state = analyze(ms)
    nc = assemble_coefficients(state.rep, state.bases)
    spec = GapSpec.from_intervals([interval])
    result = gap_solvable_search(state.rep, state.bases, nc, spec, budget=200)
    assert result.status == "found"
    assert verify_gap(result.measure, spec)
    assert verify_moments(result.measure, ms, 1e-8).passed


def test_tail_gap_solve_cli(tmp_path):
    path = tmp_path / "tail.json"
    path.write_text(moments_json(tail_moments()))
    proc = run_cli("gap-solve", str(path), "--delta", "(5,inf)")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verify"]["passed"] is True
    assert all(atom["t"] <= 5.0 for atom in payload["atoms"])
