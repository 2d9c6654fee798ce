import numpy as np
import pytest

from matmom import (MomentSequence, ParameterError, analyze, build_determinate_model,
                    solve_determinate, verify_moments)
from matmom.determinate import resolvent_transform
from matmom.errors import EvaluationError

from conftest import moments_from_measure, random_measure


def analyze_scalar(*values, d):
    ms = MomentSequence.from_matrices(1, d, [np.array([[v]], dtype=float) for v in values])
    return ms, analyze(ms)


def test_point_mass_model(point_mass_state):
    _, state = point_mass_state
    dm = build_determinate_model(state.rep, state.bases)
    assert np.abs(dm.R - np.array([[1.0]])).max() < 1e-14
    assert np.abs(dm.MA).max() < 1e-14
    measure = solve_determinate(dm)
    assert measure.size == 1
    t, w = measure.atoms[0]
    assert abs(t) < 1e-12 and abs(w[0, 0] - 1.0) < 1e-12


def test_zero_problem_empty_model():
    ms = MomentSequence.from_matrices(1, 1, [np.zeros((1, 1))] * 3)
    state = analyze(ms)
    dm = build_determinate_model(state.rep, state.bases)
    assert dm.MA.shape == (0, 0)
    assert solve_determinate(dm).size == 0
    assert np.all(resolvent_transform(dm.MA, dm.R, 1j) == 0)


def test_two_symmetric_atoms():
    # moments of (1/2) at -1 and (1/2) at +1, five prescribed moments
    ms, state = analyze_scalar(1.0, 0.0, 1.0, 0.0, 1.0, d=2)
    assert state.determinate
    dm = build_determinate_model(state.rep, state.bases)
    assert dm.MA.shape == (2, 2)
    evals = np.linalg.eigvalsh(dm.MA)
    assert np.abs(evals - np.array([-1.0, 1.0])).max() < 1e-12
    measure = solve_determinate(dm)
    assert [round(t, 9) for t, _ in measure.atoms] == [-1.0, 1.0]
    assert all(abs(w[0, 0] - 0.5) < 1e-12 for _, w in measure.atoms)


def test_indeterminate_rejected(ex21):
    with pytest.raises(ParameterError):
        build_determinate_model(ex21.rep, ex21.bases)


def test_stieltjes_point_mass(point_mass_state):
    _, state = point_mass_state
    dm = build_determinate_model(state.rep, state.bases)
    assert abs(resolvent_transform(dm.MA, dm.R, 1j) - 1j) < 1e-14
    with pytest.raises(EvaluationError):
        resolvent_transform(dm.MA, dm.R, 2.0)


def check_round_trip(rng, n_dim, d, measure):
    """The unique solution of the moments of measure reproduces them, recovers the
    atoms and weights of measure, and has the transform of the determinate model,
    which is returned."""
    ms = moments_from_measure(measure, n_dim, d)
    state = analyze(ms)
    assert state.determinate
    dm = build_determinate_model(state.rep, state.bases)
    solution = solve_determinate(dm)
    assert solution.size <= dm.MA.shape[0]
    assert verify_moments(solution, ms, 1e-8).passed

    # recovered atoms match the generator
    pruned = [(t, w) for t, w in solution.atoms if np.trace(w).real > 1e-10]
    assert len(pruned) == measure.size
    for (t1, w1), (t2, w2) in zip(pruned, measure.atoms):
        assert abs(t1 - t2) < 1e-8
        assert np.abs(w1 - w2).max() < 1e-8

    # transform identity against direct atomic summation
    zs = rng.uniform(-2, 2, 20) + 1j * rng.uniform(0.1, 2.0, 20)
    for z in zs:
        direct = sum((w.T / (t - z) for t, w in solution.atoms),
                     np.zeros((n_dim, n_dim), dtype=complex))
        via_model = resolvent_transform(dm.MA, dm.R, z)
        scale = np.abs(direct).max() + 1.0
        assert np.abs(via_model - direct).max() / scale < 1e-9
    return dm


@pytest.mark.parametrize("seed", range(6))
def test_oracle_round_trip(seed):
    rng = np.random.default_rng(500 + seed)
    n_dim = int(rng.integers(1, 4))
    d = int(rng.integers(1, 3))
    n_atoms = int(rng.integers(1, d + 1))  # few atoms keep the problem determinate
    check_round_trip(rng, n_dim, d, random_measure(rng, n_dim, n_atoms))


@pytest.mark.parametrize("n_dim, d", [(3, 4), (4, 6)], ids=["r12", "r24"])
@pytest.mark.parametrize("seed", range(20))
def test_oracle_round_trip_large(n_dim, d, seed):
    """d full-rank atoms in [-1, 1] make r = dN = 12 and 24, the largest determinate
    models of the benchmark ladder; min_gap 0.25 keeps the sampler fast at d = 6."""
    rng = np.random.default_rng(900 + seed)
    measure = random_measure(rng, n_dim, d, spread=1.0, min_gap=0.25)
    assert check_round_trip(rng, n_dim, d, measure).MA.shape[0] == n_dim * d
