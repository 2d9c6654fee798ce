from pathlib import Path

import numpy as np
import pytest

from matmom import (MomentSequence, ParameterError, analyze, assemble_coefficients,
                    build_determinate_model, find_admissible_unitary, parse_moments,
                    solve_determinate, verify_moments)
from matmom import determinate
from matmom.determinate import resolvent_transform, spectral_measure
from matmom.errors import EvaluationError
from matmom.nevanlinna import extension_operator

from conftest import (indeterminate_states, moments_from_measure, pick_parameter,
                      random_measure, spectral_measure_reference)


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


def assert_same_atoms(a, xc):
    """spectral_measure gives the atoms of the cluster-at-a-time oracle bit for bit:
    the same locations, signed zeros included, and weights of the same dtype and bytes."""
    got = spectral_measure(a, xc).atoms
    want = spectral_measure_reference(a, xc)
    assert len(got) == len(want)
    for (t_got, w_got), (t_want, w_want) in zip(got, want):
        assert type(t_got) is float
        assert np.float64(t_got).tobytes() == np.float64(t_want).tobytes()
        assert w_got.dtype == w_want.dtype and w_got.shape == w_want.shape
        assert w_got.tobytes() == w_want.tobytes()


def test_spectral_measure_holds_the_arrays_it_fills(monkeypatch):
    """The measure's locations and weights are the arrays spectral_measure allocates and
    fills, not a restack of per-atom pairs, and each W of atoms is a view into weights."""
    rng = np.random.default_rng(61)
    a = random_hermitian(rng, 6, spectrum=[-1.0, -1.0, 0.5, 2.0, 2.0, 2.0])
    xc = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    allocated, empty = [], np.empty

    def recording_empty(*args, **kwargs):
        allocated.append(empty(*args, **kwargs))
        return allocated[-1]

    with monkeypatch.context() as patch:
        patch.setattr(determinate.np, "empty", recording_empty)
        measure = spectral_measure(a, xc)
    assert measure.size == 3
    assert any(np.shares_memory(measure.locations, x) for x in allocated)
    assert any(np.shares_memory(measure.weights, x) for x in allocated)
    assert all(np.shares_memory(w, measure.weights) for _, w in measure.atoms)
    empty_measure = spectral_measure(np.zeros((0, 0)), np.zeros((0, 2)))
    assert (empty_measure.locations.shape, empty_measure.weights.shape) == ((0,), (0, 2, 2))


def random_hermitian(rng, r, spectrum=None):
    """A complex Hermitian r x r matrix; with spectrum given, U diag(spectrum) U* for a
    random unitary U, so equal entries of spectrum become one cluster of eigh."""
    g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    if spectrum is None:
        return 0.5 * (g + g.conj().T)
    q = np.linalg.qr(g)[0]
    a = (q * spectrum) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def first_block(rng, r, n_dim):
    return np.ascontiguousarray(rng.normal(size=(r, n_dim)) + 1j * rng.normal(size=(r, n_dim)))


# the default, a cap below one projector at every r (one cluster per stack) and one
# that splits the runs of small r
@pytest.mark.parametrize("stack_bytes", [determinate.STACK_BYTES, 1, 2048])
def test_spectral_measure_matches_cluster_loop(monkeypatch, stack_bytes):
    """Random Hermitian matrices with r = 1 .. 60 cross the default cap, where a
    stack holds 16 projectors at r = 16 and one from r = 46 on; N = 1 .. 4."""
    monkeypatch.setattr(determinate, "STACK_BYTES", stack_bytes)
    rng = np.random.default_rng(41)
    for r in range(1, 61):
        for n_dim in range(1, 5):
            assert_same_atoms(random_hermitian(rng, r), first_block(rng, r, n_dim))


@pytest.mark.parametrize("stack_bytes", [determinate.STACK_BYTES, 1, 2048])
def test_spectral_measure_matches_cluster_loop_on_repeated_spectrum(monkeypatch, stack_bytes):
    """Clusters of width 2 and 3 mixed with singletons, runs of equal widths, and a
    cluster of width 9, whose mean numpy sums pairwise."""
    monkeypatch.setattr(determinate, "STACK_BYTES", stack_bytes)
    rng = np.random.default_rng(43)
    layouts = [[2], [3], [1, 2], [2, 2, 2], [1, 1, 3, 3, 1], [3, 1, 2, 1, 2, 2, 1],
               [2] * 8, [1] * 5 + [3] * 4, [9], [1, 9, 2]]
    for widths in layouts:
        centres = np.sort(rng.uniform(-3.0, 3.0, len(widths)))
        spectrum = np.repeat(centres, widths)
        a = random_hermitian(rng, spectrum.size, spectrum)
        evals = np.linalg.eigvalsh(a)
        gaps = np.diff(evals) > determinate.CLUSTER_WIDTH * (1.0 + np.abs(evals).max())
        assert np.count_nonzero(gaps) == len(widths) - 1  # the layout survived eigh
        for n_dim in (1, 2, 4):
            assert_same_atoms(a, first_block(rng, spectrum.size, n_dim))


def test_spectral_measure_matches_cluster_loop_on_the_pipeline():
    """The extensions canonical_solution passes, for the benchmark ladder's N4d6s1a9
    rung (r = 28, the library's pick) and for indeterminate instances (well-separated
    unitary parameters), and the shifts solve_determinate passes (clusters of width N)."""
    rng = np.random.default_rng(47)
    ladder = analyze(parse_moments((Path(__file__).parent / "n4d6s1a9_moments.json").read_text()))
    states = [(ladder, [find_admissible_unitary(
        assemble_coefficients(ladder.rep, ladder.bases).Xi)])]
    for state in indeterminate_states(200):
        nc = assemble_coefficients(state.rep, state.bases)
        states.append((state, [pick_parameter(rng, state, nc) for _ in range(2)]))
    for state, parameters in states:
        for F in parameters:
            assert_same_atoms(extension_operator(state.bases, F), state.rep.first_block())
    for n_dim, d in ((1, 1), (2, 1), (2, 3), (3, 2), (4, 3), (3, 4)):
        measure = random_measure(rng, n_dim, d, spread=1.0, min_gap=0.25)
        state = analyze(moments_from_measure(measure, n_dim, d))
        assert state.determinate
        dm = build_determinate_model(state.rep, state.bases)
        assert_same_atoms(dm.MA, dm.R)
        assert solve_determinate(dm).size == d
