import numpy as np
import pytest

from matmom import (MomentSequence, analyze, assemble_coefficients, build_block_hankel,
                    classify_determinacy, factor_gram)
from matmom.hilbert_space import orthonormal_split

from conftest import indeterminate_states, moments_from_measure, random_measure


def test_factor_gram_example21(ex21):
    rep = ex21.rep
    assert rep.r == 3
    gamma = ex21.hankel.gamma_d
    err = max(abs(np.vdot(rep.X[:, m], rep.X[:, n]) - gamma[n, m])
              for n in range(4) for m in range(4))
    assert err < 1e-13


def test_factor_gram_zero():
    ms = MomentSequence.from_matrices(1, 1, [np.zeros((1, 1))] * 3)
    rep = factor_gram(build_block_hankel(ms), N=1, d=1)
    assert rep.r == 0 and rep.X.shape == (0, 2)


def test_factor_gram_rank_one():
    ms = MomentSequence.from_matrices(1, 1, [np.ones((1, 1)), np.zeros((1, 1)),
                                             np.zeros((1, 1))])
    rep = factor_gram(build_block_hankel(ms), N=1, d=1)
    assert rep.r == 1
    assert abs(np.linalg.norm(rep.X[:, 0]) - 1.0) < 1e-14
    assert np.linalg.norm(rep.X[:, 1]) < 1e-14


def test_gram_fidelity_complex_instance():
    rng = np.random.default_rng(5)
    measure = random_measure(rng, 2, 4)
    ms = moments_from_measure(measure, 2, 2)
    h = build_block_hankel(ms)
    rep = factor_gram(h, N=2, d=2)
    size = h.gamma_d.shape[0]
    err = max(abs(np.vdot(rep.X[:, m], rep.X[:, n]) - h.gamma_d[n, m])
              for n in range(size) for m in range(size))
    lam_max = float(np.linalg.eigvalsh(h.gamma_d).max())
    assert err <= 1e-10 * lam_max


def test_orthonormalize_example21(ex21):
    gs = orthonormal_split(ex21.rep.X, ex21.rep.X.shape[1])[0]
    assert gs.source_indices == (0, 1, 2)  # x_3 is dependent
    root3 = np.sqrt(3.0)
    assert np.abs(gs.expansions[0] - np.array([root3, 0, 0, 0])).max() < 1e-12
    assert np.abs(gs.expansions[1] - np.array([0, 1, 0, 0])).max() < 1e-12
    assert np.abs(gs.expansions[2] - np.array([-3, 0, 2, 0])).max() < 1e-12
    eye_dev = np.abs(gs.vectors.conj().T @ gs.vectors - np.eye(3)).max()
    assert eye_dev < 1e-13


def test_orthonormalize_edge_cases():
    empty = orthonormal_split(np.zeros((3, 0)), 0)[0]
    assert empty.size == 0
    v = np.array([[1.0], [0.0]])
    twice = orthonormal_split(np.hstack([v, v]), 2)[0]
    assert twice.size == 1 and twice.source_indices == (0,)
    zero_in = orthonormal_split(np.zeros((2, 3)), 3)[0]
    assert zero_in.size == 0


def test_orthonormalize_expansion_consistency():
    rng = np.random.default_rng(2)
    vecs = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    gs = orthonormal_split(vecs, vecs.shape[1])[0]
    recon = vecs @ gs.expansions.T
    assert np.abs(recon - gs.vectors).max() < 1e-12



def test_orthonormal_split_partitions_survivors():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    vecs[:, 1] = 2.0 * vecs[:, 0]  # dropped, and inside the lead part for n_lead = 3
    whole = orthonormal_split(vecs, vecs.shape[1])[0]
    assert whole.source_indices == (0, 2, 3, 4)
    for n_lead in (0, 3, 6):
        lead, rest = orthonormal_split(vecs, n_lead)
        assert all(s < n_lead for s in lead.source_indices)
        assert all(s >= n_lead for s in rest.source_indices)
        assert lead.source_indices + rest.source_indices == whole.source_indices
        assert np.array_equal(np.hstack([lead.vectors, rest.vectors]), whole.vectors)
        assert np.array_equal(np.vstack([lead.expansions, rest.expansions]), whole.expansions)

def test_operator_model_golden(ex21):
    rep, model = ex21.rep, ex21.model
    X = rep.X
    assert model.tau == 2 and model.delta == 1 and model.rho == 2
    u0 = model.range_basis.vectors[:, 0]
    u1 = model.range_basis.vectors[:, 1]
    assert np.abs(u0 - (np.sqrt(3) / 2) * (X[:, 2] - 1j * X[:, 0])).max() < 1e-12
    assert np.abs(u1 - (1 / np.sqrt(2)) * (X[:, 3] - 1j * X[:, 1])).max() < 1e-12
    v0 = model.cayley[:, 0]
    v1 = model.cayley[:, 1]
    assert np.abs(v0 - (np.sqrt(3) / 2) * (X[:, 2] + 1j * X[:, 0])).max() < 1e-12
    assert np.abs(v1 - (1 / np.sqrt(2)) * (X[:, 3] + 1j * X[:, 1])).max() < 1e-12
    up0 = model.defect_basis.vectors[:, 0]
    assert np.abs(up0 - ((3 + 1.5j) * X[:, 0] - (1.5 + 1j) * X[:, 2])).max() < 1e-11


def test_codefect_golden(ex21):
    X = ex21.rep.X
    vp0 = ex21.bases.codefect_basis.vectors[:, 0]
    assert np.abs(vp0 - ((3 - 1.5j) * X[:, 0] + (-1.5 + 1j) * X[:, 2])).max() < 1e-11


def test_cayley_isometry(ex21):
    v = ex21.bases.cayley
    assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-12


def test_shift_symmetry_is_hankel_symmetry(ex21):
    # (x_{k+N}, x_j) = (x_k, x_{j+N}) for all indices with both sides defined
    rep = ex21.rep
    gamma = rep.gram()
    n = rep.N
    for k in range(rep.dN):
        for j in range(rep.dN):
            assert abs(gamma[k + n, j] - gamma[k, j + n]) < 1e-12


def test_point_mass_model(point_mass_state):
    _, state = point_mass_state
    assert state.rep.r == 1
    model = state.model
    # y_0 = -i x_0 up to coordinates; its normalized version has unit norm
    y0 = model.y[:, 0]
    x0 = state.rep.X[:, 0]
    assert np.abs(y0 + 1j * x0).max() < 1e-14
    assert model.tau == 1 and model.delta == 0
    assert state.determinate


def test_zero_problem_is_determinate():
    ms = MomentSequence.from_matrices(1, 1, [np.zeros((1, 1))] * 3)
    state = analyze(ms)
    assert state.rep.r == 0
    assert state.bases.kappa == 0 and state.bases.kappa_prime == 0
    assert state.determinate


def test_classification_golden(ex21):
    assert ex21.bases.kappa == 2
    assert ex21.bases.kappa_prime == 1
    assert not classify_determinacy(ex21.bases)


@pytest.mark.parametrize("seed", range(8))
def test_dimension_identities(seed):
    rng = np.random.default_rng(300 + seed)
    n_dim = int(rng.integers(1, 4))
    d = int(rng.integers(1, 3))
    measure = random_measure(rng, n_dim, int(rng.integers(1, 7)))
    state = analyze(moments_from_measure(measure, n_dim, d))
    b = state.bases
    assert b.kappa + b.kappa_prime == state.rep.r
    assert b.tau + b.delta == state.rep.r
    assert b.tau == b.kappa
    assert b.codefect_basis.size == b.delta
    assert 0 <= b.rho <= min(n_dim, b.tau)
    if not state.determinate:
        assert b.rho >= 1
    if b.tau:
        iso_dev = np.abs(b.cayley.conj().T @ b.cayley - np.eye(b.tau)).max()
        assert iso_dev < 1e-10


def test_colligation_matrix_equals_np_block(ex21):
    """block_square fills the four blocks np.block would join: every byte agrees, for the
    bases' colligation_matrix and for the coefficient set's u."""
    for state in [ex21, *indeterminate_states(910)]:
        blocks = state.bases.colligation
        joined = np.block([list(blocks[:2]), list(blocks[2:])])
        assert state.bases.colligation_matrix.tobytes() == joined.tobytes()
        assert state.bases.colligation_matrix.shape == joined.shape
        assert assemble_coefficients(state.rep, state.bases).u.tobytes() == joined.tobytes()
