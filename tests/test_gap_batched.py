"""The one-matrix Gram-Schmidt and the closed-form gap analysis against a column-by-column
reference: one left-looking modified Gram-Schmidt loop per matrix and one SVD per grid point."""

import numpy as np

from matmom import analyze
from matmom.hilbert_space import orthonormal_split

from conftest import (gap_sequences, mgs_reference, moments_from_measure, point_reference,
                      random_measure, w_tilde_table)


def random_indeterminate_states():
    states = []
    for seed, (n_dim, d, n_atoms) in enumerate([(2, 1, 4), (2, 2, 5), (3, 1, 4), (3, 2, 4)]):
        measure = random_measure(np.random.default_rng(7100 + seed), n_dim, n_atoms)
        state = analyze(moments_from_measure(measure, n_dim, d))
        assert not state.determinate
        states.append((state, [t for t, _ in measure.atoms]))
    return states


def assert_split_matches_loop(mat, n_lead):
    """orthonormal_split of one matrix against mgs_reference; returns its two sets."""
    lead, rest = orthonormal_split(mat, n_lead)
    ref_vectors, ref_sources, ref_expansions = mgs_reference(mat)
    assert lead.source_indices + rest.source_indices == ref_sources
    assert all(s < n_lead for s in lead.source_indices)
    assert all(s >= n_lead for s in rest.source_indices)
    vectors = np.concatenate([lead.vectors, rest.vectors], axis=1)
    expansions = np.concatenate([lead.expansions, rest.expansions], axis=0)
    assert np.abs(vectors - ref_vectors).max(initial=0.0) < 1e-12
    assert np.abs(expansions - ref_expansions).max(initial=0.0) < 1e-12
    return lead, rest


def test_split_matches_loop_on_golden_grid(ex21):
    lams = np.concatenate([np.linspace(-1.0, 1.0, 103)[1:-1], [1.0]])  # 1 is not regular
    dN = ex21.rep.dN
    for i, mat in enumerate(gap_sequences(ex21.rep, lams)):
        lead, _ = assert_split_matches_loop(mat, dN)
        # x_3 - x_1 vanishes at 1
        assert lead.size == (dN - 1 if i == len(lams) - 1 else dN)


def test_split_matches_loop_on_random_instances():
    for state, locs in random_indeterminate_states():
        lams = np.concatenate([np.linspace(-3.0, 3.0, 61), locs])
        for mat in gap_sequences(state.rep, lams):
            assert_split_matches_loop(mat, state.rep.dN)


def test_split_drops_and_reorthogonalizes():
    rng = np.random.default_rng(5)
    v, u = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    cases = [(np.column_stack([v, v + 1e-6 * u]), (0, 1)),  # residual below sqrt(rank_tol): 2nd pass
             (np.column_stack([v, 2 * v]), (0,)),            # dependent: dropped
             (np.column_stack([u, v]), (0, 1)),
             (np.zeros((4, 2)), ())]
    for mat, sources in cases:
        gs = orthonormal_split(mat, mat.shape[1])[0]
        assert gs.source_indices == sources
        ref_vectors, ref_sources, _ = mgs_reference(mat)
        assert ref_sources == sources
        # the near-dependent pair amplifies roundoff by 1e6; the second pass restores
        # orthogonality, which one pass leaves at about 1e-10
        assert np.abs(gs.vectors - ref_vectors).max(initial=0.0) < 1e-9
        q = gs.vectors
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0) < 1e-14
    lead, rest = orthonormal_split(np.zeros((3, 0)), 0)
    assert [(s.vectors.shape, s.expansions.shape, s.source_indices) for s in (lead, rest)] == \
        [((3, 0), (0, 0), ())] * 2


def test_analyze_splits_match_loop():
    # two indeterminate instances of full rank, and two rank-deficient determinate ones whose
    # three splits each drop inputs
    for seed, (n_dim, d, n_atoms) in enumerate([(1, 2, 5), (2, 1, 4), (2, 3, 3), (3, 2, 2)]):
        measure = random_measure(np.random.default_rng(7200 + seed), n_dim, n_atoms)
        state = analyze(moments_from_measure(measure, n_dim, d))
        rep, bases = state.rep, state.bases
        N, dN = rep.N, rep.dN
        splits = [(rep.X, dN, bases.domain.source_indices + bases.domain_comp.source_indices),
                  (np.concatenate([bases.y, rep.X[:, :N]], axis=1), dN,
                   bases.range_basis.source_indices + bases.defect_basis.source_indices),
                  (np.concatenate([bases.cayley, rep.X[:, :N]], axis=1), bases.tau,
                   tuple(range(bases.tau)) + bases.codefect_basis.source_indices)]
        for mat, n_lead, survivors in splits:
            assert_split_matches_loop(mat, n_lead)
            assert mgs_reference(mat)[1] == survivors


def test_analysis_rows_match_point_reference(ex21, monkeypatch):
    cases = [(ex21, np.linspace(-2.0, 2.0, 41))]  # not of regular type at 1
    cases += [(state, np.concatenate([np.linspace(-3.0, 3.0, 41), locs]))
              for state, locs in random_indeterminate_states()]
    for state, grid in cases:
        rows_invertible, rows_w = w_tilde_table(state.bases, grid)
        for i, lam in enumerate(grid):
            _, invertible, w_ref = point_reference(state.rep, state.bases, lam)
            assert rows_invertible[i] == invertible
            if invertible:
                assert np.abs(rows_w[i] - w_ref).max() < 1e-12
