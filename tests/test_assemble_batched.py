"""Coefficients multiplied out of the factored pole-residue form against a
per-node assembly: one det and one inverse per interpolation node, then one
Vandermonde solve per polynomial."""

import numpy as np
import pytest

from numpy.polynomial.polynomial import polyval

from matmom import (AtomicMeasure, Tolerances, analyze, assemble_coefficients,
                    evaluate_transform, find_admissible_unitary, transform_via_resolvent)
from matmom.errors import RankError
from matmom.matpoly import MatrixPolynomial, poly_times

from conftest import indeterminate_states, moments_from_measure, polyval_matrix, random_measure


def interpolation_nodes(count):
    """Chebyshev-spaced abscissas lifted into the upper half-plane."""
    k = np.arange(count)
    return np.cos(np.pi * (2 * k + 1) / (2 * count)) + 1j


def reference_adjugate(a0, z):
    """det and adjugate of (z+i) I - (z-i) a0 at one node."""
    m = (z + 1j) * np.eye(a0.shape[0]) - (z - 1j) * a0
    det = complex(np.linalg.det(m))
    return det, det * np.linalg.inv(m)


def reference_interpolate(fn, degree, shape):
    """Interpolation with one call of fn per node, as a function of z."""
    nodes = interpolation_nodes(degree + 1)
    vander = np.vander(nodes, degree + 1, increasing=True)
    values = np.stack([np.asarray(fn(z), dtype=complex).reshape(-1) for z in nodes])
    coeffs = np.linalg.solve(vander, values).reshape((degree + 1,) + shape)
    poly = MatrixPolynomial(coeffs).trim()
    return lambda z: polyval_matrix(poly, z)


def reference_psi(gamma, n_dim):
    inner = np.zeros((3, n_dim, n_dim), dtype=complex)
    for j in range(n_dim):
        for k in range(n_dim):
            g_kj = gamma[k, j]
            g_sk_j = gamma[k + n_dim, j]
            g_sk_sj = gamma[k + n_dim, j + n_dim]
            inner[0, j, k] = g_sk_sj - 1j * g_sk_j + g_kj
            inner[1, j, k] = g_sk_j - 1j * g_kj
            inner[2, j, k] = g_kj
    return MatrixPolynomial(poly_times([-0.5, 0.5j], inner, 4)).trim()  # times (i/2)(z+i)


def reference_coefficients(state, nc):
    """k, A, B, C, D assembled node by node from nc's inner-product matrices."""
    tau, delta, rho, n_dim = nc.tau, nc.delta, nc.rho, nc.N
    a0, w_mat, t_mat, chat, k_mat = nc.a0, nc.W, nc.T, nc.Chat, nc.K
    kc = k_mat.conj().T
    psi = reference_psi(state.rep.gram, n_dim)
    k_nodes = interpolation_nodes(tau + 1)
    k = np.linalg.solve(np.vander(k_nodes, tau + 1, increasing=True),
                        [reference_adjugate(a0, z)[0] for z in k_nodes])

    def a_fn(z):
        det, adj = reference_adjugate(a0, z)
        return (z + 1j) * (kc @ adj[:rho, :rho] @ k_mat) + det * polyval_matrix(psi, z)

    def b_fn(z):
        _, adj = reference_adjugate(a0, z)
        return -(z * z + 1.0) * (kc @ adj[:rho, :] @ w_mat)

    def c_fn(z):
        det, adj = reference_adjugate(a0, z)
        return (-z + 1j) * (det * t_mat + (z - 1j) * (chat @ adj @ w_mat))

    def d_fn(z):
        _, adj = reference_adjugate(a0, z)
        return -(z - 1j) * (chat @ adj[:, :rho] @ k_mat)

    return psi, {
        "k": lambda z: polyval(z, k),
        "A": reference_interpolate(a_fn, tau + 3, (n_dim, n_dim)),
        "B": reference_interpolate(b_fn, tau + 2, (n_dim, delta)),
        "C": reference_interpolate(c_fn, tau + 2, (delta, delta)),
        "D": reference_interpolate(d_fn, tau + 2, (delta, n_dim)),
    }


def test_coefficients_match_per_node_reference(ex21):
    rng = np.random.default_rng(17)
    z = rng.uniform(-2.0, 2.0, 16) + 1j * rng.uniform(0.1, 2.0, 16)
    for state in [ex21] + indeterminate_states(7500):
        nc = assemble_coefficients(state.rep, state.bases)
        psi, ref = reference_coefficients(state, nc)
        assert np.array_equal(nc.psi.coeffs, psi.coeffs)
        got = {"k": polyval(z, nc.k), "A": polyval_matrix(nc.A_poly, z),
               "B": polyval_matrix(nc.B_poly, z), "C": polyval_matrix(nc.C_poly, z),
               "D": polyval_matrix(nc.D_poly, z)}
        for name, fn in ref.items():
            want = fn(z)
            assert got[name].shape == want.shape
            assert np.abs(got[name] - want).max() <= 1e-11 * np.abs(want).max(), (nc.tau, name)


def jittered_moments(seed, n_dim=4, d=6, n_atoms=7):
    """n_atoms atoms jittered around an even lattice on [-1, 1], random PD weights."""
    rng = np.random.default_rng(seed)
    locs = np.linspace(-1.0, 1.0, n_atoms) + rng.uniform(-0.1, 0.1, n_atoms)
    atoms = []
    for loc in locs:
        g = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        atoms.append((loc, g @ g.conj().T / n_dim + 0.15 * np.eye(n_dim)))
    return moments_from_measure(AtomicMeasure.from_atoms(atoms, n_dim), n_dim, d)


def test_tau24_instance_matches_resolvent():
    # tau = 24: the former monomial interpolation missed the adjugate identity here
    state = analyze(jittered_moments(0))
    assert not state.determinate and state.bases.tau == 24
    nc = assemble_coefficients(state.rep, state.bases)
    F = find_admissible_unitary(nc.Xi)
    rng = np.random.default_rng(24)
    z = rng.uniform(-2.0, 2.0, 64) + 1j * 10.0 ** rng.uniform(-1.0, 0.5, 64)
    got = evaluate_transform(nc, F, z)
    want = transform_via_resolvent(state.rep, state.bases, F, z)
    assert np.abs(got - want).max() <= 1e-8 * (1.0 + np.abs(want).max())


def test_ill_conditioned_eigenvectors_raise(ex21):
    # kappa(V) * eps is about 2e-16 on the golden input: above a rank_tol of 1e-17
    with pytest.raises(RankError, match="eigenvector matrix of a0 is ill-conditioned"):
        assemble_coefficients(ex21.rep, ex21.bases, Tolerances(rank_tol=1e-17))


def per_block_coefficients(nc, psi):
    """A, B, C and D multiplied out one block at a time, each product by the loop over
    the scalar coefficients (the former assembly), from nc's poles and residues."""
    tau, n_dim, length = nc.tau, nc.N, nc.tau + 4
    lam = nc.eigenvalues
    factors = np.stack([1j * (1.0 + lam), 1.0 - lam], axis=1)
    prefix, suffix = [np.ones(1, dtype=complex)], [np.ones(1, dtype=complex)]
    for j in range(tau - 1):
        prefix.append(np.convolve(prefix[-1], factors[j]))
        suffix.append(np.convolve(suffix[-1], factors[tau - 1 - j]))
    k_full = np.convolve(prefix[-1], factors[-1])
    deflated = np.stack([np.convolve(p, s) for p, s in zip(prefix, suffix[::-1])])
    num = (deflated.T @ nc.residues.reshape(tau, -1)).reshape(nc.residues.shape)

    def times(scalar, coeffs):
        out = np.zeros((length,) + coeffs.shape[1:], dtype=complex)
        for i, c in enumerate(scalar):
            out[i: i + coeffs.shape[0]] += c * coeffs
        return out

    return {
        "A": times([1j, 1.0], num[:, :n_dim, :n_dim]) + times(k_full, psi.coeffs),
        "B": times([-1.0, 0.0, -1.0], num[:, :n_dim, n_dim:]),
        "C": times(np.convolve([1j, -1.0], k_full), nc.T[None])
        + times([1.0, 2j, -1.0], num[:, n_dim:, n_dim:]),
        "D": times([1j, -1.0], num[:, n_dim:, :n_dim]),
    }


def test_block_array_equals_per_block_products_bit_for_bit(ex21):
    """The one (tau+4, N+delta, N+delta) array with its multiplier table gives every
    byte of the per-block products: the table's zeros add +-0 to sums that start at +0."""
    small = [analyze(moments_from_measure(random_measure(np.random.default_rng(seed), 1, 3),
                                          1, 1)) for seed in range(3)]
    for state in [ex21, *small, *indeterminate_states(7600)]:
        nc = assemble_coefficients(state.rep, state.bases)
        want = per_block_coefficients(nc, nc.psi)
        for name, poly in [("A", nc.A_poly), ("B", nc.B_poly), ("C", nc.C_poly),
                           ("D", nc.D_poly)]:
            assert poly.coeffs.tobytes() == MatrixPolynomial(want[name]).trim().coeffs.tobytes()
