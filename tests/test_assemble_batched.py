"""Stacked coefficient assembly against the former per-node assembly: one
det and one inverse per interpolation node, and fn called once per node."""

import numpy as np
import pytest

from matmom import AtomicMeasure, analyze, assemble_coefficients
from matmom.errors import RankError
from matmom.matpoly import MatrixPolynomial, interpolation_nodes, poly_from_samples, polyval

from conftest import moments_from_measure, random_measure


def reference_adjugate(a0, z):
    """det and adjugate of (z+i) I - (z-i) a0 at one node."""
    m = (z + 1j) * np.eye(a0.shape[0]) - (z - 1j) * a0
    det = complex(np.linalg.det(m))
    return det, det * np.linalg.inv(m)


def reference_interpolate(fn, degree, shape):
    """Interpolation with one call of fn per node."""
    nodes = interpolation_nodes(degree + 1)
    vander = np.vander(nodes, degree + 1, increasing=True)
    values = np.stack([np.asarray(fn(z), dtype=complex).reshape(-1) for z in nodes])
    coeffs = np.linalg.solve(vander, values).reshape((degree + 1,) + shape)
    return MatrixPolynomial(coeffs).trim()


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
    return MatrixPolynomial(inner).scale(np.array([-0.5, 0.5j]))


def reference_coefficients(state, nc):
    """k, A, B, C, D assembled node by node from nc's inner-product matrices."""
    tau, delta, rho, n_dim = nc.tau, nc.delta, nc.rho, nc.N
    a0, w_mat, t_mat, chat, k_mat = nc.a0, nc.W, nc.T, nc.Chat, nc.K
    kc = k_mat.conj().T
    psi = reference_psi(state.rep.gram(), n_dim)
    k_nodes = interpolation_nodes(tau + 1)
    k = np.linalg.solve(np.vander(k_nodes, tau + 1, increasing=True),
                        [reference_adjugate(a0, z)[0] for z in k_nodes])

    def a_fn(z):
        det, adj = reference_adjugate(a0, z)
        return (z + 1j) * (kc @ adj[:rho, :rho] @ k_mat) + det * psi(z)

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
        "k": lambda z: polyval(k, z),
        "A": reference_interpolate(a_fn, tau + 3, (n_dim, n_dim)),
        "B": reference_interpolate(b_fn, tau + 2, (n_dim, delta)),
        "C": reference_interpolate(c_fn, tau + 2, (delta, delta)),
        "D": reference_interpolate(d_fn, tau + 2, (delta, n_dim)),
    }


def random_states():
    states = []
    for seed, (n_dim, d, n_atoms) in enumerate([(2, 1, 4), (2, 2, 5), (3, 1, 4), (3, 2, 5)]):
        measure = random_measure(np.random.default_rng(7500 + seed), n_dim, n_atoms)
        state = analyze(moments_from_measure(measure, n_dim, d))
        assert not state.determinate
        states.append(state)
    return states


def test_coefficients_match_per_node_reference(ex21):
    rng = np.random.default_rng(17)
    z = rng.uniform(-2.0, 2.0, 16) + 1j * rng.uniform(0.1, 2.0, 16)
    for state in [ex21] + random_states():
        nc = assemble_coefficients(state.rep, state.bases)
        psi, ref = reference_coefficients(state, nc)
        assert np.array_equal(nc.psi.coeffs, psi.coeffs)
        got = {"k": polyval(nc.k, z), "A": nc.A_poly(z), "B": nc.B_poly(z),
               "C": nc.C_poly(z), "D": nc.D_poly(z)}
        for name, fn in ref.items():
            want = fn(z)
            assert got[name].shape == want.shape
            assert np.abs(got[name] - want).max() <= 1e-11 * np.abs(want).max(), (nc.tau, name)


@pytest.mark.parametrize("scalar", [False, True])
def test_from_samples_calls_fn_once_on_all_nodes(scalar):
    rng = np.random.default_rng(4)
    calls = []
    if scalar:
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)

        def fn(z):
            calls.append(np.array(z, copy=True))
            return polyval(coeffs, z)

        rec = poly_from_samples(fn, 5)
        assert np.abs(rec - coeffs).max() < 1e-10
    else:
        truth = MatrixPolynomial(rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3)))

        def fn(z):
            calls.append(np.array(z, copy=True))
            return truth(z)

        rec = MatrixPolynomial.from_samples(fn, 5, (2, 3))
        assert np.abs(rec.coeffs - truth.coeffs).max() < 1e-10
    assert len(calls) == 1
    assert np.array_equal(calls[0], interpolation_nodes(6))


def jittered_moments(seed, n_dim=4, d=6, n_atoms=7):
    """n_atoms atoms jittered around an even lattice on [-1, 1], random PD weights."""
    rng = np.random.default_rng(seed)
    locs = np.linspace(-1.0, 1.0, n_atoms) + rng.uniform(-0.1, 0.1, n_atoms)
    atoms = []
    for loc in locs:
        g = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        atoms.append((loc, g @ g.conj().T / n_dim + 0.15 * np.eye(n_dim)))
    return moments_from_measure(AtomicMeasure.from_atoms(atoms), n_dim, d)


def test_identity_violation_still_raised():
    # tau = 24: the interpolated adjugate misses the identity by about 1e4 times
    # the cutoff at the third check point, before and after stacking
    state = analyze(jittered_moments(0))
    assert not state.determinate and state.bases.tau == 24
    with pytest.raises(RankError, match="coefficient identity violated"):
        assemble_coefficients(state.rep, state.bases)
