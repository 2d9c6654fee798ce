"""The stacked Jacobi SVD and the batched transform evaluation against LAPACK:
one SVD per matrix, and the former path with one SVD and one solve per point."""

from dataclasses import replace

import numpy as np
import pytest

import matmom.nevanlinna as nev
from matmom import analyze, assemble_coefficients, evaluate_transform, find_admissible_unitary
from matmom.errors import EvaluationError, ParameterError
from matmom.matpoly import MatrixPolynomial, polyval
from matmom.moment_model import DEFAULT_TOL

from conftest import moments_from_measure, random_measure

INV_TOL = DEFAULT_TOL.inv_tol


def reference_transform(nc, F, z, tol=DEFAULT_TOL):
    """(values, singular) with one LAPACK SVD and one LAPACK solve per point."""
    flat = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    if callable(F):
        f_vals = np.stack([np.asarray(F(w), dtype=complex).reshape(nc.delta, nc.delta)
                           for w in flat])
    else:
        f_vals = np.broadcast_to(np.asarray(F, dtype=complex), (flat.size, nc.delta, nc.delta))
    kz = polyval(nc.k, flat)
    pivot = ((flat + 1j) * kz)[:, None, None] * np.eye(nc.delta) + nc.C_poly(flat) @ f_vals
    svals = np.linalg.svd(pivot, compute_uv=False)
    singular = svals[:, -1] <= tol.inv_tol * np.maximum(1.0, svals[:, 0])
    if singular.any():
        return None, singular
    inner = nc.B_poly(flat) @ f_vals @ np.linalg.solve(pivot, nc.D_poly(flat))
    pref = 2j / ((flat ** 2 + 1.0) ** 2 * kz)
    return pref[:, None, None] * (nc.A_poly(flat) + inner), singular


def random_stack(rng, n, k, svals=None):
    """n random complex k x k matrices; with svals, U diag(svals) V^H for Haar-like U, V."""
    g = rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k))
    if svals is None:
        return g
    u = np.linalg.qr(g)[0]
    v = np.linalg.qr(rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k)))[0]
    return (u * np.asarray(svals)[None, None, :]) @ np.swapaxes(v.conj(), 1, 2)


def kernel_cases(rng, n, k):
    """(name, stack, expected singular verdict or None) for one n and k."""
    yield "random", random_stack(rng, n, k), None
    deficient = random_stack(rng, n, k)
    mix = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
    deficient[:, :, -1] = deficient[:, :, :-1] @ mix  # exactly rank-deficient; zero for k = 1
    yield "rank-deficient", deficient, True
    # sigma_max 0.5 keeps every ratio a factor 2 or more from the cutoff
    # inv_tol * max(1, sigma_max), so no verdict hinges on rounding
    for ratio, top in ((1e-9, 0.5), (1e-9, 40.0), (1e-10, 0.5), (1e-11, 0.5), (1e-11, 40.0)):
        svals = top * np.geomspace(1.0, ratio, k)
        yield (f"ratio {ratio} top {top}", random_stack(rng, n, k, svals),
               svals[-1] <= INV_TOL * max(1.0, top))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 7, 4096])
def test_jacobi_svd_matches_lapack(n, k):
    rng = np.random.default_rng(1000 * k + n)
    for name, a, expected in kernel_cases(rng, n, k):
        b, v, s = nev._jacobi_svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        top = ref[:, 0].max()
        assert np.abs(np.sort(s, axis=1)[:, ::-1] - ref).max() <= 1e-13 * top, name
        mask = s.min(axis=1) <= INV_TOL * np.maximum(1.0, s.max(axis=1))
        ref_mask = ref[:, -1] <= INV_TOL * np.maximum(1.0, ref[:, 0])
        assert np.array_equal(mask, ref_mask), name
        if expected is not None:
            assert (mask == expected).all(), name
        vh = np.swapaxes(v.conj(), 1, 2)
        assert np.abs(b @ vh - a).max() <= 1e-13 * max(1.0, top), name
        assert np.abs(vh @ v - np.eye(k)).max() < 1e-14, name
        off = np.swapaxes(b.conj(), 1, 2) @ b * (1.0 - np.eye(k))
        assert np.abs(off).max() <= 1e-14 * top ** 2, name


def test_jacobi_svd_raises_when_not_converged(monkeypatch):
    a = random_stack(np.random.default_rng(3), 5, 3)
    nev._jacobi_svd(a)
    monkeypatch.setattr(nev, "JACOBI_SWEEPS", 1)
    with pytest.raises(EvaluationError, match=r"did not converge in 1 sweeps \(5 of 5 matrices"):
        nev._jacobi_svd(a)
    a[2, 1, 0] = np.nan
    with pytest.raises(EvaluationError, match="non-finite"):
        nev._jacobi_svd(a)


def random_states():
    states = []
    for seed, (n_dim, d, n_atoms) in enumerate([(2, 1, 4), (2, 2, 5), (3, 1, 4), (3, 2, 5)]):
        measure = random_measure(np.random.default_rng(7300 + seed), n_dim, n_atoms)
        state = analyze(moments_from_measure(measure, n_dim, d))
        assert not state.determinate
        states.append(state)
    return states


def parameters(nc, rng):
    unitary = find_admissible_unitary(nc.Xi)
    g = rng.normal(size=(nc.delta, nc.delta)) + 1j * rng.normal(size=(nc.delta, nc.delta))
    yield "unitary", unitary
    yield "contraction", 0.6 * unitary
    yield "generic contraction", 0.9 * g / np.linalg.norm(g, 2)
    yield "schur", lambda z: ((z - 1j) / (z + 1j)) * unitary


def test_transform_matches_lapack_reference(ex21):
    rng = np.random.default_rng(11)
    deltas = set()
    for state in [ex21] + random_states():
        nc = assemble_coefficients(state.rep, state.bases)
        deltas.add(nc.delta)
        z = rng.uniform(-3.0, 3.0, 512) + 1j * 10.0 ** rng.uniform(-2.0, 1.0, 512)
        for name, F in parameters(nc, rng):
            got = evaluate_transform(nc, F, z)
            want, singular = reference_transform(nc, F, z)
            assert not singular.any()
            assert got.shape == (512, nc.N, nc.N)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (nc.delta, name)
            one = evaluate_transform(nc, F, z[7])
            assert one.shape == (nc.N, nc.N)
            assert np.abs(one - want[7]).max() <= 1e-12 * np.abs(want).max()
    assert deltas == {1, 2, 3}


def test_callable_non_contraction_at_one_point_rejected(ex21_nc):
    z = np.array([0.5 + 1j, -1.0 + 2j, 0.3 + 0.1j, 2.0 + 0.5j])
    param = lambda w: np.array([[1.5 if w == z[2] else 0.5]])
    with pytest.raises(ParameterError, match="not a contraction"):
        evaluate_transform(ex21_nc, param, z)
    evaluate_transform(ex21_nc, param, z[[0, 1, 3]])


def test_singular_pivot_raised_at_first_bad_point(ex21_nc):
    """C is replaced so that the pivot with F = 1 is z - z0, singular only at z0."""
    nc, z0 = ex21_nc, 0.25 + 0.5j
    zk = np.convolve(nc.k, [1j, 1.0])  # (z + i) k(z), lowest degree first
    coeffs = -zk[:, None, None]
    coeffs[:2, 0, 0] += [-z0, 1.0]
    c_poly = MatrixPolynomial(coeffs).trim()
    bad = replace(nc, C_poly=c_poly)
    z = np.array([1.0 + 1j, z0, -0.5 + 2j, z0])
    _, singular = reference_transform(bad, np.eye(1), z)
    assert singular.tolist() == [False, True, False, True]
    with pytest.raises(EvaluationError, match=r"singular pivot at z=\(0\.25\+0\.5j\)"):
        evaluate_transform(bad, np.eye(1), z)
    got = evaluate_transform(bad, np.eye(1), z[[0, 2]])
    want, _ = reference_transform(bad, np.eye(1), z[[0, 2]])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
