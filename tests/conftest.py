import csv
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from matmom import AtomicMeasure, MomentSequence, analyze, assemble_coefficients
from matmom.errors import ParameterError
from matmom.gap import _family, random_unitary
from matmom.determinate import CLUSTER_WIDTH
from matmom.moment_model import DEFAULT_TOL, dumps, hermitize, matrix_to_json
from matmom.nevanlinna import extended_colligation


def run_cli(*args, stdin=None):
    """The matmom CLI in a subprocess that turns every warning into an error, as the
    test process does by its filterwarnings."""
    return subprocess.run([sys.executable, "-m", "matmom.cli", *args],
                          capture_output=True, text=True, input=stdin,
                          env={**os.environ, "PYTHONWARNINGS": "error"})


def example21_matrices():
    return [np.diag([1.0 / 3.0, 1.0]), np.diag([0.5, 1.0]), np.eye(2)]


@pytest.fixture(scope="session")
def ex21_moments():
    return MomentSequence.from_matrices(2, 1, example21_matrices())


@pytest.fixture(scope="session")
def ex21(ex21_moments):
    return analyze(ex21_moments)


@pytest.fixture(scope="session")
def ex21_nc(ex21):
    return assemble_coefficients(ex21.rep, ex21.bases)


@pytest.fixture(scope="session")
def point_mass_state():
    ms = MomentSequence.from_matrices(1, 1, [np.array([[1.0]]), np.array([[0.0]]),
                                             np.array([[0.0]])])
    return ms, analyze(ms)


def random_measure(rng, n_dim, n_atoms, spread=2.5, min_gap=0.35):
    """Well-separated atoms with uniformly positive definite weights, so rank
    decisions stay far from the tolerance cutoffs.

    Raises ValueError when n_atoms atoms min_gap apart cannot fit in
    [-spread, spread], where rejection sampling would never end.
    """
    if (n_atoms - 1) * min_gap > 2 * spread:
        raise ValueError(f"{n_atoms} atoms {min_gap} apart do not fit in [-{spread}, {spread}]")
    while True:
        t = np.sort(rng.uniform(-spread, spread, n_atoms))
        if n_atoms == 1 or np.diff(t).min() >= min_gap:
            break
    atoms = []
    for loc in t:
        g = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        w = g @ g.conj().T / n_dim + 0.15 * np.eye(n_dim)
        atoms.append((loc, w))
    return AtomicMeasure.from_atoms(atoms)


def former_distribution_csv(measure, dim):
    """The distribution CSV as the former two-step writer printed it, the reference of
    write_distribution_csv: one zero row below the support (at 0 for the empty
    measure), the running sum running + w from zero at each atom before its jump
    and the total past the last atom, written entry by entry with %.17g (finite
    values only)."""
    def rows():
        if not measure.size:
            yield 0.0, np.zeros((dim, dim), dtype=complex)
            return
        locations = measure.locations.tolist()
        yield locations[0] - 1.0, np.zeros((dim, dim), dtype=complex)
        running = np.zeros((dim, dim), dtype=complex)
        for t, w in zip(locations, measure.weights):
            yield t, running.copy()
            running = running + w
        yield locations[-1] + 1.0, running

    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(["lambda"] + [f"m_{{{k},{l}}}_{part}" for k in range(dim)
                                  for l in range(dim) for part in ("re", "im")])
    for lam, mat in rows():
        writer.writerow([format(float(lam), ".17g")]
                        + [format(float(part), ".17g") for v in mat.ravel()
                           for part in (v.real, v.imag)])
    return fh.getvalue()


def moments_from_measure(measure, n_dim, d):
    return MomentSequence.from_matrices(n_dim, d, measure.moments(2 * d + 1, dim=n_dim))


def moments_json(ms):
    """The input document of a moment sequence, in the schema parse_moments reads."""
    return dumps({"N": ms.N, "d": ms.d, "moments": [matrix_to_json(m) for m in ms.moments]})


def indeterminate_states(base_seed):
    """Analyses of four random indeterminate instances, (N, d) = (2, 1), (2, 2),
    (3, 1) and (3, 2); each has n_atoms > d + 1, so delta = N (2, 2, 3 and 3)."""
    states = []
    for seed, (n_dim, d, n_atoms) in enumerate([(2, 1, 4), (2, 2, 5), (3, 1, 4), (3, 2, 5)]):
        measure = random_measure(np.random.default_rng(base_seed + seed), n_dim, n_atoms)
        state = analyze(moments_from_measure(measure, n_dim, d))
        assert not state.determinate
        states.append(state)
    return states


def upper_points(rng, n):
    """n points of the upper half-plane, Re z in [-3, 3], Im z from 1e-2 to 10."""
    return rng.uniform(-3.0, 3.0, n) + 1j * 10.0 ** rng.uniform(-2.0, 1.0, n)


def scalar_only(param):
    """The callable param refusing array arguments, so that evaluate_transform
    samples it one point at a time."""
    def call(w):
        if np.ndim(w):
            raise TypeError("scalar argument expected")
        return param(w)
    return call


def pick_parameter(rng, state, nc, min_fixed_dist=0.1, tries=48):
    """Admissible unitary whose U_F keeps its eigenvalues min_fixed_dist from 1.

    The margin is far above FIXED_POINT_TOL, so the spectrum test of
    extension_operator passes.  Extensions with near-fixed points fling atoms
    far out and amplify weight roundoff, so property tests stay away from
    that boundary.
    """
    for k in range(tries):
        if nc.delta == 1:
            cand = np.array([[np.exp(1j * (0.37 + 0.61 * k))]])
        else:
            cand = random_unitary(rng, nc.delta, 1)[0]
        mu = np.linalg.eigvals(extended_colligation(state.bases.colligation_matrix, cand))
        if np.abs(mu - 1.0).min() >= min_fixed_dist:
            return cand
    raise ParameterError("no well-separated admissible unitary found")


def polyval_matrix(poly, z):
    """The MatrixPolynomial poly at scalar or array z, shape z.shape + (p, q).

    Horner's rule runs over a (p, q) + z.shape array, the points last, and the
    result is a view with the points moved first."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(poly.coeffs.shape[1:] + z.shape, dtype=complex)
    for c in poly.coeffs[::-1]:
        out *= z
        out += c.reshape(c.shape + (1,) * z.ndim)
    return np.moveaxis(out, (0, 1), (-2, -1))


def check_constant_admissible(F, Xi, tol=DEFAULT_TOL):
    """The forbidden-matrix test of a constant parameter, an oracle for the spectrum
    test of the library.

    A constant contraction is inadmissible exactly when some nonzero vector
    is annihilated by F - Xi while F preserves its norm.  The check runs
    over the whole null space of F - Xi, not just individual singular
    vectors.
    """
    F = np.asarray(F, dtype=complex)
    Xi = np.asarray(Xi, dtype=complex)
    svals_f = np.linalg.svd(F, compute_uv=False)
    if svals_f.size and svals_f[0] > 1.0 + tol.psd_tol:
        raise ParameterError(
            f"parameter is not a contraction (largest singular value {svals_f[0]:.6f})")
    diff = F - Xi
    _, svals, vh = np.linalg.svd(diff)
    null_mask = svals <= tol.inv_tol * max(1.0, float(svals.max(initial=0.0)))
    if not np.any(null_mask):
        return True
    null_basis = vh[null_mask].conj().T
    reach = float(np.linalg.svd(F @ null_basis, compute_uv=False).max(initial=0.0))
    return bool(reach < 1.0 - tol.inv_tol)


def spectral_measure_reference(a, xc):
    """spectral_measure one cluster at a time, the oracle of the stacked library
    function: (location, weight) pairs, the weight xc* P xc transposed back for
    the summed eigenprojection P = V V* of each cluster of eigh(a)."""
    if a.shape[0] == 0:
        return ()
    evals, evecs = np.linalg.eigh(a)
    cluster_tol = CLUSTER_WIDTH * (1.0 + max(-float(evals[0]), float(evals[-1])))
    atoms = []
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > cluster_tol:
            vecs = evecs[:, start:i]
            proj = vecs @ vecs.conj().T
            atoms.append((float(evals[start:i].mean()), hermitize((xc.conj().T @ proj @ xc).T)))
            start = i
    return tuple(atoms)


def contains_reference(spec, t, margin=0.0):
    """True when the scalar t lies in an open interval of spec, at least margin away
    from its endpoints: GapSpec.interior one point and one interval at a time."""
    return any(a + margin < t < b - margin for a, b in spec.intervals)


def verify_gap_reference(measure, spec, tol=DEFAULT_TOL):
    """verify_gap one atom at a time, the oracle of the stacked library function."""
    return not any(float(np.trace(w).real) > tol.gap_tol
                   and contains_reference(spec, t, margin=tol.gap_tol) for t, w in measure.atoms)


# ---------------------------------------------------------------------------
# Column-by-column references for the Gram-Schmidt split and the gap layer
# ---------------------------------------------------------------------------

def mgs_reference(mat, rank_tol=DEFAULT_TOL.rank_tol):
    """Left-looking MGS of the columns: (vectors, source indices, expansions) of the survivors."""
    r, m = mat.shape
    basis, expans, sources = [], [], []
    for idx in range(m):
        w = mat[:, idx].astype(complex)
        exp = np.zeros(m, dtype=complex)
        exp[idx] = 1.0
        scale = max(1.0, float(np.linalg.norm(w)))
        for sweep in range(2):
            if sweep and np.linalg.norm(w) > math.sqrt(rank_tol) * scale:
                break
            for q, eq in zip(basis, expans):
                c = np.vdot(q, w)
                w, exp = w - c * q, exp - c * eq
        norm_out = float(np.linalg.norm(w))
        if norm_out > rank_tol * scale:
            basis.append(w / norm_out)
            expans.append(exp / norm_out)
            sources.append(idx)
    return (np.column_stack(basis) if basis else np.zeros((r, 0), dtype=complex),
            tuple(sources), np.array(expans).reshape(len(sources), m))


def point_reference(rep, bases, lam, tol=DEFAULT_TOL):
    """(shift matrix, invertible, W or None) at one lam, from mgs_reference.

    The per-point oracle of the closed-form gap layer: the matrix of A - lam between the
    domain basis and the orthonormalized shifted range, its invertibility, and W~(lam)."""
    seq = gap_sequences(rep, [lam])[0]
    vectors, sources, _ = mgs_reference(seq, tol.rank_tol)
    dN = rep.dN
    in_range = np.array(sources) < dN
    # (A - lam) f_j for the domain basis, read off the shifted sequence x_{k+N} - lam x_k
    images = seq[:, :dN] @ bases.domain.expansions[:, :dN].T
    m_shift = vectors[:, in_range].conj().T @ images
    invertible = m_shift.shape[0] == m_shift.shape[1] > 0
    if invertible:
        svals = np.linalg.svd(m_shift, compute_uv=False)
        invertible = svals[-1] > tol.inv_tol * max(1.0, svals[0])
    if not invertible:
        return m_shift, False, None
    defect = vectors[:, ~in_range]
    assert defect.shape[1] == bases.delta
    m_s = bases.defect_basis.vectors.conj().T @ defect
    m_q = bases.codefect_basis.vectors.conj().T @ defect
    return m_shift, True, (lam + 1j) / (lam - 1j) * (m_q @ np.linalg.inv(m_s))


def w_tilde_table(state, lams, tol=DEFAULT_TOL):
    """(invertible, W) of the closed-form gap layer at the finite real lams: gap._family
    on the coefficients of the analysed state.  W is NaN where lam is not of regular type."""
    nc = assemble_coefficients(state.rep, state.bases, tol)
    return _family(nc, np.atleast_1d(np.asarray(lams, dtype=float)), tol)


def family_reference(bases, lams, tol=DEFAULT_TOL):
    """gap._family as it was before it read the pole-residue table: the residues
    (Chat V)[:, j] (V^{-1} W)[j, :] of G from one eig of a0 and one solve against V."""
    _, w_mat, chat, t_mat = bases.colligation
    poles, vecs = bases.a0_eig
    residues = (chat @ vecs).T[:, :, None] * np.linalg.solve(vecs, w_mat)[:, None, :]
    w = (lams + 1j) / (lams - 1j)
    offsets = w[:, None] - poles[None, :]
    invertible = np.abs(offsets).min(axis=1, initial=np.inf) > tol.inv_tol
    g = t_mat + np.einsum("nj,jkl->nkl", 1.0 / offsets[invertible], residues)
    out = np.full((lams.size, bases.delta, bases.delta), np.nan, dtype=complex)
    out[invertible] = w[invertible, None, None] * np.linalg.inv(g)
    return invertible, out


def gap_sequences(rep, lams):
    """The (n, r, dN+N) stack [x_{k+N} - lam x_k for k < dN, x_0..x_{N-1}] at each lam."""
    dN = rep.dN
    return np.stack([
        np.concatenate([rep.X[:, rep.N: rep.N + dN] - lam * rep.X[:, :dN], rep.X[:, : rep.N]],
                       axis=1)
        for lam in lams])


# ---------------------------------------------------------------------------
# Closed forms for the golden 2x2 instance (d=1, diagonal moments 1/3,1 / 1/2,1 / 1,1)
# ---------------------------------------------------------------------------

def golden_k(z):
    return (1 - 1j) * ((0.5 - 0.75j) * z - 0.75 + 1.5j) * (z - 1)


def golden_B(z):
    return -0.5 * (1 + 1j) * (z * z + 1) * (z - 1) * np.array([[1.0], [0.0]])


def golden_C(z):
    return (1 - 1j) * (z - 1) * (-z + 1j) * ((-0.5 - 0.75j) * z + 0.75 + 1.5j) * np.ones((1, 1))


def golden_D(z):
    return -0.5 * (1 + 1j) * (z - 1) * (z - 1j) * np.array([[1.0, 0.0]])


def golden_transform(z, f_val):
    """Full transform of the golden instance for a scalar parameter value.

    The parameter-dependent term carries a 1/(2i) factor; it drops out of
    every parameter-independent entry and is cross-validated at 1e-16
    against the resolvent path.
    """
    p = (0.5 - 0.75j) * z - 0.75 + 1.5j
    q = (-0.5 - 0.75j) * z + 0.75 + 1.5j
    base = np.array([
        [(-1.0 / 3.0) * (z - (9 - 32j) / 26) / ((z + 1j) * (z - (3.0 / 13.0) * (8 - 1j))), 0.0],
        [0.0, 1.0 / (1.0 - z)],
    ], dtype=complex)
    extra = (1.0 / (2j * (z + 1j) * p)) * f_val / ((z + 1j) * p + (-z + 1j) * q * f_val)
    out = base.copy()
    out[0, 0] += extra
    return out


def golden_w_tilde(lam):
    return (lam + 1j) * ((-3 - 2j) * lam + 6 + 3j) / ((lam - 1j) * ((-3 + 2j) * lam + 6 - 3j))


def golden_shift_matrix(lam):
    return np.diag([np.sqrt(lam * lam - 3 * lam + 3), 1 - lam])
