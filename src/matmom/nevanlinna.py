"""Linear-fractional parametrization of all solutions in the indeterminate case.

The transform of every solution (of the transposed measure) is

    (2i / ((z^2+1)^2 k(z))) * (A(z) + B(z) F ((z+i) k(z) I + C(z) F)^{-1} D(z))

over the upper half-plane punctured at i, where F ranges over the
contraction-valued parameters that avoid the forbidden matrix
isometrically at infinity.  All coefficient polynomials are assembled
from inner products of the orthonormal families built in hilbert_space;
polynomial coefficients are recovered by evaluation-interpolation with
exact degree bounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .determinate import resolvent_transform, spectral_measure
from .errors import EvaluationError, ParameterError, RankError
from .hilbert_space import BasisCollection, HilbertRep, ip_matrix
from .matpoly import MatrixPolynomial, interpolation_nodes, poly_from_samples, polyval
from .moment_model import AtomicMeasure, DEFAULT_TOL, Tolerances, hermitize

FIXED_POINT_TOL = 1e-8  # unitary extension eigenvalues this close to 1 are rejected
JACOBI_SWEEPS = 30      # cyclic sweeps before the stacked Jacobi SVD reports non-convergence


@dataclass(frozen=True, eq=False)
class NevanlinnaCoefficients:
    """Everything needed to evaluate the solution transform for any parameter."""

    N: int
    tau: int
    delta: int
    rho: int
    k: np.ndarray                 # scalar polynomial coefficients, lowest first
    A_poly: MatrixPolynomial      # N x N
    B_poly: MatrixPolynomial      # N x delta
    C_poly: MatrixPolynomial      # delta x delta
    D_poly: MatrixPolynomial      # delta x N
    Xi: np.ndarray                # (delta, delta) forbidden matrix
    W: np.ndarray                 # (tau, delta)
    T: np.ndarray                 # (delta, delta)
    Chat: np.ndarray              # (delta, tau)
    K: np.ndarray                 # (rho, N)
    a0: np.ndarray                # (tau, tau); the i-block equals I - w(z) a0
    psi: MatrixPolynomial         # N x N cubic correction term

    @property
    def c0(self) -> np.ndarray:
        # the defect-row block equals -w(z) c0; it shares its coefficient with Chat
        return self.Chat

    def to_json_obj(self) -> dict:
        from .moment_model import matrix_to_json
        return {
            "N": self.N,
            "tau": self.tau,
            "delta": self.delta,
            "rho": self.rho,
            "k": [[float(c.real), float(c.imag)] for c in self.k],
            "A": self.A_poly.to_json_obj(),
            "B": self.B_poly.to_json_obj(),
            "C": self.C_poly.to_json_obj(),
            "D": self.D_poly.to_json_obj(),
            "Xi": matrix_to_json(self.Xi),
            "W": matrix_to_json(self.W),
            "T": matrix_to_json(self.T),
            "Chat": matrix_to_json(self.Chat),
            "K": matrix_to_json(self.K),
            "A0_coeff": matrix_to_json(self.a0),
            "C0_coeff": matrix_to_json(self.c0),
            "psi": self.psi.to_json_obj(),
        }


def forbidden_matrix(bases: BasisCollection, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Matrix of the forbidden operator between the two defect bases.

    Built as the ratio of the two coordinate matrices of the projection of
    the domain complement onto the defect spaces.  The first factor is
    always invertible for a consistent rank classification.
    """
    if bases.delta == 0:
        raise ParameterError("problem is determinate; no forbidden matrix exists")
    f_comp = bases.domain_comp.vectors
    m_si = ip_matrix(bases.defect_basis.vectors, f_comp)
    m_smi = ip_matrix(bases.codefect_basis.vectors, f_comp)
    if m_si.shape[0] != m_si.shape[1]:
        raise RankError(f"defect dimensions disagree: {m_si.shape}")
    svals = np.linalg.svd(m_si, compute_uv=False)
    if svals[-1] <= tol.inv_tol * max(1.0, svals[0]):
        raise RankError(
            f"projection matrix is numerically singular (smallest singular value "
            f"{svals[-1]:.3e}); rank classification is unstable")
    xi = m_smi @ np.linalg.inv(m_si)
    sigma = float(np.linalg.svd(xi, compute_uv=False)[0])
    if sigma > 1.0 + 1e3 * tol.rank_tol:
        raise RankError(f"forbidden matrix is expanding (norm {sigma:.12f}); Gram data inconsistent")
    return xi


def check_constant_admissible(F: np.ndarray, Xi: np.ndarray,
                              tol: Tolerances = DEFAULT_TOL) -> bool:
    """Admissibility of a constant parameter matrix.

    A constant contraction is inadmissible exactly when some nonzero vector
    is annihilated by F - Xi while F preserves its norm.  The check runs
    over the whole null space of F - Xi, not just individual singular
    vectors.
    """
    F = np.asarray(F, dtype=complex)
    Xi = np.asarray(Xi, dtype=complex)
    svals_f = np.linalg.svd(F, compute_uv=False)
    if svals_f.size and svals_f[0] > 1.0 + tol.psd_tol:
        raise ParameterError(f"parameter is not a contraction (largest singular value {svals_f[0]:.6f})")
    diff = F - Xi
    _, svals, vh = np.linalg.svd(diff)
    null_mask = svals <= tol.inv_tol * max(1.0, float(svals.max(initial=0.0)))
    if not np.any(null_mask):
        return True
    null_basis = vh[null_mask].conj().T
    reach = float(np.linalg.svd(F @ null_basis, compute_uv=False).max(initial=0.0))
    return bool(reach < 1.0 - tol.inv_tol)


def _node_stack(a0: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(z+i) I - (z-i) a0 at every upper half-plane node: an (n, tau, tau) stack."""
    m = (nodes - 1j)[:, None, None] * a0
    np.negative(m, out=m)
    diag = np.arange(a0.shape[0])
    m[:, diag, diag] += (nodes + 1j)[:, None]
    return m


def _adjugate_stack(a0: np.ndarray, nodes: np.ndarray):
    """det and adjugate of (z+i) I - (z-i) a0 at every upper half-plane node.

    Returns the (n,) determinants and the (n, tau, tau) adjugates det * inv,
    from one batched det and one batched inverse over the node stack.
    """
    m = _node_stack(a0, nodes)
    det = np.linalg.det(m)
    adj = np.linalg.inv(m)
    # det as the first operand rounds as det * inv(m) of one node does; adj *= det does not
    np.multiply(det[:, None, None], adj, out=adj)
    return det, adj


def assemble_coefficients(rep: HilbertRep, bases: BasisCollection,
                          tol: Tolerances = DEFAULT_TOL) -> NevanlinnaCoefficients:
    """Build all transform coefficients from inner products of the basis families.

    k, A, B, C and D are interpolated from samples at upper half-plane nodes
    (matpoly.interpolation_nodes) with exact degree bounds: tau+1 nodes for k,
    tau+4 for A, and one set of tau+3 nodes shared by B, C and D.  k's samples
    are one batched det; those of A and of B, C, D come from one stacked
    adjugate each (one batched det and one batched inverse) and broadcast
    products over the stack; only one node set's stack is alive at a time.  The result is checked against the
    adjugate identity at three fixed points (RankError when it fails).
    """
    if bases.delta == 0:
        raise ParameterError("problem is determinate; the parametrization is for the indeterminate case")
    tau, delta, rho, n_dim = bases.tau, bases.delta, bases.rho, rep.N
    if rho < 1:
        raise RankError("no difference vector among the leading block survived; inconsistent data")

    u = bases.range_basis.vectors
    up = bases.defect_basis.vectors
    v = bases.cayley
    vp = bases.codefect_basis.vectors

    a0 = ip_matrix(u, v)                      # (v_k, u_j)
    w_mat = ip_matrix(u, vp)                  # (v'_l, u_j)
    t_mat = ip_matrix(up, vp)                 # (v'_l, u'_j)
    chat = ip_matrix(up, v)                   # (v_k, u'_j)
    k_mat = ip_matrix(u, bases.y[:, :n_dim])[:rho]  # (y_k, u_j), leading rows only

    # cubic correction: entry (j, k) collects gamma values with shifted indices
    gamma = rep.gram()
    g_kj = gamma[:n_dim, :n_dim].T
    g_sk_j = gamma[n_dim:2 * n_dim, :n_dim].T
    g_sk_sj = gamma[n_dim:2 * n_dim, n_dim:2 * n_dim].T
    inner = np.stack([g_sk_sj - 1j * g_sk_j + g_kj, g_sk_j - 1j * g_kj, g_kj])
    psi = MatrixPolynomial(inner).scale(np.array([-0.5, 0.5j]))  # times (i/2)(z+i)

    k_coeffs = poly_from_samples(lambda z: np.linalg.det(_node_stack(a0, z)), tau)

    kc = k_mat.conj().T  # (N, rho)

    def a_fn(z):
        det, adj = _adjugate_stack(a0, z)
        return (z + 1j)[:, None, None] * (kc @ adj[:, :rho, :rho] @ k_mat) \
            + det[:, None, None] * psi(z)

    a_poly = MatrixPolynomial.from_samples(a_fn, tau + 3, (n_dim, n_dim))

    # B, C and D share the tau+3 nodes that from_samples passes to each of them
    det, adj = _adjugate_stack(a0, interpolation_nodes(tau + 3))

    def b_fn(z):
        return -(z * z + 1.0)[:, None, None] * (kc @ adj[:, :rho, :] @ w_mat)

    def c_fn(z):
        zz = z[:, None, None]
        return (-zz + 1j) * (det[:, None, None] * t_mat + (zz - 1j) * (chat @ adj @ w_mat))

    def d_fn(z):
        return -(z - 1j)[:, None, None] * (chat @ adj[:, :, :rho] @ k_mat)

    b_poly = MatrixPolynomial.from_samples(b_fn, tau + 2, (n_dim, delta))
    c_poly = MatrixPolynomial.from_samples(c_fn, tau + 2, (delta, delta))
    d_poly = MatrixPolynomial.from_samples(d_fn, tau + 2, (delta, n_dim))
    del det, adj

    xi = forbidden_matrix(bases, tol)

    nc = NevanlinnaCoefficients(
        N=n_dim, tau=tau, delta=delta, rho=rho, k=k_coeffs,
        A_poly=a_poly, B_poly=b_poly, C_poly=c_poly, D_poly=d_poly,
        Xi=xi, W=w_mat, T=t_mat, Chat=chat, K=k_mat, a0=a0, psi=psi,
    )
    _verify_coefficient_identity(nc)
    return nc


def _verify_coefficient_identity(nc: NevanlinnaCoefficients) -> None:
    # the adjugate polynomial times the i-block must collapse to k(z)/(z+i) I
    eye = np.eye(nc.tau)
    points = np.array([0.31 + 0.83j, -0.67 + 1.62j, 1.13 + 0.44j])
    _, adj = _adjugate_stack(nc.a0, points)
    zz = points[:, None, None]
    lhs = adj @ (eye - ((zz - 1j) / (zz + 1j)) * nc.a0)
    rhs = (polyval(nc.k, points) / (points + 1j))[:, None, None] * eye
    scale = 1.0 + np.abs(rhs).max(axis=(1, 2), initial=0.0)
    if np.any(np.abs(lhs - rhs).max(axis=(1, 2), initial=0.0) > 1e-8 * scale):
        raise RankError("coefficient identity violated; interpolation degrees inconsistent")


def _jacobi_svd(a: np.ndarray):
    """One-sided (Hestenes) Jacobi SVD of every matrix of an (n, k, k) stack.

    Returns (b, v, s) with a @ v = b, v unitary, the columns of b orthogonal
    and s (n, k) their norms, the singular values in no particular order.
    Cyclic sweeps rotate column pairs, each rotation one array operation over
    the matrices not yet converged; a matrix converges when a whole sweep
    leaves every pair's cosine |b_p^H b_q| / (|b_p| |b_q|) at most k * eps.
    For k = 1 there is no pair to rotate.  Raises EvaluationError on
    non-finite entries and when JACOBI_SWEEPS sweeps leave some matrix
    unconverged.
    """
    n, k = a.shape[0], a.shape[-1]
    if not np.isfinite(a).all():
        raise EvaluationError("stacked Jacobi SVD received non-finite matrix entries")
    # cols[p] holds column p of every b above column p of every v, matrices on the last axis
    cols = np.empty((k, 2 * k, n), dtype=complex)
    cols[:, :k] = np.transpose(a, (2, 1, 0))
    cols[:, k:] = np.eye(k)[:, :, None]
    pairs = [(p, q) for p in range(k) for q in range(p + 1, k)]
    cutoff = k * np.finfo(float).eps
    active = np.arange(n)
    sweeps = 0
    while pairs and active.size:
        if sweeps == JACOBI_SWEEPS:
            raise EvaluationError(
                f"stacked Jacobi SVD did not converge in {JACOBI_SWEEPS} sweeps "
                f"({active.size} of {n} matrices)")
        sweeps += 1
        w = cols if active.size == n else cols[:, :, active]
        moved = np.zeros(active.size, dtype=bool)
        for p, q in pairs:
            x, y = w[p], w[q]
            alpha = (x[:k].real ** 2 + x[:k].imag ** 2).sum(axis=0)
            beta = (y[:k].real ** 2 + y[:k].imag ** 2).sum(axis=0)
            gamma = (x[:k].conj() * y[:k]).sum(axis=0)
            mag = np.abs(gamma)
            rot = ~(mag <= cutoff * np.sqrt(alpha * beta))  # NaN from overflow never converges
            if not rot.any():
                continue
            moved |= rot
            # tangent of the rotation angle that zeroes gamma, the smaller root
            h = 0.5 * (beta - alpha)
            t = np.divide(mag, h + np.copysign(np.sqrt(h * h + mag * mag), h),
                          out=np.zeros_like(mag), where=rot)
            phase = np.divide(gamma.conj(), mag, out=np.ones_like(gamma), where=rot)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            w[p], w[q] = c * x - (s * phase) * y, s * x + (c * phase) * y
        if w is not cols:
            cols[:, :, active] = w
        active = active[moved]
    b = cols[:, :k]
    s = np.sqrt((b.real ** 2 + b.imag ** 2).sum(axis=1)).T
    return np.transpose(b, (2, 1, 0)), np.transpose(cols[:, k:], (2, 1, 0)), s


def _parameter_values(F, delta: int, points: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The parameter checked to be a contraction: a (delta, delta) matrix for
    constant F, one SVD in all; an (n, delta, delta) stack of F(z) for callable F."""
    if callable(F):
        vals = np.empty((points.size, delta, delta), dtype=complex)
        for i, z in enumerate(points):
            vals[i] = np.asarray(F(z), dtype=complex).reshape(delta, delta)
        largest = float(_jacobi_svd(vals)[2].max(initial=0.0))
    else:
        vals = np.asarray(F, dtype=complex).reshape(delta, delta)
        largest = float(np.linalg.svd(vals, compute_uv=False)[0])
    if largest > 1.0 + tol.psd_tol:
        raise ParameterError(
            f"parameter is not a contraction (largest singular value {largest:.6f})")
    return vals


def _stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the points: a (n, p, k) and b (n, k, q) stacks, or a constant
    (k, q) b.  A constant b multiplies the whole stack in one matrix product;
    two stacks are multiplied by k broadcast products, since the inner
    dimension is delta and one BLAS call per point costs more than the
    arithmetic."""
    if b.ndim == 2:
        return (a.reshape(-1, b.shape[0]) @ b).reshape(a.shape[:2] + b.shape[1:])
    out = a[:, :, :1] * b[:, :1, :]
    for j in range(1, a.shape[2]):
        out += a[:, :, j: j + 1] * b[:, j: j + 1, :]
    return out


def outside_domain(z) -> np.ndarray:
    """Mask of the points of z outside the transform's domain: the closed
    lower half-plane and the point i."""
    z = np.asarray(z, dtype=complex)
    return (z.imag <= 0.0) | (np.abs(z - 1j) < 1e-10)


def evaluate_transform(nc: NevanlinnaCoefficients, F, z,
                       tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the solution transform for parameter F at z (scalar or array).

    z must lie in the open upper half-plane away from i (EvaluationError for
    the first point of z that does not, see outside_domain).  F is a constant
    delta x delta contraction or a callable z -> matrix.  Returns the
    transform of the transposed measure: entry (j, k) integrates
    1/(t - z) against dm_{k,j}.

    A constant F is checked to be a contraction once and multiplies the
    coefficient stacks directly; a callable F costs one Python call per
    point and its values are checked with the stacked SVD below.  One
    stacked one-sided Jacobi SVD of the pivot matrices (z+i) k(z) I + C(z) F
    over all points gives both the singular-pivot test and the solve, so no
    LAPACK call is made per point.
    """
    z_arr = np.asarray(z, dtype=complex)
    flat = np.atleast_1d(z_arr).ravel()
    if flat.size == 0:
        return np.zeros(z_arr.shape + (nc.N, nc.N), dtype=complex)
    outside = np.flatnonzero(outside_domain(flat))
    if outside.size:
        if flat[outside[0]].imag <= 0.0:
            raise EvaluationError("z must lie in the open upper half-plane")
        raise EvaluationError("z = i is excluded from the transform domain")

    f_vals = _parameter_values(F, nc.delta, flat, tol)
    kz = polyval(nc.k, flat)
    az = nc.A_poly(flat)
    bz = nc.B_poly(flat)
    cz = nc.C_poly(flat)
    dz = nc.D_poly(flat)

    pivot = ((flat + 1j) * kz)[:, None, None] * np.eye(nc.delta) + _stack_product(cz, f_vals)
    b, v, svals = _jacobi_svd(pivot)
    smin = svals.min(axis=1)
    bad = smin <= tol.inv_tol * np.maximum(1.0, svals.max(axis=1))
    if np.any(bad):
        idx = int(np.nonzero(bad)[0][0])
        raise EvaluationError(
            f"singular pivot at z={flat[idx]}: smallest singular value {smin[idx]:.3e} "
            "(parameter not admissible at this point, or z is a root of k)")
    # pivot = b v^H with b's columns orthogonal, so pivot^{-1} = v diag(s^-2) b^H
    solved = _stack_product(v, _stack_product(np.swapaxes(b.conj(), 1, 2), dz)
                            / (svals ** 2)[:, :, None])
    inner = _stack_product(_stack_product(bz, f_vals), solved)
    pref = 2j / ((flat ** 2 + 1.0) ** 2 * kz)
    out = pref[:, None, None] * (az + inner)
    if z_arr.ndim == 0:
        return out[0]
    return out.reshape(z_arr.shape + (nc.N, nc.N))


# ---------------------------------------------------------------------------
# Canonical solutions from unitary constant parameters
# ---------------------------------------------------------------------------

def extension_matrix(bases: BasisCollection, F: np.ndarray) -> np.ndarray:
    """Unitary extension of the Cayley isometry determined by a unitary parameter."""
    q = np.concatenate([bases.range_basis.vectors, bases.defect_basis.vectors], axis=1)
    images = np.concatenate([bases.cayley, bases.codefect_basis.vectors @ F], axis=1)
    return images @ q.conj().T


def extension_operator(bases: BasisCollection, F: np.ndarray,
                       tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Self-adjoint extension of the shift, as an r x r Hermitian matrix.

    Requires a unitary, admissible parameter whose extension has no fixed
    points.  Admissibility and the fixed-point test are expected to agree;
    a disagreement is reported as a warning since their equivalence is a
    working hypothesis, not a proved fact.
    """
    if bases.delta == 0:
        raise ParameterError("problem is determinate; use the determinate solver")
    F = np.asarray(F, dtype=complex).reshape(bases.delta, bases.delta)
    unit_dev = float(np.abs(F.conj().T @ F - np.eye(bases.delta)).max(initial=0.0))
    if unit_dev > tol.psd_tol:
        raise ParameterError(f"parameter is not unitary (deviation {unit_dev:.3e})")

    xi = forbidden_matrix(bases, tol)
    admissible = check_constant_admissible(F, xi, tol)
    u_ext = extension_matrix(bases, F)
    eigs = np.linalg.eigvals(u_ext)
    fixed_dist = float(np.abs(eigs - 1.0).min(initial=np.inf))
    has_fixed = fixed_dist <= FIXED_POINT_TOL

    if admissible == has_fixed:
        warnings.warn(
            "admissibility and the fixed-point test disagree "
            f"(admissible={admissible}, nearest extension eigenvalue to 1 at distance "
            f"{fixed_dist:.3e}); treating the parameter as rejected",
            RuntimeWarning, stacklevel=2)
    if not admissible:
        raise ParameterError("parameter is not admissible (forbidden-matrix condition)")
    if has_fixed:
        raise ParameterError(
            f"extension has fixed points (eigenvalue within {fixed_dist:.3e} of 1); "
            "parameter rejected")

    eye = np.eye(u_ext.shape[0])
    a_ext = 1j * np.linalg.solve(u_ext - eye, u_ext + eye)
    return hermitize(a_ext)


def canonical_solution(rep: HilbertRep, bases: BasisCollection, F,
                       tol: Tolerances = DEFAULT_TOL) -> AtomicMeasure:
    """Finitely atomic solution generated by a unitary constant parameter.

    Atoms sit at the eigenvalues of the extension; the weight at each atom
    compresses the eigenprojection onto the leading generating vectors.
    """
    return spectral_measure(extension_operator(bases, F, tol), rep.first_block())


def transform_via_resolvent(rep: HilbertRep, bases: BasisCollection, F, z,
                            tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Transform values computed through the resolvent of the extension.

    Independent of the polynomial coefficient path: entry (j, k) is the
    inner product of the resolvent applied to x_k against x_j, matching the
    transposed-measure convention of evaluate_transform.
    """
    return resolvent_transform(extension_operator(bases, F, tol), rep.first_block(), z)


def random_unitary(rng: np.random.Generator, delta: int) -> np.ndarray:
    """Haar-random delta x delta unitary: QR of a complex Gaussian matrix with
    the phases of R's diagonal moved into Q."""
    g = rng.normal(size=(delta, delta)) + 1j * rng.normal(size=(delta, delta))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def find_admissible_unitary(Xi: np.ndarray, tol: Tolerances = DEFAULT_TOL,
                            seed: int = 0, tries: int = 128) -> np.ndarray:
    """Deterministically search for an admissible unitary constant parameter."""
    delta = Xi.shape[0]
    if delta == 1:
        golden = 2.0 * np.pi * (np.sqrt(5.0) - 1.0) / 2.0
        candidates = (np.array([[np.exp(1j * (0.0 + j * golden))]]) for j in range(tries))
    else:
        rng = np.random.default_rng(seed)
        candidates = (random_unitary(rng, delta) for _ in range(tries))
    for F in candidates:
        if check_constant_admissible(F, Xi, tol):
            return F
    raise ParameterError("no admissible unitary parameter found within the search budget")


# ---------------------------------------------------------------------------
# Stieltjes-Perron inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledDistribution:
    """Cumulative distribution samples recovered from boundary values."""

    grid: np.ndarray      # (L,) increasing real points
    values: np.ndarray    # (L, N, N) cumulative mass over (grid[0], grid[k])
    monotone: bool        # False when the extrapolated diagonals dip
    eps_schedule: tuple

    def total_mass(self) -> np.ndarray:
        return self.values[-1]


def _neville_at_zero(xs, tables):
    tab = list(tables)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - j):
            tab[i] = (xs[i] * tab[i + 1] - xs[i + j] * tab[i]) / (xs[i] - xs[i + j])
    return tab[0]


def invert_transform(evaluator, grid, eps_schedule=(1e-2, 1e-3, 1e-4)) -> SampledDistribution:
    """Recover the cumulative measure from transform boundary values.

    Integrates the matrix imaginary part of the transform along horizontal
    lines Im z = eps by the trapezoid rule on the grid, then extrapolates
    eps -> 0 through the schedule.  The evaluator receives a full complex
    grid array and must return stacked (L, N, N) transform values of the
    transposed measure; the output is transposed back.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise EvaluationError("grid must be a strictly increasing 1-D array")
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if not eps_schedule or any(e <= 0 for e in eps_schedule):
        raise EvaluationError("eps schedule must contain positive values")

    cums = []
    for eps in eps_schedule:
        vals = np.asarray(evaluator(grid + 1j * eps), dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None, None]
        imag = (vals - vals.conj().transpose(0, 2, 1)) / 2j
        steps = 0.5 * (imag[1:] + imag[:-1]) * np.diff(grid)[:, None, None]
        cum = np.concatenate([np.zeros((1,) + imag.shape[1:]), np.cumsum(steps, axis=0)])
        cums.append(cum / np.pi)

    extrap = cums[0] if len(cums) == 1 else _neville_at_zero(eps_schedule, cums)
    diag = np.real(np.einsum("lkk->lk", extrap))
    slack = 1e-6 * (1.0 + float(np.abs(diag).max(initial=0.0)))
    monotone = bool(np.all(np.diff(diag, axis=0) >= -slack))
    if not monotone:
        warnings.warn("extrapolated distribution is not monotone within tolerance",
                      RuntimeWarning, stacklevel=2)
    values = extrap.transpose(0, 2, 1)  # transposed-measure transform back to the measure
    return SampledDistribution(grid=grid, values=values, monotone=monotone,
                               eps_schedule=eps_schedule)
