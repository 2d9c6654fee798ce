"""Linear-fractional parametrization of all solutions in the indeterminate case.

The transform of every solution (of the transposed measure) is

    (2i / ((z^2+1)^2 k(z))) * (A(z) + B(z) F ((z+i) k(z) I + C(z) F)^{-1} D(z))

over the upper half-plane punctured at i, where F ranges over the
contraction-valued parameters that avoid the forbidden matrix
isometrically at infinity.  a0, W, Chat and T, the inner products of the
orthonormal families in hilbert_space, are the blocks of the unitary
colligation U = [[a0, W], [Chat, T]] (the characteristic-function form of
Sz.-Nagy and Foias).  For a constant F the transform is the compressed
resolvent of U_F = [[a0, W F], [Chat, T F]]: the pivot above is the Schur
complement of (z+i) I - (z-i) U_F, so one eig of U_F turns it into a
pole-residue sum.  For a callable F, k(z) cancels: A/k, B/k, C/k and D/k are
pole-residue sums over the eigenvalues of a0, and the pivot is solved point
by point in one stacked Jacobi SVD.  The monomial coefficients of k, A, B, C
and D are only printed; they are multiplied out of the factored form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .determinate import resolvent_transform, spectral_measure
from .errors import EvaluationError, ParameterError, RankError
from .hilbert_space import BasisCollection, HilbertRep, ip_matrix
from .matpoly import MatrixPolynomial, poly_times, poly_trim
from .moment_model import AtomicMeasure, DEFAULT_TOL, Tolerances, hermitize

FIXED_POINT_TOL = 1e-8  # unitary extension eigenvalues this close to 1 are rejected
JACOBI_SWEEPS = 30      # cyclic sweeps before the stacked Jacobi SVD reports non-convergence
SAMPLE_BLOCK = 1024     # callable parameter values held at once: one small array per point


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
    eigenvalues: np.ndarray       # (tau,) eigenvalues lam_j of a0, the poles' parameters
    residues: np.ndarray          # (tau, (N+delta)^2) residue of pole j, see assemble_coefficients

    @property
    def c0(self) -> np.ndarray:
        # the defect-row block equals -w(z) c0; it shares its coefficient with Chat
        return self.Chat

    @property
    def u(self) -> np.ndarray:
        """The colligation U = [[a0, W], [Chat, T]] as one (tau+delta) square matrix."""
        return np.block([[self.a0, self.W], [self.Chat, self.T]])

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


def colligation(bases: BasisCollection):
    """Blocks (a0, W, Chat, T) of the unitary colligation U = [[a0, W], [Chat, T]].

    They are the inner products of the Cayley images v and the codefect
    basis v' with the range basis u and the defect basis u': a0 = (v_k, u_j),
    W = (v'_l, u_j), Chat = (v_k, u'_j) and T = (v'_l, u'_j).  In the basis
    [u, u'] the unitary extension of a parameter F has the matrix
    U_F = [[a0, W F], [Chat, T F]].
    """
    u, up = bases.range_basis.vectors, bases.defect_basis.vectors
    v, vp = bases.cayley, bases.codefect_basis.vectors
    return ip_matrix(u, v), ip_matrix(u, vp), ip_matrix(up, v), ip_matrix(up, vp)


def extended_colligation(u: np.ndarray, F: np.ndarray) -> np.ndarray:
    """U_F = [[a0, W F], [Chat, T F]]: the colligation U = [[a0, W], [Chat, T]]
    with its last delta columns multiplied by the delta x delta parameter F.
    It is unitary for a unitary F and a contraction for a contraction F."""
    tau = u.shape[1] - F.shape[0]
    return np.concatenate([u[:, :tau], u[:, tau:] @ F], axis=1)


def _diagonalize(m: np.ndarray, name: str, tol: Tolerances):
    """(lam, V) with m = V diag(lam) V^{-1}; RankError when the condition
    number of V times eps exceeds rank_tol, where the pole-residue form that
    V^{-1} feeds is unreliable."""
    lam, vecs = np.linalg.eig(m)
    cond = float(np.linalg.cond(vecs))
    if not cond * np.finfo(float).eps <= tol.rank_tol:
        raise RankError(f"eigenvector matrix of {name} is ill-conditioned (condition number "
                        f"{cond:.3e}); the pole-residue form of the transform is unreliable")
    return lam, vecs


def assemble_coefficients(rep: HilbertRep, bases: BasisCollection,
                          tol: Tolerances = DEFAULT_TOL) -> NevanlinnaCoefficients:
    """Build all transform coefficients from inner products of the basis families.

    a0, W, Chat and T are the blocks of the unitary colligation (see
    colligation); with K and the cubic psi they fix the transform.  One
    eigendecomposition a0 = V diag(lam) V^{-1} turns the resolvent
    ((z+i) I - (z-i) a0)^{-1} = V diag(r) V^{-1}, r_j = 1/((z+i) - (z-i) lam_j),
    into a pole-residue sum: row j of `residues` is the outer product of
    column j of [K^* V[:rho]; Chat V] with row j of V^{-1} [K (rows < rho) | W],
    flattened, so that sum_j r_j residues[j] is the (N+delta)^2 block matrix
    [[K^* M^{-1} K, K^* M^{-1} W], [Chat M^{-1} K, Chat M^{-1} W]] with
    M = (z+i) I - (z-i) a0 and K zero-padded to tau rows.

    The printed polynomials follow from the factored k(z) = det M =
    prod_j ((1 - lam_j) z + i (1 + lam_j)): with k_j = k over its factor j
    (prefix and suffix products), A = (z+i) sum_j k_j R^A_j + k psi,
    B = -(z^2+1) sum_j k_j R^B_j, C = (i-z) (k T + (z-i) sum_j k_j R^C_j) and
    D = -(z-i) sum_j k_j R^D_j.  RankError when the eigenvector matrix is too
    ill-conditioned for the pole-residue form (condition number times eps
    above rank_tol).
    """
    if bases.delta == 0:
        raise ParameterError("problem is determinate; the parametrization is for the indeterminate case")
    tau, delta, rho, n_dim = bases.tau, bases.delta, bases.rho, rep.N
    if rho < 1:
        raise RankError("no difference vector among the leading block survived; inconsistent data")

    a0, w_mat, chat, t_mat = colligation(bases)
    k_mat = ip_matrix(bases.range_basis.vectors, bases.y[:, :n_dim])[:rho]  # (y_k, u_j), leading rows

    # cubic correction: entry (j, k) collects gamma values with shifted indices
    gamma = rep.gram()
    g_kj = gamma[:n_dim, :n_dim].T
    g_sk_j = gamma[n_dim:2 * n_dim, :n_dim].T
    g_sk_sj = gamma[n_dim:2 * n_dim, n_dim:2 * n_dim].T
    inner = np.stack([g_sk_sj - 1j * g_sk_j + g_kj, g_sk_j - 1j * g_kj, g_kj])
    psi = MatrixPolynomial(inner).scale(np.array([-0.5, 0.5j]))  # times (i/2)(z+i)

    xi = forbidden_matrix(bases, tol)
    lam, vecs = _diagonalize(a0, "a0", tol)
    rhs = np.zeros((tau, n_dim + delta), dtype=complex)
    rhs[:rho, :n_dim] = k_mat
    rhs[:, n_dim:] = w_mat
    right = np.linalg.solve(vecs, rhs)
    left = np.concatenate([k_mat.conj().T @ vecs[:rho], chat @ vecs])
    residues = (left.T[:, :, None] * right[:, None, :]).reshape(tau, -1)

    # linear factors (1 - lam_j) z + i (1 + lam_j) of k, lowest degree first
    factors = np.stack([1j * (1.0 + lam), 1.0 - lam], axis=1)
    prefix, suffix = [np.ones(1, dtype=complex)], [np.ones(1, dtype=complex)]
    for j in range(tau - 1):
        prefix.append(np.convolve(prefix[-1], factors[j]))
        suffix.append(np.convolve(suffix[-1], factors[tau - 1 - j]))
    k_full = np.convolve(prefix[-1], factors[-1])
    deflated = np.stack([np.convolve(p, s) for p, s in zip(prefix, suffix[::-1])])
    # P = sum_j k_j R_j in blocks; A = (z+i) P_A + k psi, B = -(z^2+1) P_B,
    # C = (i-z) k T - (z-i)^2 P_C and D = (i-z) P_D, padded to degree tau+3
    num = (deflated.T @ residues).reshape(tau, n_dim + delta, n_dim + delta)
    length = tau + 4
    a_poly = poly_times([1j, 1.0], num[:, :n_dim, :n_dim], length) \
        + poly_times(k_full, psi.coeffs, length)
    b_poly = poly_times([-1.0, 0.0, -1.0], num[:, :n_dim, n_dim:], length)
    c_poly = poly_times(np.convolve([1j, -1.0], k_full), t_mat[None], length) \
        + poly_times([1.0, 2j, -1.0], num[:, n_dim:, n_dim:], length)
    d_poly = poly_times([1j, -1.0], num[:, n_dim:, :n_dim], length)

    return NevanlinnaCoefficients(
        N=n_dim, tau=tau, delta=delta, rho=rho, k=poly_trim(k_full),
        A_poly=MatrixPolynomial(a_poly).trim(), B_poly=MatrixPolynomial(b_poly).trim(),
        C_poly=MatrixPolynomial(c_poly).trim(), D_poly=MatrixPolynomial(d_poly).trim(),
        Xi=xi, W=w_mat, T=t_mat, Chat=chat, K=k_mat, a0=a0, psi=psi,
        eigenvalues=lam, residues=residues,
    )


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


def square_parameter(F, delta: int) -> np.ndarray:
    """F as a complex delta x delta matrix; ParameterError for any other shape."""
    F = np.asarray(F, dtype=complex)
    if F.shape != (delta, delta):
        raise ParameterError(f"parameter must be {delta} x {delta}, got shape {F.shape}")
    return F


def _parameter_values(F, delta: int, points: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The parameter checked to be a delta x delta contraction: for constant F
    the matrix, with one SVD; for callable F the (n, delta, delta) stack of the
    values F(z), converted SAMPLE_BLOCK points at a time and checked with the
    stacked SVD below.
    A callable value of any other shape raises square_parameter's
    ParameterError at the first point that has one."""
    if callable(F):
        vals = np.empty((points.size, delta, delta), dtype=complex)
        for start in range(0, points.size, SAMPLE_BLOCK):
            raw = [F(w) for w in points[start: start + SAMPLE_BLOCK]]
            try:
                block = np.array(raw, dtype=complex)
            except ValueError:  # values of different shapes
                block = None
            if block is None or block.shape != (len(raw), delta, delta):
                block = np.stack([square_parameter(value, delta) for value in raw])
            vals[start: start + len(raw)] = block
        largest = float(_jacobi_svd(vals)[2].max(initial=0.0))
    else:
        vals = square_parameter(F, delta)
        largest = float(np.linalg.svd(vals, compute_uv=False)[0])
    if largest > 1.0 + tol.psd_tol:
        raise ParameterError(
            f"parameter is not a contraction (largest singular value {largest:.6f})")
    return vals


def _stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the points for (n, p, k) and (n, k, q) stacks, as k broadcast
    products: the inner dimension is at most delta, and one BLAS call per point
    costs more than the arithmetic."""
    out = a[:, :, :1] * b[:, :1, :]
    for j in range(1, a.shape[2]):
        out += a[:, :, j: j + 1] * b[:, j: j + 1, :]
    return out


def outside_domain(z) -> np.ndarray:
    """Mask of the points of z outside the transform's domain: the closed
    lower half-plane and the point i."""
    z = np.asarray(z, dtype=complex)
    return (z.imag <= 0.0) | (np.abs(z - 1j) < 1e-10)


def _colligation_transform(nc: NevanlinnaCoefficients, F: np.ndarray, flat: np.ndarray,
                           tol: Tolerances) -> np.ndarray:
    """The transform of a constant F at the points, as a compressed resolvent:

        2i / ((z+i) (z-i)^2) (K^* R^{-1} K + psi(z) / (z+i)),  R = (z+i) I - (z-i) U_F,

    with K zero-padded to tau+delta rows.  One eig U_F = V diag(mu) V^{-1} makes
    K^* R^{-1} K = sum_j r_j residues[j] with r_j = 1/((z+i) - (z-i) mu_j) and
    residues[j] the outer product of column j of K^* V[:rho] with row j of
    V^{-1} K.  The prefactor scales the r_j and the powers z^k / (z+i) that
    carry psi's coefficients, so all points take one (n, tau+delta+4) @
    (tau+delta+4, N^2) product.  psi shares the prefactor made of (z+i) and
    (z-i): scaled by its own 2i/(z^2+1)^2, with z^2+1 rounded near z = i, it
    would not cancel against K^* R^{-1} K there.  RankError when V is too
    ill-conditioned; EvaluationError at the first point where some
    (z+i) - (z-i) mu_j lies within inv_tol * max(1, |z+i| + |z-i|) of zero,
    where R, and with it the pivot of the callable path, is singular.
    """
    n_dim, size = nc.N, nc.tau + nc.delta
    mu, vecs = _diagonalize(extended_colligation(nc.u, F), "U_F", tol)
    k_pad = np.zeros((size, n_dim), dtype=complex)
    k_pad[:nc.rho] = nc.K
    left = nc.K.conj().T @ vecs[:nc.rho]
    residues = (left.T[:, :, None] * np.linalg.solve(vecs, k_pad)[:, None, :]).reshape(size, -1)
    zp, zm = flat + 1j, flat - 1j
    abs_p, abs_m = np.abs(zp), np.abs(zm)
    bound = tol.inv_tol * np.maximum(1.0, abs_p + abs_m)
    # |(z+i) - (z-i) mu| >= |z+i| - |z-i| |mu|, so only points where that is small
    # (none for a contraction U_F, as |z+i| > |z-i|) need the distance to every pole
    near = np.flatnonzero(abs_p - abs_m * np.abs(mu).max() <= 2.0 * bound)
    if near.size:
        dist = np.abs(zp[near, None] - np.multiply.outer(zm[near], mu)).min(axis=1)
        bad = np.flatnonzero(dist <= bound[near])
        if bad.size:
            idx = near[bad[0]]
            raise EvaluationError(
                f"singular pivot at z={flat[idx]}: (z+i) - (z-i) mu is {dist[bad[0]]:.3e} "
                "from zero for an eigenvalue mu of U_F (parameter not admissible at this point)")
    # terms (one row per pole and per power of z, one column per point) @ coeffs
    n_psi = nc.psi.coeffs.shape[0]
    terms = np.empty((size + n_psi, flat.size), dtype=complex)
    pref = 2j / (zp * zm * zm)
    r = terms[:size]
    np.multiply.outer(mu, zm, out=r)
    np.subtract(zp, r, out=r)
    np.divide(pref, r, out=r)
    np.divide(pref, zp, out=terms[size])
    for k in range(1, n_psi):
        np.multiply(terms[size + k - 1], flat, out=terms[size + k])
    coeffs = np.concatenate([residues, nc.psi.coeffs.reshape(n_psi, -1)])
    return (terms.T @ coeffs).reshape(flat.size, n_dim, n_dim)


def _scaled_blocks(nc: NevanlinnaCoefficients, flat: np.ndarray) -> np.ndarray:
    """The (n, N+delta, N+delta) stack [[A/k, S_B], [S_D, C/k]] at the points.

    S = sum_j r_j residues[j] with r_j = 1/((z+i) - (z-i) lam_j) is one matrix
    product; A/k = (z+i) S_A + psi and C/k = (i-z) (T + (z-i) S_C) are scaled in
    place.  B/k = -(z^2+1) S_B and D/k = -(z-i) S_D are left unscaled: the
    caller applies their scalars to the product (B/k) F pivot^{-1} (D/k).
    """
    n_dim = nc.N
    zp, zm = flat + 1j, flat - 1j
    r = np.multiply.outer(zm, nc.eigenvalues)
    np.subtract(zp[:, None], r, out=r)
    sums = (np.reciprocal(r, out=r) @ nc.residues).reshape(
        flat.size, n_dim + nc.delta, n_dim + nc.delta)
    zp, zm = zp[:, None, None], zm[:, None, None]
    az, cz = sums[:, :n_dim, :n_dim], sums[:, n_dim:, n_dim:]
    az *= zp
    az += nc.psi(flat)
    cz *= zm
    cz += nc.T
    cz *= -zm
    return sums


def _pivot_transform(nc: NevanlinnaCoefficients, f_vals: np.ndarray, flat: np.ndarray,
                     tol: Tolerances) -> np.ndarray:
    """The transform of a callable F from its (n, delta, delta) values at the points.

    A/k, B/k, C/k and D/k come from one (n, tau) @ (tau, (N+delta)^2) product
    with the residues stored by assemble_coefficients (see _scaled_blocks).
    One stacked one-sided Jacobi SVD of the pivots (z+i) I + (C/k)(z) F(z)
    gives both the singular-pivot test and the solve, so no LAPACK call is
    made per point.  The prefactor is 2i / (z^2+1)^2.
    """
    n_dim = nc.N
    sums = _scaled_blocks(nc, flat)
    pivot = (flat + 1j)[:, None, None] * np.eye(nc.delta) \
        + _stack_product(sums[:, n_dim:, n_dim:], f_vals)
    b, v, svals = _jacobi_svd(pivot)
    smin = svals.min(axis=1)
    bad = smin <= tol.inv_tol * np.maximum(1.0, svals.max(axis=1))
    if np.any(bad):
        idx = int(np.nonzero(bad)[0][0])
        raise EvaluationError(
            f"singular pivot at z={flat[idx]}: smallest singular value {smin[idx]:.3e} "
            "(parameter not admissible at this point)")
    # pivot = b v^H with b's columns orthogonal, so pivot^{-1} = v diag(s^-2) b^H
    s_b, s_d = sums[:, :n_dim, n_dim:], sums[:, n_dim:, :n_dim]
    solved = _stack_product(v, _stack_product(np.swapaxes(b.conj(), 1, 2), s_d)
                            / (svals ** 2)[:, :, None])
    out = _stack_product(_stack_product(s_b, f_vals), solved)
    # 2i/(z^2+1)^2 (A/k + (B/k) F pivot^{-1} (D/k)), and (z^2+1)(z-i) / (z^2+1)^2 = 1/(z+i)
    out *= (2j / (flat + 1j))[:, None, None]
    out += (2j / (flat * flat + 1.0) ** 2)[:, None, None] * sums[:, :n_dim, :n_dim]
    return out


def evaluate_transform(nc: NevanlinnaCoefficients, F, z,
                       tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the solution transform for parameter F at z (scalar or array).

    z must lie in the open upper half-plane away from i (EvaluationError for
    the first point of z that does not, see outside_domain).  F is a constant
    delta x delta contraction or a callable z -> matrix, checked to be a
    contraction first (see _parameter_values).  Returns the transform of the
    transposed measure: entry (j, k) integrates 1/(t - z) against dm_{k,j}.

    A constant F makes one eig of U_F and one matrix product over all points,
    with no pivot (_colligation_transform).  A callable F differs at every
    point, so its pivots are solved in one stacked Jacobi SVD
    (_pivot_transform); a constant F takes that path too when the eigenvector
    matrix of U_F is too ill-conditioned.  Both raise EvaluationError("singular pivot at z=...")
    at the first point where the parameter is not admissible.
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
    if callable(F):
        out = _pivot_transform(nc, f_vals, flat, tol)
    else:
        try:
            out = _colligation_transform(nc, f_vals, flat, tol)
        except RankError:
            # U_F is not reliably diagonalisable (a singular a0 with F = 0 puts a
            # Jordan block at 0); the pivot path needs only the eig of a0
            stack = np.broadcast_to(f_vals, (flat.size,) + f_vals.shape)
            out = _pivot_transform(nc, stack, flat, tol)
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
    F = square_parameter(F, bases.delta)
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

    Independent of the colligation and its pole-residue form: it solves with
    the self-adjoint extension itself.  Entry (j, k) is the inner product of
    the resolvent applied to x_k against x_j, matching the transposed-measure
    convention of evaluate_transform.
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
