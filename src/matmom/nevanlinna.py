"""Linear-fractional parametrization of all solutions in the indeterminate case.

The transform of every solution (of the transposed measure) is

    (2i / ((z^2+1)^2 k(z))) * (A(z) + B(z) F ((z+i) k(z) I + C(z) F)^{-1} D(z))

over the upper half-plane punctured at i, where F ranges over the
contraction-valued parameters that avoid the forbidden matrix
isometrically at infinity.  a0, W, Chat and T, the inner products of the
orthonormal families in hilbert_space, are the blocks of the unitary
colligation U = [[a0, W], [Chat, T]] (the characteristic-function form of
Sz.-Nagy and Foias), one array per problem with its blocks as views, shared with the
gap layer like the eig of a0 (BasisCollection.colligation and a0_eig); one function
turns an eig, of a0 or of U_F, into a table of block residues.  For
a constant F the transform is the compressed resolvent of
U_F = [[a0, W F], [Chat, T F]]: the pivot above is the Schur complement of
(z+i) I - (z-i) U_F, so one eig of U_F turns it into a sum of simple poles,
whose partial fractions cancel the double pole at i.  A constant F is
admissible exactly when U_F, which for a unitary F is unitarily similar to the
extension that generates its canonical solution, has no eigenvalue within
FIXED_POINT_TOL of 1.  parameter_verdict reads that one spectrum, for a stack
of parameters, and is the only test of a constant parameter: extension_operator
and the gap layer (check_gap_class and the gap search) call it.
The unitary -polar(Xi) of find_admissible_unitary keeps sigma_min(F - Xi) =
1 + sigma_min(Xi), the largest any unitary reaches, with no search.  For a
callable F, k(z) cancels: A/k, B/k, C/k and D/k are pole-residue sums over
the eigenvalues of a0, the points on the last axis, formed one block at a time,
and the pivots that the norm of U certifies are solved by LU without pivoting.
A callable F is sampled with one call on all points where that
call gives its pointwise values (see _whole_array_values).  The monomial
coefficients of k, A, B, C and D are only printed; they are multiplied out
of the factored form, A to D in one block array.  Stieltjes-Perron inversion
extrapolates the transform to the real axis with Lagrange weights before it
integrates, in one pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .determinate import resolvent_transform, self_adjoint_extension, spectral_measure
from .errors import EvaluationError, InputError, ParameterError, RankError
from .hilbert_space import BasisCollection, HilbertRep, ip_matrix
from .matpoly import MatrixPolynomial, poly_times, poly_trim
from .moment_model import AtomicMeasure, DEFAULT_TOL, Tolerances

FIXED_POINT_TOL = 1e-8  # a constant F whose U_F has an eigenvalue this close to 1 is not admissible
SAMPLE_BLOCK = 1024     # callable parameter values held at once: one small array per point
SPOT_POINTS = 8         # per-point calls that check a whole-array call of a callable parameter
SPOT_ULPS = 4.0         # the difference allowed there, in eps * max(1, largest |F(z)| entry)
EPS_SCHEDULE = (1e-2, 1e-3, 1e-4)  # the lines Im z = eps that invert_transform extrapolates from
FAR_LIMIT = 1e150       # largest |z - i| evaluated: |z|^2 and (z+i)^2 still fit in a double


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
    u: np.ndarray                 # (tau+delta)^2 colligation [[a0, W], [Chat, T]], read-only
    K: np.ndarray                 # (rho, N)
    psi: MatrixPolynomial         # N x N cubic correction term
    psi_quotient: np.ndarray      # (3, N, N) coefficients of psi(z) / (z+i), lowest first
    eigenvalues: np.ndarray       # (tau,) eigenvalues lam_j of a0, the poles' parameters
    residues: np.ndarray          # (tau, N+delta, N+delta) residues, see assemble_coefficients

    @property
    def a0(self) -> np.ndarray:  # (tau, tau) view of u; the i-block equals I - w(z) a0
        return self.u[:self.tau, :self.tau]

    @property
    def W(self) -> np.ndarray:  # (tau, delta) view of u
        return self.u[:self.tau, self.tau:]

    @property
    def Chat(self) -> np.ndarray:  # (delta, tau) view of u
        return self.u[self.tau:, :self.tau]

    @property
    def T(self) -> np.ndarray:  # (delta, delta) view of u
        return self.u[self.tau:, self.tau:]

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
            "C0_coeff": matrix_to_json(self.Chat),  # the defect-row block is -w(z) Chat
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


def check_contraction(F: np.ndarray, tol: Tolerances) -> None:
    """ParameterError unless the largest singular value of the matrix F, or of every
    matrix of a (k, delta, delta) stack, is at most 1 + psd_tol."""
    largest = float(np.linalg.svd(F, compute_uv=False).max(initial=0.0))
    if not largest <= 1.0 + tol.psd_tol:  # a NaN from an overflowing F fails too
        raise ParameterError(
            f"parameter is not a contraction (largest singular value {largest:.3e})")


def extended_colligation(u: np.ndarray, F: np.ndarray) -> np.ndarray:
    """U_F = [[a0, W F], [Chat, T F]]: the colligation U = [[a0, W], [Chat, T]]
    with its last delta columns multiplied by the delta x delta parameter F, or
    the (..., r, r) stack of U_F for a (..., delta, delta) stack of parameters.
    It is unitary for a unitary F and a contraction for a contraction F."""
    tau = u.shape[1] - F.shape[-1]
    out = np.empty(F.shape[:-2] + u.shape, dtype=complex)
    out[..., :tau] = u[:, :tau]
    out[..., tau:] = u[:, tau:] @ F
    return out


def parameter_verdict(u: np.ndarray, F: np.ndarray, tol: Tolerances):
    """(mu, unitary, admissible) for a (k, delta, delta) stack of constant parameters,
    from one eigvals: the (k, r) spectra mu of their U_F = extended_colligation(u, F),
    whether each F is unitary within psd_tol, and whether it is admissible, with no
    eigenvalue of U_F within FIXED_POINT_TOL of 1; for one delta x delta F, its
    spectrum and two booleans.  ParameterError, before any spectrum, when an F that
    is not unitary is not a contraction (check_contraction).  The library judges a
    constant parameter here and nowhere else."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge F is not unitary
        gram = np.swapaxes(F.conj(), -1, -2) @ F - np.eye(F.shape[-1])
    unitary = np.abs(gram).max(axis=(-2, -1), initial=0.0) <= tol.psd_tol
    if not unitary.all():
        check_contraction(F[~unitary], tol)
    mu = np.linalg.eigvals(extended_colligation(u, F))
    admissible = np.abs(mu - 1.0).min(axis=-1, initial=np.inf) > FIXED_POINT_TOL
    return mu, unitary, admissible


def _pole_residues(vecs: np.ndarray, left: list, rhs: np.ndarray, name: str, tol: Tolerances):
    """The (m, p, q) residues res_j of L (x I - M)^{-1} rhs = sum_j res_j / (x - lam_j) for
    M = V diag(lam) V^{-1}, V = vecs, named name: column j of L V times row j of V^{-1} rhs,
    L the rows of the matrices in left, each on the leading rows of V.  RankError first
    when cond(V) eps exceeds rank_tol, where that form is unreliable."""
    sigma = np.linalg.svd(vecs, compute_uv=False)  # the ratio np.linalg.cond takes
    low = float(sigma[-1])
    cond = float(sigma[0]) / low if low > 0.0 else math.inf
    if not cond * np.finfo(float).eps <= tol.rank_tol:
        raise RankError(f"eigenvector matrix of {name} is ill-conditioned (condition number "
                        f"{cond:.3e}); the pole-residue form of the transform is unreliable")
    cols = np.concatenate([mat @ vecs[:mat.shape[1]] for mat in left])
    return cols.T[:, :, None] * np.linalg.solve(vecs, rhs)[:, None, :]


@lru_cache(maxsize=64)
def _block_multipliers(n_dim: int, delta: int) -> np.ndarray:
    """(3, N+delta, N+delta): entry [i] of each block is the coefficient of z^i in its
    multiplier, (z+i) for A, -(z^2+1) for B, -(z-i)^2 for C and (i-z) for D.  A zero
    entry adds +-0 to a sum that starts at +0, which changes no bit.  Read-only."""
    table = np.empty((3, n_dim + delta, n_dim + delta), dtype=complex)
    table[:, :n_dim, :n_dim] = np.array([1j, 1.0, 0.0])[:, None, None]
    table[:, :n_dim, n_dim:] = np.array([-1.0, 0.0, -1.0])[:, None, None]
    table[:, n_dim:, :n_dim] = np.array([1j, -1.0, 0.0])[:, None, None]
    table[:, n_dim:, n_dim:] = np.array([1.0, 2j, -1.0])[:, None, None]
    table.setflags(write=False)
    return table


def assemble_coefficients(rep: HilbertRep, bases: BasisCollection,
                          tol: Tolerances = DEFAULT_TOL) -> NevanlinnaCoefficients:
    """Build all transform coefficients from inner products of the basis families.

    a0, W, Chat and T are the blocks of the unitary colligation
    BasisCollection.colligation, which the coefficients keep as their u; with K
    and the cubic psi they fix the transform.  The eigendecomposition
    a0 = V diag(lam) V^{-1} (bases.a0_eig, which gap.analyze_gap reads too) turns
    the resolvent ((z+i) I - (z-i) a0)^{-1} = V diag(r) V^{-1},
    r_j = 1/((z+i) - (z-i) lam_j), into a pole-residue sum (_pole_residues):
    residues[j] is the outer product of column j of [K^* V[:rho]; Chat V] with
    row j of V^{-1} [K (rows < rho) | W], so that sum_j r_j residues[j] is the
    (N+delta)^2 block matrix [[K^* M^{-1} K, K^* M^{-1} W], [Chat M^{-1} K, Chat M^{-1} W]]
    with M = (z+i) I - (z-i) a0 and K zero-padded to tau rows.

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

    u = bases.colligation
    k_mat = ip_matrix(bases.range_basis.vectors, bases.y[:, :n_dim])[:rho]  # (y_k, u_j), leading rows

    # cubic correction: entry (j, k) collects gamma values with shifted indices
    gamma = rep.gram
    g_kj = gamma[:n_dim, :n_dim].T
    g_sk_j = gamma[n_dim:2 * n_dim, :n_dim].T
    g_sk_sj = gamma[n_dim:2 * n_dim, n_dim:2 * n_dim].T
    inner = np.empty((3, n_dim, n_dim), dtype=complex)
    inner[0] = g_sk_sj - 1j * g_sk_j + g_kj
    inner[1] = g_sk_j - 1j * g_kj
    inner[2] = g_kj
    psi = MatrixPolynomial(poly_times([-0.5, 0.5j], inner, 4)).trim()  # times (i/2)(z+i)

    xi = forbidden_matrix(bases, tol)
    lam, vecs = bases.a0_eig
    rhs = np.zeros((tau, n_dim + delta), dtype=complex)
    rhs[:rho, :n_dim] = k_mat
    rhs[:, n_dim:] = u[:tau, tau:]
    residues = _pole_residues(vecs, [k_mat.conj().T, u[tau:, :tau]], rhs, "a0", tol)

    # linear factors (1 - lam_j) z + i (1 + lam_j) of k, lowest degree first
    factors = np.empty((tau, 2), dtype=complex)
    factors[:, 0] = 1j * (1.0 + lam)
    factors[:, 1] = 1.0 - lam
    one = np.ones(1, dtype=complex)
    prefix, suffix = [one], [one]
    for j in range(tau - 1):
        prefix.append(np.convolve(prefix[-1], factors[j]))
        suffix.append(np.convolve(suffix[-1], factors[tau - 1 - j]))
    k_full = np.convolve(prefix[-1], factors[-1])
    deflated = np.empty((tau, tau), dtype=complex)
    for j in range(tau):
        deflated[j] = np.convolve(prefix[j], suffix[tau - 1 - j])
    # P = sum_j k_j R_j in blocks; A = (z+i) P_A + k psi, B = -(z^2+1) P_B,
    # C = (i-z) k T - (z-i)^2 P_C and D = (i-z) P_D, all four in one array padded to
    # degree tau+3, with one multiply-add per power of z in the blocks' multipliers
    num = (deflated.T @ residues.reshape(tau, -1)).reshape(residues.shape)
    blocks = np.zeros((tau + 4,) + num.shape[1:], dtype=complex)
    for i, mult in enumerate(_block_multipliers(n_dim, delta)):
        blocks[i: i + tau] += mult * num
    blocks[:, :n_dim, :n_dim] += poly_times(k_full, psi.coeffs, tau + 4)
    blocks[:, n_dim:, n_dim:] += poly_times(np.convolve([1j, -1.0], k_full), u[None, tau:, tau:],
                                            tau + 4)
    a_poly, b_poly = blocks[:, :n_dim, :n_dim], blocks[:, :n_dim, n_dim:]
    d_poly, c_poly = blocks[:, n_dim:, :n_dim], blocks[:, n_dim:, n_dim:]

    return NevanlinnaCoefficients(
        N=n_dim, tau=tau, delta=delta, rho=rho, k=poly_trim(k_full),
        A_poly=MatrixPolynomial(a_poly).trim(), B_poly=MatrixPolynomial(b_poly).trim(),
        C_poly=MatrixPolynomial(c_poly).trim(), D_poly=MatrixPolynomial(d_poly).trim(),
        Xi=xi, u=u, K=k_mat, psi=psi, psi_quotient=0.5j * inner,
        eigenvalues=lam, residues=residues,
    )


def square_parameter(F, delta: int) -> np.ndarray:
    """F as a complex delta x delta matrix; ParameterError for any other shape."""
    F = np.asarray(F, dtype=complex)
    if F.shape != (delta, delta):
        raise ParameterError(f"parameter must be {delta} x {delta}, got shape {F.shape}")
    return F


def _parameter_values(F, delta: int, points: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The parameter checked to be a delta x delta contraction (check_contraction):
    for constant F the matrix, with one SVD; for callable F the (delta, delta, n)
    array of the values F(z), points last, from one whole-array call where
    _whole_array_values accepts it and otherwise from _sampled_values, and an SVD
    of only the points that _expanding_points flags.  A callable value with a
    non-finite entry raises ParameterError at the first point that has one."""
    if callable(F):
        vals = _whole_array_values(F, delta, points)
        if vals is None:
            vals = _sampled_values(F, delta, points)
        finite = np.isfinite(vals).all(axis=(0, 1))
        if not finite.all():
            raise ParameterError(f"parameter is not finite at z={points[np.argmin(finite)]}")
        flagged = np.flatnonzero(_expanding_points(vals, 1.0 + tol.psd_tol))
        if flagged.size:
            check_contraction(np.moveaxis(vals[:, :, flagged], -1, 0), tol)
    else:
        vals = square_parameter(F, delta)
        check_contraction(vals, tol)
    return vals


def _whole_array_values(F, delta: int, points: np.ndarray):
    """The (delta, delta, n) values of a callable F, points last, from one call
    F(points.reshape(n, 1, 1)), or None when n < 2 or that result cannot be
    trusted: the call raises or warns, its result is not an (n, delta, delta)
    array, or at SPOT_POINTS evenly spread points k it differs from the call
    F(points[k]), a delta x delta value (square_parameter), by more than
    SPOT_ULPS * eps * max(1, largest |F(points[k])|).
    The allowance is a few rounding errors: numpy's array arithmetic may round a
    quotient differently from its scalar arithmetic."""
    n = points.size
    if n < 2:
        return None
    spots = np.linspace(0, n - 1, min(n, SPOT_POINTS), dtype=int)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            whole = np.asarray(F(points.reshape(n, 1, 1)), dtype=complex)
            if whole.shape != (n, delta, delta):
                return None
            spot = np.stack([square_parameter(F(w), delta) for w in points[spots]])
            scale = np.maximum(1.0, np.abs(spot).max(axis=(1, 2)))
            err = np.abs(whole[spots] - spot).max(axis=(1, 2))
            if not (err <= SPOT_ULPS * np.finfo(float).eps * scale).all():
                return None
    except Exception:  # the loop repeats the calls point by point, with their errors
        return None
    return np.ascontiguousarray(whole.transpose(1, 2, 0))


def _sampled_values(F, delta: int, points: np.ndarray) -> np.ndarray:
    """The (delta, delta, n) values of a callable F, points last, from one call
    per point, converted SAMPLE_BLOCK points at a time.  A value of another shape
    raises ParameterError at the first point that has one."""
    vals = np.empty((delta, delta, points.size), dtype=complex)
    for start in range(0, points.size, SAMPLE_BLOCK):
        raw = [F(w) for w in points[start: start + SAMPLE_BLOCK]]
        try:
            block = np.array(raw, dtype=complex)
        except ValueError:  # values of different shapes
            block = None
        if block is None or block.shape != (len(raw), delta, delta):
            block = np.stack([square_parameter(value, delta) for value in raw])
        vals[:, :, start: start + len(raw)] = block.transpose(1, 2, 0)
    return vals


def _expanding_points(f: np.ndarray, bound: float) -> np.ndarray:
    """Mask of the points where the (k, k, n) values f, points last, may have
    norm above bound: where LDL^H without pivoting of g = bound^2 I - f^H f meets
    a pivot <= 0, in exact arithmetic where g is not positive definite.  Only the
    Hermitian half of g is formed: its real diagonal bound^2 - sum_m |f_mi|^2 and
    its strict upper triangle, held negated as h_ij = sum_m conj(f_mi) f_mj, i < j.
    Step j takes |g_ja|^2 / pivot from the diagonal entries a > j and
    conj(g_ja) g_jb / pivot from the upper entries j < a < b."""
    k = f.shape[0]
    flags = ~(np.abs(f) <= bound).all(axis=(0, 1))  # flagged, and factored as 0: no overflow
    if flags.any():
        f = np.where(flags, 0.0, f)
    diag = bound * bound - (f.real ** 2 + f.imag ** 2).sum(axis=0)
    upper = [(f[:, i, None].conj() * f[:, i + 1:]).sum(axis=0) for i in range(k - 1)]
    for j in range(k):
        pivot = diag[j]
        flags |= ~(pivot > 0.0)
        if j + 1 == k:
            break
        # Schur complement update of the trailing block; flagged points divide by 1
        h = upper[j]
        ratio = h * (1.0 / np.where(flags, 1.0, pivot))
        diag[j + 1:] -= h.real * ratio.real + h.imag * ratio.imag
        for a in range(j + 1, k - 1):
            upper[a] += ratio[a - j - 1].conj() * h[a - j:]
    return flags


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b at every point for (p, k, n) and (k, q, n) arrays, points last, as
    k broadcast products summed through one temporary: the inner dimension is
    at most delta, and one BLAS call per point costs more than the arithmetic."""
    out = a[:, :1] * b[None, 0]
    term = np.empty_like(out) if a.shape[1] > 1 else None
    for j in range(1, a.shape[1]):
        out += np.multiply(a[:, j: j + 1], b[None, j], out=term)
    return out


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b at every point for (k, k, n) and (k, m, n) arrays, points
    last, overwriting a and b: Gaussian elimination without pivoting, then back
    substitution, for matrices such as the certified pivots of _pivot_transform."""
    k = a.shape[0]
    inv = np.empty(a.shape[1:], dtype=complex)  # 1 / a[j, j]: one complex division per pivot
    for j in range(k):
        np.divide(1.0, a[j, j], out=inv[j])
        ratio = a[j + 1:, j] * inv[j]
        a[j + 1:, j + 1:] -= ratio[:, None] * a[j, None, j + 1:]
        b[j + 1:] -= ratio[:, None] * b[j, None]
    for j in range(k - 1, -1, -1):
        b[j] -= (a[j, j + 1:, None] * b[j + 1:]).sum(axis=0)
        b[j] *= inv[j]
    return b


def _solve_pivots(pivot: np.ndarray, rhs: np.ndarray, lower: np.ndarray,
                  flat: np.ndarray, tol: Tolerances) -> np.ndarray:
    """x with pivot x = rhs for (k, k, n) and (k, m, n) arrays, points last,
    overwriting rhs and, when every point is certified, pivot.  Where lower, a
    bound on the pivot's smallest singular value, exceeds twice the cutoff
    inv_tol * max(1, ||pivot||_F), the 2 for rounding, the point is certified and
    solved by _lu_solve.  The rule is tested squared, with no square root:
    lower > 0 and lower^2 > (2 inv_tol)^2 max(1, ||pivot||_F^2).  The others get
    np.linalg.svd (EvaluationError at the first whose smallest singular value is
    at most inv_tol * max(1, largest)) and np.linalg.solve."""
    frob2 = (pivot.real ** 2 + pivot.imag ** 2).sum(axis=(0, 1))
    cutoff = 2.0 * tol.inv_tol
    certified = lower > 0.0
    certified &= lower * lower > cutoff * cutoff * np.maximum(1.0, frob2)
    ok, rest = np.flatnonzero(certified), np.flatnonzero(~certified)
    if not rest.size:  # every point certified: solved in place, with no gathered copies
        return _lu_solve(pivot, rhs)
    stack = np.moveaxis(pivot[..., rest], -1, 0)
    svals = np.linalg.svd(stack, compute_uv=False)
    bad = np.flatnonzero(svals[:, -1] <= tol.inv_tol * np.maximum(1.0, svals[:, 0]))
    if bad.size:
        raise EvaluationError(
            f"singular pivot at z={flat[rest[bad[0]]]}: smallest singular value "
            f"{svals[bad[0], -1]:.3e} (parameter not admissible at this point)")
    sub = np.moveaxis(rhs[..., rest], -1, 0)
    rhs[..., rest] = np.moveaxis(np.linalg.solve(stack, sub), 0, -1)
    rhs[..., ok] = _lu_solve(pivot[..., ok], rhs[..., ok])
    return rhs


def _colligation_transform(nc: NevanlinnaCoefficients, F: np.ndarray, flat: np.ndarray,
                           tol: Tolerances) -> np.ndarray:
    """The transform of a constant F at the points, as a sum over the poles of a
    compressed resolvent.  With psi(z) = (i/2) (z+i) q(z), the transform is

        2i / ((z+i) (z-i)^2) (K^* R^{-1} K + (i/2) q(z)),  R = (z+i) I - (z-i) U_F,

    with K zero-padded to tau+delta rows.  One eig U_F = V diag(mu) V^{-1} makes
    K^* R^{-1} K = sum_j res_j / ((z+i) - (z-i) mu_j), res_j the outer product of
    column j of K^* V[:rho] with row j of V^{-1} K.  The partial fractions of the
    whole, with the double pole at i cancelled analytically, are

        (q(-i) - sum_j s_j res_j + sum_j (1 - s_j mu_j) res_j / (w - mu_j)) / (4 (z+i))

    with w = (z+i) / (z-i) and s_j = 3 - 3 mu_j + mu_j^2: one (n, tau+delta+1) @
    (tau+delta+1, N^2) product, no power of z and no factor 1/(z-i)^2, so the
    values stay accurate up to z = i.  No term divides by mu_j, so a singular U_F
    (F = 0) is summed the same way.  RankError when V is too ill-conditioned;
    EvaluationError where R, and with it the pivot of the callable path, is
    singular (_check_poles).
    """
    n_dim, size = nc.N, nc.tau + nc.delta
    mu, vecs = np.linalg.eig(extended_colligation(nc.u, F))
    k_pad = np.zeros((size, n_dim), dtype=complex)
    k_pad[:nc.rho] = nc.K
    residues = _pole_residues(vecs, [nc.K.conj().T], k_pad, "U_F", tol).reshape(size, -1)
    _check_poles(flat, mu, tol)
    zp, zm = flat + 1j, flat - 1j
    quotient = nc.psi_quotient.reshape(-1, n_dim * n_dim)  # (i/2) q
    q_at = -2j * ((-1j) ** np.arange(quotient.shape[0]) @ quotient)
    s = 3.0 - 3.0 * mu + mu * mu
    coeffs = np.concatenate([(1.0 - s * mu)[:, None] * residues, (q_at - s @ residues)[None]])
    # terms (one row per pole and one for the constant, one column per point) @ coeffs:
    # 1/(4 (z+i) (w - mu_j)) = 1/(4 (z+i)^2/(z-i) - 4 (z+i) mu_j), and 1/(4 (z+i))
    terms = np.empty((size + 1, flat.size), dtype=complex)
    b = np.multiply(zp, 4.0, out=terms[size])
    np.multiply.outer(mu, b, out=terms[:size])
    a = b * zp
    a /= zm
    np.subtract(a, terms[:size], out=terms[:size])
    np.reciprocal(terms, out=terms)
    return (terms.T @ coeffs).reshape(flat.size, n_dim, n_dim)


def _check_poles(flat: np.ndarray, mu: np.ndarray, tol: Tolerances) -> None:
    """EvaluationError at the first point z where some (z+i) - (z-i) mu_j lies within
    inv_tol * max(1, |z+i| + |z-i|) of zero."""
    # |(z+i) - (z-i) mu| >= |z+i| - |z-i| |mu|, and with S = |z+i| + |z-i|,
    # |z+i| - |z-i| = 4 Im z / S and S^2 <= 8 (|z|^2 + 1): where
    # Im z > (4 inv_tol + 2 (max|mu| - 1)^+) (|z|^2 + 1) that bound exceeds twice the
    # cutoff, so only the other points (none for Im z well above 1e-10 (|z|^2 + 1))
    # are screened with |z+i| - |z-i| max|mu|, and then tested pole by pole
    m = float(np.abs(mu).max())
    x, y = flat.real, flat.imag
    slack = 4.0 * tol.inv_tol + 2.0 * max(0.0, m - 1.0)
    cand = np.flatnonzero(~(y > slack * (x * x + y * y + 1.0)))
    if not cand.size:
        return
    zp, zm = flat[cand] + 1j, flat[cand] - 1j
    abs_p, abs_m = np.abs(zp), np.abs(zm)
    bound = tol.inv_tol * np.maximum(1.0, abs_p + abs_m)
    near = np.flatnonzero(abs_p - abs_m * m <= 2.0 * bound)
    if near.size:
        dist = np.abs(zp[near, None] - np.multiply.outer(zm[near], mu)).min(axis=1)
        bad = np.flatnonzero(dist <= bound[near])
        if bad.size:
            idx = cand[near[bad[0]]]
            raise EvaluationError(
                f"singular pivot at z={flat[idx]}: (z+i) - (z-i) mu is {dist[bad[0]]:.3e} "
                "from zero for an eigenvalue mu of U_F (parameter not admissible at this point)")


def _block(coeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum_j r[j] coeffs[j] at the points, points last: the (p, q, n) array of one
    (p q, m) @ (m, n) product for (m, p, q) coefficients and (m, n) terms r."""
    m, p, q = coeffs.shape
    return (coeffs.reshape(m, p * q).T @ r).reshape(p, q, -1)


def _pivot_transform(nc: NevanlinnaCoefficients, f_vals: np.ndarray, flat: np.ndarray,
                     tol: Tolerances) -> np.ndarray:
    """The transform of a callable F from its (delta, delta, n) values at the points.

    A/k = (z+i) (S_A + psi(z) / (z+i)), B/k = -(z^2+1) S_B, C/k = (i-z) (T + (z-i) S_C)
    and D/k = -(z-i) S_D come from the blocks of S = sum_j r_j residues[j] =
    [[S_A, S_B], [S_D, S_C]], r_j = 1/((z+i) - (z-i) lam_j), with the residues
    stored by assemble_coefficients, points last.  Each block is its own product
    (_block), formed when it is used and dropped after, in the order C, D, B, A;
    S_D is the right-hand side the pivot solve overwrites, and the product for
    A/k carries the powers of z that the coefficients of psi / (z+i) multiply.  The
    pivot (z+i) I + (C/k)(z) F(z) is the Schur complement of (z+i) I - (z-i) U_F,
    so its smallest singular value is at least
    l(z) = |z+i| - |z-i| ||U|| (1 + psd_tol) (one SVD of U per call).  Where l(z)
    certifies the pivot, pivot / (z+i) = I - E with ||E|| < 1 has a positive
    definite Hermitian part, and _lu_solve needs no pivoting; _solve_pivots
    decides that from l(z)^2 and ||pivot||_F^2, with no square root.  With the
    prefactor 2i / (z^2+1)^2 the transform is
    2i / (z+i) (S_B F pivot^{-1} S_D + (S_A + psi(z) / (z+i)) / (z-i)^2).
    """
    n_dim, tau, residues = nc.N, nc.tau, nc.residues
    lead, tail = slice(None, n_dim), slice(n_dim, None)
    zp, zm = flat + 1j, flat - 1j
    # terms: the r_j, then the powers 1, z, ... of z that psi / (z+i) multiplies
    terms = np.empty((tau + nc.psi_quotient.shape[0], flat.size), dtype=complex)
    r = terms[:tau]
    np.multiply.outer(nc.eigenvalues, zm, out=r)
    np.subtract(zp, r, out=r)
    np.reciprocal(r, out=r)
    terms[tau] = 1.0
    for k in range(tau + 1, terms.shape[0]):
        np.multiply(terms[k - 1], flat, out=terms[k])
    c_k = _block(residues[:, tail, tail], r)
    c_k *= zm
    c_k += nc.T[:, :, None]
    c_k *= -zm
    pivot = _product(c_k, f_vals)
    del c_k
    pivot[range(nc.delta), range(nc.delta)] += zp
    norm_u = float(np.linalg.svd(nc.u, compute_uv=False)[0])
    lower = np.abs(zp) - np.abs(zm) * (norm_u * (1.0 + tol.psd_tol))
    solved = _solve_pivots(pivot, _block(residues[:, tail, lead], r), lower, flat, tol)
    del pivot
    out = _product(_product(_block(residues[:, lead, tail], r), f_vals), solved)
    del solved
    a_k = _block(np.concatenate([residues[:, lead, lead], nc.psi_quotient]), terms)
    del terms, r
    a_k *= 1.0 / (zm * zm)
    out += a_k
    out *= 2j / zp
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


def evaluate_transform(nc: NevanlinnaCoefficients, F, z,
                       tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the solution transform for parameter F at z (scalar or array).

    z must be finite and lie in the open upper half-plane away from i, with
    |z - i| at most FAR_LIMIT (InputError for the first point of z that does
    not, from one mask of z).  Every point is checked before F, and both before
    any arithmetic.  F is a constant delta x delta contraction or a callable
    z -> matrix, checked to be a contraction (see _parameter_values).
    A callable may be called once with all n points as an (n, 1, 1) array; an
    (n, delta, delta) result must hold at each point what a call with that
    point alone returns, and a result refused by the checks of
    _whole_array_values leaves one call per point.
    Returns the transform of the transposed measure: entry (j, k) integrates
    1/(t - z) against dm_{k,j}.

    A constant F makes one eig of U_F and one matrix product over all points,
    a sum of simple poles with no pivot and no factor 1/(z-i), so it stays
    accurate up to z = i (_colligation_transform).  A callable F differs at
    every point: its pivots, certified from the norm of the colligation, are
    solved by LU without pivoting, and only uncertified ones by LAPACK
    (_pivot_transform); a constant F takes that path too when the eigenvector
    matrix of U_F is too ill-conditioned.  Both raise EvaluationError("singular
    pivot at z=...") at the first point where the parameter is not admissible.
    """
    z_arr = np.asarray(z, dtype=complex)
    flat = np.atleast_1d(z_arr).ravel()
    if flat.size == 0:
        return np.zeros(z_arr.shape + (nc.N, nc.N), dtype=complex)
    dist = np.abs(flat - 1j)
    outside = np.flatnonzero((flat.imag <= 0.0) | (dist < 1e-10) | ~(dist <= FAR_LIMIT))
    if outside.size:
        first = flat[outside[0]]
        if not np.isfinite(first):
            raise InputError("z must be finite")
        if first.imag <= 0.0:
            raise InputError("z must lie in the open upper half-plane")
        if abs(first - 1j) > FAR_LIMIT:
            raise InputError(f"z must satisfy |z - i| <= {FAR_LIMIT:g}")
        raise InputError("z = i is excluded from the transform domain")

    f_vals = _parameter_values(F, nc.delta, flat, tol)
    if callable(F):
        out = _pivot_transform(nc, f_vals, flat, tol)
    else:
        try:
            out = _colligation_transform(nc, f_vals, flat, tol)
        except RankError:
            # U_F is not reliably diagonalisable (a singular a0 with F = 0 puts a
            # Jordan block at 0); the pivot path needs only the eig of a0
            stack = np.broadcast_to(f_vals[:, :, None], f_vals.shape + flat.shape)
            out = _pivot_transform(nc, stack, flat, tol)
    if z_arr.ndim == 0:
        return out[0]
    return out.reshape(z_arr.shape + (nc.N, nc.N))


# ---------------------------------------------------------------------------
# Canonical solutions from unitary constant parameters
# ---------------------------------------------------------------------------

def extension_operator(bases: BasisCollection, F: np.ndarray,
                       tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Self-adjoint extension of the shift, as an r x r Hermitian matrix.

    Requires a unitary parameter F that is admissible, as parameter_verdict
    decides it.  The extension is unitarily similar to U_F, so the verdict's
    fixed-point test is the test that it has no fixed point, and an eigenvalue
    at 1 is the atom at infinity of a forbidden F.  ParameterError when F is not
    a contraction, not unitary or not admissible.
    """
    if bases.delta == 0:
        raise ParameterError("problem is determinate; use the determinate solver")
    F = square_parameter(F, bases.delta)
    mu, unitary, admissible = parameter_verdict(bases.colligation, F, tol)
    if not unitary:
        unit_dev = float(np.abs(F.conj().T @ F - np.eye(bases.delta)).max(initial=0.0))
        raise ParameterError(f"parameter is not unitary (deviation {unit_dev:.3e})")
    if not admissible:
        raise ParameterError(f"parameter is not admissible: U_F has an eigenvalue within "
                             f"{np.abs(mu - 1.0).min():.3e} of 1")
    return self_adjoint_extension(bases, F)


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


def find_admissible_unitary(Xi: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The unitary parameter F = -polar(Xi) = -U V^H, from one SVD Xi = U Sigma V^H.

    F - Xi = -U (I + Sigma) V^H, so sigma_min(F - Xi) = 1 + sigma_min(Xi) >= 1, the
    largest any unitary reaches: ||(F - Xi) v|| <= 1 + sigma_min(Xi) for the right
    singular vector v of sigma_min(Xi).  tol is not used.
    """
    u, _, vh = np.linalg.svd(Xi)
    return -(u @ vh)


# ---------------------------------------------------------------------------
# Stieltjes-Perron inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledDistribution:
    """Cumulative distribution samples recovered from boundary values."""

    grid: np.ndarray      # (L,) increasing real points
    values: np.ndarray    # (L, N, N) cumulative mass over (grid[0], grid[k])
    monotone: bool        # False when the extrapolated diagonals dip

    def total_mass(self) -> np.ndarray:
        return self.values[-1]


def invert_transform(evaluator, grid) -> SampledDistribution:
    """Recover the cumulative measure from transform boundary values.

    Extrapolates the transform on the horizontal lines Im z = eps to eps -> 0
    through EPS_SCHEDULE, as one sum of the evaluator's outputs with the Lagrange
    weights prod_{m != k} eps_m / (eps_m - eps_k) of polynomial interpolation at
    0, then integrates its matrix imaginary part by the trapezoid rule on the
    grid, in one pass.  The evaluator receives a full complex grid array and
    must return stacked (L, N, N) transform values of the transposed measure;
    the output is transposed back.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise InputError("grid must be a strictly increasing 1-D array")

    extrap = None
    for k, eps in enumerate(EPS_SCHEDULE):
        # Lagrange weight of eps at 0 for interpolation in the schedule
        weight = float(np.prod([e / (e - eps) for m, e in enumerate(EPS_SCHEDULE) if m != k]))
        vals = np.asarray(evaluator(grid + 1j * eps), dtype=complex)
        if extrap is None:
            extrap = weight * vals
        else:
            extrap += weight * vals
    # the imaginary part, integrated by the trapezoid rule and accumulated
    imag = extrap - extrap.conj().transpose(0, 2, 1)
    extrap[0] = 0.0
    np.add(imag[1:], imag[:-1], out=extrap[1:])
    extrap[1:] *= (np.diff(grid) / (4j * np.pi))[:, None, None]
    np.cumsum(extrap[1:], axis=0, out=extrap[1:])
    diag = np.real(np.einsum("lkk->lk", extrap))
    slack = 1e-6 * (1.0 + float(np.abs(diag).max(initial=0.0)))
    monotone = bool(np.all(np.diff(diag, axis=0) >= -slack))
    if not monotone:
        warnings.warn("extrapolated distribution is not monotone within tolerance",
                      RuntimeWarning, stacklevel=2)
    values = extrap.transpose(0, 2, 1)  # transposed-measure transform back to the measure
    return SampledDistribution(grid=grid, values=values, monotone=monotone)
