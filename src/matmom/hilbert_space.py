"""Finite-dimensional Hilbert space model of a solvable moment problem.

Factors the block Hankel Gram matrix into explicit coordinates for the
generating vectors x_0 .. x_{dN+N-1}, realizes the shift operator
A x_k = x_{k+N} on its natural domain, and builds all orthonormal
families needed downstream: the domain split, the Cayley-transform
range split, and the two defect-space bases.  Every family comes from
orthonormal_split, one right-looking modified Gram-Schmidt of one matrix.
The unitary colligation of the bases, one array of their inner products whose blocks
are views, and the eig of its block a0 are computed once per BasisCollection.

Inner product convention: (f, g) = g* f in coordinates, linear in the
first argument.  With that convention the coordinates returned by
factor_gram satisfy (x_n, x_m) = gamma[n, m] exactly (so the literal
matrix product X* X equals the transpose of the Gram matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RankError, SolvabilityError
from .moment_model import DEFAULT_TOL, Tolerances
from .solvability import HankelPair


def ip_matrix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix of pairwise inner products: entry (j, k) = (right_k, left_j)."""
    return left.conj().T @ right


@dataclass(frozen=True, eq=False)
class HilbertRep:
    """Coordinates of the generating vectors in an r-dimensional space."""

    N: int
    d: int
    X: np.ndarray  # (r, dN+N), column n holds the coordinates of x_n

    @property
    def r(self) -> int:
        return self.X.shape[0]

    @property
    def dN(self) -> int:
        return self.d * self.N

    def first_block(self) -> np.ndarray:
        """Columns x_0 .. x_{N-1}, as a contiguous copy: products with it run on BLAS,
        not numpy's strided loop."""
        return np.ascontiguousarray(self.X[:, : self.N])

    @cached_property
    def gram(self) -> np.ndarray:
        """Reconstructed Gram matrix with entry (n, m) = (x_n, x_m), formed on first use
        and shared by every reader; read-only."""
        out = self.X.T @ self.X.conj()
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class OrthoBasisSet:
    """Result of rank-revealing Gram-Schmidt.

    vectors: (r, m) ambient coordinates, orthonormal columns.
    source_indices: which input produced each surviving column.
    expansions: (m, n_inputs) rows expressing each output as a linear
    combination of the inputs processed so far.
    """

    vectors: np.ndarray
    source_indices: tuple
    expansions: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[1]


def orthonormal_split(seq: np.ndarray, n_lead: int, rank_tol: float = DEFAULT_TOL.rank_tol):
    """Modified Gram-Schmidt over the columns of one (r, m) matrix, survivors split at n_lead.

    Works on one (m, r+m) array whose row j holds input j with its expansion
    e_j appended.  Inputs are decided in order, on Python floats: an input
    is discarded when its residual norm is at most
    rank_tol * max(1, input norm), and gets one re-orthogonalization pass
    against the kept vectors, one at a time, when its residual norm is
    above that but at most sqrt(rank_tol) times the scale ("twice is
    enough"), which keeps rank decisions stable near the cutoff.  An input
    already at or below the drop cutoff skips the second pass: in exact
    arithmetic that pass only lowers the residual, so the input is dropped
    either way.  A survivor is normalized without
    any phase adjustment and projected out of all later rows at once by one
    rank-1 update, which gives every input the projections of
    column-by-column MGS in the same order.  Input order is preserved.

    Returns (lead, rest): the OrthoBasisSets of the survivors among the first
    n_lead inputs and among the others, with expansions over all m inputs.
    """
    seq = np.asarray(seq, dtype=complex)
    r, m = seq.shape
    # row j: input j with its expansion e_j appended, projected in place, then q_j
    work = np.concatenate([seq.T, np.eye(m)], axis=1)
    head = work[:, :r]  # the inputs' coordinates, without the expansions
    scale = np.maximum(1.0, np.sqrt(np.vecdot(head, head).real))
    again_at, drop_at = (math.sqrt(rank_tol) * scale).tolist(), (rank_tol * scale).tolist()
    kept = []
    for idx in range(m):
        w, wr = work[idx], head[idx]
        norm_out = math.sqrt(np.vecdot(wr, wr).real)
        if drop_at[idx] < norm_out <= again_at[idx]:
            for k in kept:
                w -= np.vecdot(head[k], wr) * work[k]
            norm_out = math.sqrt(np.vecdot(wr, wr).real)
        if norm_out > drop_at[idx]:
            kept.append(idx)
            w /= norm_out
            if idx + 1 < m:
                work[idx + 1:] -= np.vecdot(wr, head[idx + 1:])[:, None] * w
    split = sum(1 for k in kept if k < n_lead)
    return tuple(
        OrthoBasisSet(vectors=work[cols, :r].T, source_indices=tuple(cols),
                      expansions=work[cols, r:])
        for cols in (kept[:split], kept[split:]))


def factor_gram(h: HankelPair, tol: Tolerances = DEFAULT_TOL, *, N: int, d: int) -> HilbertRep:
    """Realize the Gram matrix by explicit coordinates from h.spectrum, the eigh of
    gamma_d that check_solvable reads.  Eigenvalues up to rank_tol * scale are
    dropped; a gamma_d that fails check_solvable's PSD test, h.is_psd, raises
    SolvabilityError."""
    gamma = h.gamma_d
    size = gamma.shape[0]
    if size != (d + 1) * N:
        raise RankError(f"Hankel size {size} does not match N={N}, d={d}")

    evals, evecs, scale = h.spectrum
    if not h.is_psd(tol):
        raise SolvabilityError(
            f"Gram matrix has negative eigenvalue {evals[0]:.3e}; problem not solvable")
    keep = evals > tol.rank_tol * scale
    # X = sqrt(lam) . U^T gives (x_n, x_m) = gamma[n, m] under (f, g) = g* f
    X = np.sqrt(evals[keep])[:, None] * evecs[:, keep].T
    rep = HilbertRep(N=N, d=d, X=X)
    # with no positive eigenvalue nothing is kept, and a PSD gamma_d has |entries| <= psd_tol
    err = float(np.abs(rep.gram - gamma).max(initial=0.0))
    if err > 10.0 * (tol.rank_tol + tol.psd_tol) * scale:
        raise RankError(f"Gram factorization error {err:.3e} exceeds tolerance")
    return rep


@dataclass(frozen=True, eq=False)
class OperatorModel:
    """Shift operator data: difference vectors y_k = x_{k+N} - i x_k, the
    orthonormal basis they generate, and its Cayley images."""

    y: np.ndarray               # (r, dN) columns y_k
    range_basis: OrthoBasisSet  # u_j spanning ran(A - iI); expansions over the y/x sequence
    cayley: np.ndarray          # (r, tau) columns v_j, images of u_j under the Cayley isometry
    defect_basis: OrthoBasisSet  # u'_j spanning the orthogonal complement of ran(A - iI)
    rho: int                    # survivors among the first N difference vectors

    @property
    def tau(self) -> int:
        return self.range_basis.size

    @property
    def delta(self) -> int:
        return self.defect_basis.size


def build_operator_model(rep: HilbertRep, tol: Tolerances = DEFAULT_TOL) -> OperatorModel:
    """Orthogonalize y_0..y_{dN-1}, x_0..x_{N-1} and build the Cayley images.

    Each range basis vector u_j = sum c_k y_k is mapped to
    v_j = sum c_k (x_{k+N} + i x_k); the resulting family must be
    orthonormal, which is checked through the norms.
    """
    dN = rep.dN
    X = rep.X
    shifted, lead = X[:, rep.N: rep.N + dN], X[:, :dN]  # A x_k = x_{k+N} and x_k, k < dN
    y = shifted - 1j * lead
    range_basis, defect_basis = orthonormal_split(np.concatenate([y, X[:, : rep.N]], axis=1),
                                                  dN, tol.rank_tol)
    tau = range_basis.size
    rho = sum(1 for s in range_basis.source_indices if s < rep.N)

    coeff = range_basis.expansions[:, :dN]  # u_j only involves the difference vectors
    cayley = (shifted + 1j * lead) @ coeff.T
    if tau:
        norm_err = float(np.abs(np.linalg.norm(cayley, axis=0) - 1.0).max(initial=0.0))
        if norm_err > tol.rank_tol:
            raise RankError(f"Cayley image norms deviate from 1 by {norm_err:.3e}; "
                            "Gram data inconsistent with the chosen rank cutoff")
    return OperatorModel(y=y, range_basis=range_basis, cayley=cayley,
                         defect_basis=defect_basis, rho=rho)


@dataclass(frozen=True, eq=False)
class BasisCollection(OperatorModel):
    """All orthonormal families attached to one moment problem: the operator
    model's, and domain / domain_comp from orthogonalizing x_0..x_{dN+N-1} and
    codefect_basis, which spans the orthogonal complement of the Cayley images.
    """

    domain: OrthoBasisSet        # f_j, basis of the operator domain
    domain_comp: OrthoBasisSet   # f'_j, basis of its orthogonal complement
    codefect_basis: OrthoBasisSet  # v'_j

    @property
    def kappa(self) -> int:
        return self.domain.size

    @property
    def kappa_prime(self) -> int:
        return self.domain_comp.size

    @cached_property
    def colligation(self) -> np.ndarray:
        """The unitary colligation U = [[a0, W], [Chat, T]] as one read-only (tau+delta)
        square array, formed on first use and shared by every reader; a0, W, Chat
        and T are views of it (U[:tau, :tau] and so on), never copies.

        Its blocks are the inner products of the Cayley images v and the codefect
        basis v' with the range basis u and the defect basis u': a0 = (v_k, u_j),
        W = (v'_l, u_j), Chat = (v_k, u'_j) and T = (v'_l, u'_j).  In the basis
        [u, u'] the unitary extension of a parameter F has the matrix
        U_F = [[a0, W F], [Chat, T F]].
        """
        u, up = self.range_basis.vectors, self.defect_basis.vectors
        v, vp, tau = self.cayley, self.codefect_basis.vectors, self.tau
        out = np.empty((tau + self.delta,) * 2, dtype=complex)
        out[:tau, :tau], out[:tau, tau:] = ip_matrix(u, v), ip_matrix(u, vp)
        out[tau:, :tau], out[tau:, tau:] = ip_matrix(up, v), ip_matrix(up, vp)
        out.setflags(write=False)
        return out

    @cached_property
    def a0_eig(self) -> tuple:
        """np.linalg.eig of the block a0 of the colligation: (lam, V) with
        a0 = V diag(lam) V^{-1}, computed on first use and shared like U."""
        return np.linalg.eig(self.colligation[:self.tau, :self.tau])


def build_all_bases(rep: HilbertRep, model: OperatorModel,
                    tol: Tolerances = DEFAULT_TOL) -> BasisCollection:
    """Run the remaining orthogonalizations and cross-check all dimensions."""
    domain, domain_comp = orthonormal_split(rep.X, rep.dN, tol.rank_tol)
    kappa = domain.size

    tau = model.tau
    lead, codefect = orthonormal_split(np.concatenate([model.cayley, rep.X[:, : rep.N]], axis=1),
                                       tau, tol.rank_tol)
    if lead.size != tau:
        raise RankError("Cayley images lost rank during re-orthogonalization")

    r = rep.r
    if kappa + domain_comp.size != r or tau + model.delta != r:
        raise RankError(
            f"basis dimensions disagree with the ambient rank: kappa={kappa}, "
            f"kappa'={domain_comp.size}, tau={tau}, delta={model.delta}, r={r}")
    if codefect.size != model.delta:
        raise RankError(
            f"defect dimensions disagree: {model.delta} vs {codefect.size}; rank unstable")
    if tau != kappa:
        raise RankError(f"domain and range ranks disagree: kappa={kappa}, tau={tau}")

    return BasisCollection(**vars(model), domain=domain, domain_comp=domain_comp,
                           codefect_basis=codefect)


def classify_determinacy(bases: BasisCollection) -> bool:
    """True when the problem is determinate (unique solution).

    The problem is determinate exactly when the generating vectors beyond
    the operator domain bring nothing new, i.e. the domain complement is
    empty and the shift operator is self-adjoint.
    """
    return bases.kappa_prime == 0

