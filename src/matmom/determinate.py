"""Explicit unique solution in the determinate case.

When the shift operator is self-adjoint its spectral decomposition
yields the one and only solution directly: atoms at the eigenvalues,
weights from the compressed eigenprojections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParameterError
from .hilbert_space import BasisCollection, HilbertRep, ip_matrix, shifted_domain_images
from .moment_model import AtomicMeasure, hermitize


@dataclass(frozen=True, eq=False)
class DeterminateModel:
    """Matrix data of the self-adjoint shift in its domain basis.

    R holds the inner products (x_k, f_j); MA is the Hermitian matrix of
    the shift operator itself.
    """

    R: np.ndarray   # (kappa, N)
    MA: np.ndarray  # (kappa, kappa)

    @property
    def kappa(self) -> int:
        return self.MA.shape[0]


def build_determinate_model(rep: HilbertRep, bases: BasisCollection) -> DeterminateModel:
    if bases.kappa_prime != 0:
        raise ParameterError("moment problem is indeterminate; determinate model unavailable")
    f = bases.domain.vectors
    R = ip_matrix(f, rep.first_block())
    images = shifted_domain_images(rep, bases.domain.expansions)
    MA = hermitize(ip_matrix(f, images))
    return DeterminateModel(R=R, MA=MA)


def spectral_measure(a: np.ndarray, xc: np.ndarray) -> AtomicMeasure:
    """Atoms of the spectral measure of the Hermitian matrix a compressed to the columns of xc.

    Eigenvalues closer than 1e-8 (1 + ||a||) are merged into one atom at
    their mean, so repeated spectrum from block structure becomes a single
    PSD weight.  The weight is xc* P xc for the summed eigenprojection P,
    transposed back from the transform's transposed convention.
    """
    if a.shape[0] == 0:
        return AtomicMeasure(atoms=())
    cluster_tol = 1e-8 * (1.0 + float(np.linalg.norm(a, 2)))
    evals, evecs = np.linalg.eigh(a)
    atoms = []
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > cluster_tol:
            vecs = evecs[:, start:i]
            proj = vecs @ vecs.conj().T
            atoms.append((float(evals[start:i].mean()), hermitize((xc.conj().T @ proj @ xc).T)))
            start = i
    return AtomicMeasure(atoms=tuple(atoms))


def resolvent_transform(a: np.ndarray, xc: np.ndarray, z) -> np.ndarray:
    """Values xc* (a - z I)^{-1} xc at non-real z (scalar or array), one linear solve per point.

    Returns shape z.shape + (n, n) for the n columns of xc: the transform of
    the transposed measure, entry (j, k) integrating 1/(t - z) against dm_{k,j}.
    """
    z_arr = np.asarray(z, dtype=complex)
    flat = np.atleast_1d(z_arr).ravel()
    real = flat[flat.imag == 0.0]
    if real.size:
        raise EvaluationError(f"z must be non-real, got {complex(real[0])}")
    eye = np.eye(a.shape[0])
    vals = [xc.conj().T @ np.linalg.solve(a - w * eye, xc) for w in flat]
    return np.array(vals, dtype=complex).reshape(z_arr.shape + (xc.shape[1],) * 2)


def solve_determinate(dm: DeterminateModel) -> AtomicMeasure:
    """Spectral extraction of the unique solution.

    The transform R*(MA - z)^{-1} R expands into simple fractions over the
    eigenvalues of MA; each residue is the weight matrix at that eigenvalue.
    """
    return spectral_measure(dm.MA, dm.R)


def stieltjes_determinate(dm: DeterminateModel, z: complex) -> np.ndarray:
    """Transform value R*(MA - z I)^{-1} R at a non-real point.

    Returns the transform of the transposed measure: entry (j, k) is the
    integral of 1/(t - z) against dm_{k,j}.
    """
    return resolvent_transform(dm.MA, dm.R, z)
