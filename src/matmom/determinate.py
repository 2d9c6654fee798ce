"""The one Cayley path to atomic solutions, and the unique one of a determinate problem.

A determinate problem (delta = 0) has a unitary Cayley isometry V = (A+i)(A-i)^{-1},
and the shift A is its Cayley inverse; a canonical solution takes the same inverse of
the unitary extension of V by a unitary parameter F.  self_adjoint_extension forms
that extension and its inverse in one function (the shift with the empty parameter),
and spectral_measure reads the atoms off the Hermitian matrix it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import EvaluationError, ParameterError
from .hilbert_space import BasisCollection, HilbertRep
from .moment_model import AtomicMeasure, hermitize

CLUSTER_WIDTH = 1e-8   # eigenvalues this close, relative to 1 + ||a||, make one atom
STACK_BYTES = 1 << 16  # most bytes of eigenprojectors spectral_measure stacks in one matmul


@dataclass(frozen=True, eq=False)
class DeterminateModel:
    """The self-adjoint shift MA in ambient coordinates, its domain the whole space
    (kappa = r), and R, the first block x_0 .. x_{N-1} (rep.first_block())."""

    R: np.ndarray   # (r, N)
    MA: np.ndarray  # (r, r)


def build_determinate_model(rep: HilbertRep, bases: BasisCollection) -> DeterminateModel:
    """The shift as the Cayley inverse of V = sum_j v_j u_j*, the Cayley isometry,
    unitary when delta = 0 (self_adjoint_extension with the empty parameter).
    V = (A + i)(A - i)^{-1} has no eigenvalue 1, so there is no fixed-point test."""
    if bases.kappa_prime != 0:
        raise ParameterError("moment problem is indeterminate; determinate model unavailable")
    return DeterminateModel(R=rep.first_block(),
                            MA=self_adjoint_extension(bases, np.zeros((0, 0))))


def self_adjoint_extension(bases: BasisCollection, F: np.ndarray) -> np.ndarray:
    """The Hermitian Cayley inverse A = i (U - I)^{-1} (U + I) of the extension U of
    the Cayley isometry that maps each u_j to v_j and the defect basis u'_j to the
    columns of V'F, for the codefect basis V' and a delta x delta parameter F.  U is
    unitary for a unitary F, and the isometry itself for the empty F; it must have
    no eigenvalue 1."""
    q = np.concatenate([bases.range_basis.vectors, bases.defect_basis.vectors], axis=1)
    images = np.concatenate([bases.cayley, bases.codefect_basis.vectors @ F], axis=1)
    u = images @ q.conj().T
    eye = np.eye(u.shape[0])
    return hermitize(1j * np.linalg.solve(u - eye, u + eye))


def spectral_measure(a: np.ndarray, xc: np.ndarray) -> AtomicMeasure:
    """Atoms of the spectral measure of the Hermitian matrix a compressed to the columns of xc.

    Eigenvalues closer than CLUSTER_WIDTH (1 + ||a||) are merged into one
    atom at their mean, so repeated spectrum from block structure becomes a
    single PSD weight.  The weight is xc* P xc for the summed eigenprojection
    P = V V* of the cluster's eigenvectors V, transposed back from the
    transform's transposed convention.

    The weights are computed in stacks: a run of consecutive clusters of one
    width, cut to at most STACK_BYTES of projectors, is one column slice of
    eigh's eigenvectors, viewed as (clusters, r, width).  Each item of that
    view is the strided slice a one-cluster product reads, and numpy's stacked
    matmul multiplies each item with the same BLAS call as the matrix alone, so
    every weight has the bits of the cluster-at-a-time product.  The measure holds
    the locations and weights arrays filled here.
    """
    r = a.shape[0]
    if r == 0:
        return AtomicMeasure(locations=np.empty(0),
                             weights=np.empty((0,) + (xc.shape[1],) * 2, dtype=complex))
    evals, evecs = np.linalg.eigh(a)
    # ||a||_2 of a Hermitian a is its largest |eigenvalue|, read off the ascending ends
    cluster_tol = CLUSTER_WIDTH * (1.0 + max(-float(evals[0]), float(evals[-1])))
    edges = np.ones(r + 1, dtype=bool)
    np.greater(evals[1:] - evals[:-1], cluster_tol, out=edges[1:-1])
    bounds = edges.nonzero()[0]  # cluster k holds eigenvalues bounds[k] .. bounds[k+1]-1
    xh = xc.conj().T
    per_stack = max(1, STACK_BYTES // (evecs.itemsize * r * r))
    locations = np.empty(bounds.size - 1)
    weights = np.empty((bounds.size - 1,) + (xc.shape[1],) * 2, dtype=np.result_type(evecs, xc))
    run_start = 0
    for width, run in groupby((bounds[1:] - bounds[:-1]).tolist()):
        run_stop = run_start + len(list(run))
        for first in range(run_start, run_stop, per_stack):
            last = min(first + per_stack, run_stop)
            cols = slice(bounds[first], bounds[last])
            vecs = evecs[:, cols].reshape(r, last - first, width).transpose(1, 0, 2)
            m = xh @ (vecs @ vecs.conj().swapaxes(-1, -2)) @ xc
            # hermitize(m.T) and the clusters' means, item by item
            np.multiply(0.5, m.swapaxes(-1, -2) + m.conj(), out=weights[first:last])
            np.divide(np.add.reduce(evals[cols].reshape(-1, width), axis=1), width,
                      out=locations[first:last])
        run_start = run_stop
    return AtomicMeasure(locations=locations, weights=weights)


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
