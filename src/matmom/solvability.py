"""Block Hankel assembly and the solvability test.

The moment problem is solvable exactly when the full block Hankel matrix
is positive semidefinite and the kernel of its leading principal block
section is contained in the kernel of the twice-shifted section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moment_model import DEFAULT_TOL, MomentSequence, Tolerances


@dataclass(frozen=True, eq=False)
class HankelPair:
    """The three block Hankel matrices read off a moment sequence.

    gamma_d has (i, j) block S_{i+j} for i, j = 0..d; gamma_hat uses
    S_{i+j+2} and gamma_dm1 uses S_{i+j}, both for i, j = 0..d-1.
    """

    gamma_d: np.ndarray     # ((d+1)N, (d+1)N)
    gamma_hat: np.ndarray   # (dN, dN)
    gamma_dm1: np.ndarray   # (dN, dN)


@dataclass(frozen=True)
class SolvabilityReport:
    solvable: bool
    min_eigenvalue: float
    kernel_inclusion_defect: float
    scale: float

    def to_json_obj(self) -> dict:
        return {
            "solvable": self.solvable,
            "min_eigenvalue": self.min_eigenvalue,
            "kernel_inclusion_defect": self.kernel_inclusion_defect,
            "scale": self.scale,
        }


def block_hankel(moments: np.ndarray, size: int, n_dim: int) -> np.ndarray:
    """The (size n_dim) square matrix with (i, j) block moments[i + j], gathered from
    the complex (count, n_dim, n_dim) moment stack in one indexing step."""
    steps = np.arange(size)
    index = steps[:, None] + steps
    blocks = moments[index]  # (size, size, n_dim, n_dim)
    return blocks.transpose(0, 2, 1, 3).reshape(size * n_dim, size * n_dim)


def build_block_hankel(ms: MomentSequence) -> HankelPair:
    gamma_d = block_hankel(ms.moments, ms.d + 1, ms.N)
    size = ms.d * ms.N
    return HankelPair(
        gamma_d=gamma_d,
        # block (i, j) of gamma_d[N:, N:] is S_{(i+1)+(j+1)}
        gamma_hat=np.ascontiguousarray(gamma_d[ms.N:, ms.N:]),
        gamma_dm1=gamma_d[:size, :size],  # the leading d x d blocks of gamma_d
    )


def check_solvable(h: HankelPair, tol: Tolerances = DEFAULT_TOL) -> SolvabilityReport:
    """Decide solvability from the Hankel pair.

    PSD is tested through the smallest eigenvalue of gamma_d.  The kernel
    inclusion is tested by mapping an orthonormal kernel basis of gamma_dm1
    (eigenvectors below the rank cutoff) through gamma_hat and measuring the
    largest image norm.  All cutoffs are relative to the largest eigenvalue
    of gamma_d (or 1 when it is not positive).
    """
    evals_d = np.linalg.eigvalsh(h.gamma_d)
    lam_max = float(evals_d.max(initial=0.0))
    scale = lam_max if lam_max > 0.0 else 1.0
    min_eig = float(evals_d.min(initial=0.0))

    defect = 0.0
    if h.gamma_dm1.size:
        evals, evecs = np.linalg.eigh(h.gamma_dm1)
        kernel = evecs[:, np.abs(evals) <= tol.rank_tol * scale]
        if kernel.shape[1]:
            images = h.gamma_hat @ kernel
            defect = float(np.linalg.norm(images, axis=0).max(initial=0.0))

    solvable = min_eig >= -tol.psd_tol * scale and defect <= tol.psd_tol * scale
    return SolvabilityReport(
        solvable=bool(solvable),
        min_eigenvalue=min_eig,
        kernel_inclusion_defect=defect,
        scale=scale,
    )
