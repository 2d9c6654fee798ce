"""Dense matrix polynomials, coefficients stored lowest degree first.

They hold the printed transform coefficients and the cubic psi term that
assemble_coefficients folds into A.  The library only prints them; only the
tests evaluate them.  evaluate_transform sums pole-residue terms and the
coefficients of psi(z) / (z+i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

TRIM_REL_TOL = 1e-12  # trailing coefficients this small relative to the largest are dropped


def poly_trim(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients up to the last one above TRIM_REL_TOL times the largest; [0] if none."""
    coeffs = np.asarray(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(mags > TRIM_REL_TOL * top)[0]
    return coeffs[: keep[-1] + 1].copy()


def poly_times(scalar, coeffs: np.ndarray, length: int) -> np.ndarray:
    """Coefficients of a scalar polynomial times an (n, p, q) matrix
    polynomial, zero-padded to length coefficients."""
    out = np.zeros((length,) + coeffs.shape[1:], dtype=complex)
    for i, c in enumerate(scalar):
        out[i: i + coeffs.shape[0]] += c * coeffs
    return out


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Polynomial with p x q complex matrix coefficients, lowest degree first.

    The trailing coefficient is nonzero unless the polynomial is the
    canonical zero (a single zero coefficient).
    """

    coeffs: np.ndarray  # (n_coeff, p, q)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[0] < 1:
            raise InputError(f"coefficient array must be (n, p, q), got shape {c.shape}")
        object.__setattr__(self, "coeffs", c)

    def trim(self) -> "MatrixPolynomial":
        """poly_trim's rule on the largest |entry| of each coefficient."""
        mags = np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1).max(axis=1, initial=0.0)
        return MatrixPolynomial(self.coeffs[: poly_trim(mags).size].copy())

    def scale(self, scalar_coeffs: np.ndarray) -> "MatrixPolynomial":
        """Multiply by a scalar polynomial given as a 1-D coefficient array."""
        length = self.coeffs.shape[0] + len(scalar_coeffs) - 1
        return MatrixPolynomial(poly_times(scalar_coeffs, self.coeffs, length)).trim()

    def to_json_obj(self) -> list:
        from .moment_model import matrix_to_json
        return [matrix_to_json(c) for c in self.coeffs]
