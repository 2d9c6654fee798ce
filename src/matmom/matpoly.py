"""Dense matrix polynomials, coefficients stored lowest degree first.

They hold the printed transform coefficients and the cubic psi term that
assemble_coefficients folds into A.  The library only prints them; only the
tests evaluate them.  evaluate_transform sums pole-residue terms and the
coefficients of psi(z) / (z+i).  poly_times loops over the shorter of its two
factors; either way every output coefficient gets the same products, added
onto zero in the same order, so the printed bytes do not depend on which
factor is longer.  Both trims take their kept length from one list of
coefficient magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

TRIM_REL_TOL = 1e-12  # trailing coefficients this small relative to the largest are dropped


def _kept_length(mags: list) -> int:
    """How many leading coefficients poly_trim keeps, given their magnitudes: up to
    the last one above TRIM_REL_TOL times the largest, or 0 when all are zero.
    IndexError when a magnitude is NaN or infinite: the cut is then NaN or infinite,
    and no magnitude lies above it."""
    if math.isnan(sum(mags)):  # Python's max skips a NaN that does not come first
        raise IndexError("a NaN coefficient leaves no kept length")
    top = max(mags, default=0.0)
    if top == 0.0:
        return 0
    cut = TRIM_REL_TOL * top
    for n in range(len(mags), 0, -1):
        if mags[n - 1] > cut:
            return n
    raise IndexError("an infinite coefficient leaves no kept length")


def poly_trim(coeffs: np.ndarray) -> np.ndarray:
    """The 1-D coeffs up to the last one above TRIM_REL_TOL times the largest; [0] if none."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = _kept_length(np.abs(coeffs).tolist())
    return coeffs[:n].copy() if n else np.zeros(1, dtype=complex)


def poly_times(scalar, coeffs: np.ndarray, length: int) -> np.ndarray:
    """Coefficients of a scalar polynomial times an (n, p, q) matrix
    polynomial, zero-padded to length coefficients.

    Output coefficient m is the sum over i ascending of scalar[i] coeffs[m-i],
    added onto zero.  The loop runs over the shorter factor: over the scalar
    coefficients, or, when the scalar polynomial is longer, over the matrix
    coefficients from last to first, which adds the same products in the same
    order.  The scalar stays the left operand: numpy's complex product is not
    bitwise commutative."""
    out = np.zeros((length,) + coeffs.shape[1:], dtype=complex)
    n = coeffs.shape[0]
    if len(scalar) <= n:
        for i, c in enumerate(scalar):
            out[i: i + n] += c * coeffs
    else:
        column = np.asarray(scalar, dtype=complex).reshape((-1,) + (1,) * (coeffs.ndim - 1))
        for j in range(n - 1, -1, -1):
            out[j: j + column.shape[0]] += column * coeffs[j]
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
        """poly_trim's rule on the largest |entry| of each coefficient; the zero
        polynomial keeps its first coefficient."""
        mags = np.abs(self.coeffs).max(axis=(1, 2), initial=0.0).tolist()
        return MatrixPolynomial(self.coeffs[: max(_kept_length(mags), 1)].copy())

    def to_json_obj(self) -> list:
        from .moment_model import matrix_to_json
        return [matrix_to_json(c) for c in self.coeffs]
