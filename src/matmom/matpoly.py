"""Dense matrix polynomials, coefficients stored lowest degree first.

They hold the printed transform coefficients and the cubic psi term that
evaluate_transform evaluates by Horner's rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def poly_trim(coeffs: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(mags > rel_tol * top)[0]
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

    @property
    def shape(self) -> tuple:
        return self.coeffs.shape[1:]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def trim(self, rel_tol: float = 1e-12) -> "MatrixPolynomial":
        mags = np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1).max(axis=1) \
            if self.coeffs[0].size else np.zeros(self.coeffs.shape[0])
        top = float(mags.max(initial=0.0))
        if top == 0.0:
            return MatrixPolynomial(self.coeffs[:1] * 0.0)
        keep = np.nonzero(mags > rel_tol * top)[0]
        return MatrixPolynomial(self.coeffs[: keep[-1] + 1].copy())

    def __call__(self, z) -> np.ndarray:
        """Evaluate at scalar or array z; returns shape z.shape + (p, q).

        Horner's rule runs over a (p, q) + z.shape array, the points last, and
        the result is a view with the points moved first."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(self.shape + z.shape, dtype=complex)
        for c in self.coeffs[::-1]:
            out *= z
            out += c.reshape(c.shape + (1,) * z.ndim)
        return np.moveaxis(out, (0, 1), (-2, -1))

    def scale(self, scalar_coeffs: np.ndarray) -> "MatrixPolynomial":
        """Multiply by a scalar polynomial given as a 1-D coefficient array."""
        length = self.coeffs.shape[0] + len(scalar_coeffs) - 1
        return MatrixPolynomial(poly_times(scalar_coeffs, self.coeffs, length)).trim()

    def to_json_obj(self) -> list:
        from .moment_model import matrix_to_json
        return [matrix_to_json(c) for c in self.coeffs]
