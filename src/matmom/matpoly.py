"""Dense matrix polynomials with evaluation-interpolation construction.

Coefficients are stored lowest degree first.  Polynomials produced from
point samples use nodes placed strictly inside the upper half-plane
(Chebyshev-spaced real parts shifted by +i), where all matrices inverted
during sampling are provably nonsingular.  The sampled function is called
once, on the whole node array, and must return one value per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def interpolation_nodes(count: int) -> np.ndarray:
    """Chebyshev-spaced abscissas lifted into the upper half-plane."""
    if count < 1:
        raise InputError("need at least one interpolation node")
    if count == 1:
        return np.array([1j], dtype=complex)
    k = np.arange(count)
    return np.cos(np.pi * (2 * k + 1) / (2 * count)) + 1j


def polyval(coeffs: np.ndarray, z) -> np.ndarray:
    """Evaluate a scalar polynomial (lowest degree first) by Horner's rule."""
    coeffs = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out *= z
        out += c
    return out


def poly_trim(coeffs: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(mags > rel_tol * top)[0]
    return coeffs[: keep[-1] + 1].copy()


def poly_from_samples(fn, degree: int) -> np.ndarray:
    """Recover scalar polynomial coefficients from degree+1 point samples.

    fn is called once with the (degree+1,) node array and returns the
    (degree+1,) sample values."""
    nodes = interpolation_nodes(degree + 1)
    vander = np.vander(nodes, degree + 1, increasing=True)
    values = np.asarray(fn(nodes), dtype=complex).reshape(degree + 1)
    return poly_trim(np.linalg.solve(vander, values))


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

    @classmethod
    def from_samples(cls, fn, degree: int, shape: tuple) -> "MatrixPolynomial":
        """Interpolate a matrix-valued polynomial from degree+1 samples of fn.

        fn is called once with the (degree+1,) node array and returns the
        (degree+1, p, q) stack of sample values.  An empty shape never calls fn.
        """
        p, q = shape
        if p == 0 or q == 0:
            return cls(np.zeros((1, p, q), dtype=complex))
        nodes = interpolation_nodes(degree + 1)
        vander = np.vander(nodes, degree + 1, increasing=True)
        values = np.asarray(fn(nodes), dtype=complex).reshape(degree + 1, p * q)
        coeffs = np.linalg.solve(vander, values).reshape(degree + 1, p, q)
        return cls(coeffs).trim()

    def trim(self, rel_tol: float = 1e-12) -> "MatrixPolynomial":
        mags = np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1).max(axis=1) \
            if self.coeffs[0].size else np.zeros(self.coeffs.shape[0])
        top = float(mags.max(initial=0.0))
        if top == 0.0:
            return MatrixPolynomial(self.coeffs[:1] * 0.0)
        keep = np.nonzero(mags > rel_tol * top)[0]
        return MatrixPolynomial(self.coeffs[: keep[-1] + 1].copy())

    def __call__(self, z) -> np.ndarray:
        """Evaluate at scalar or array z; returns shape z.shape + (p, q)."""
        z = np.asarray(z, dtype=complex)
        zz = z[..., None, None]
        out = np.zeros(z.shape + self.shape, dtype=complex)
        for c in self.coeffs[::-1]:
            out *= zz
            out += c
        return out

    def scale(self, scalar_coeffs: np.ndarray) -> "MatrixPolynomial":
        """Multiply by a scalar polynomial given as a 1-D coefficient array."""
        s = np.asarray(scalar_coeffs, dtype=complex)
        n = self.coeffs.shape[0] + s.shape[0] - 1
        out = np.zeros((n,) + self.shape, dtype=complex)
        for i, a in enumerate(self.coeffs):
            for j, c in enumerate(s):
                out[i + j] += c * a
        return MatrixPolynomial(out).trim()

    def to_json_obj(self) -> list:
        from .moment_model import matrix_to_json
        return [matrix_to_json(c) for c in self.coeffs]
