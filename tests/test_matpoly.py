import numpy as np

from matmom import MatrixPolynomial
from matmom.matpoly import poly_times, poly_trim

from conftest import polyval_matrix


def test_poly_trim():
    assert np.array_equal(poly_trim(np.array([1.0, 2.0, 0.0])), [1.0, 2.0])
    assert np.array_equal(poly_trim(np.zeros(4)), [0.0])


def test_matrix_poly_eval_and_shape():
    coeffs = np.zeros((2, 2, 3), dtype=complex)
    coeffs[0] = np.arange(6).reshape(2, 3)
    coeffs[1] = np.eye(2, 3)
    p = MatrixPolynomial(coeffs)
    assert p.coeffs.shape == (2, 2, 3)
    z = 2.0 + 1j
    assert np.allclose(polyval_matrix(p, z), coeffs[0] + z * coeffs[1])
    zs = np.array([0.0, 1.0, 1j])
    vals = polyval_matrix(p, zs)
    assert vals.shape == (3, 2, 3)
    assert np.allclose(vals[1], coeffs[0] + coeffs[1])


def test_matrix_poly_arithmetic():
    a = MatrixPolynomial(np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]))
    scaled = a.scale(np.array([0.0, 1.0]))  # multiply by z
    for z in (0.7, 1j, -2.0 + 0.5j):
        assert np.allclose(polyval_matrix(scaled, z), z * polyval_matrix(a, z))
    s = np.array([2.0, -1j, 0.5])
    padded = poly_times(s, a.coeffs, 6)
    assert padded.shape == (6, 2, 2) and np.all(padded[4:] == 0)
    for z in (0.7, 1j, -2.0 + 0.5j):
        assert np.allclose(polyval_matrix(MatrixPolynomial(padded), z),
                           (2.0 - 1j * z + 0.5 * z * z) * polyval_matrix(a, z))


def test_zero_polynomial_is_canonical():
    z = MatrixPolynomial(np.zeros((3, 2, 2))).trim()
    assert z.coeffs.shape[0] - 1 == 0
    assert z.coeffs.shape == (1, 2, 2)
    assert np.all(z.coeffs == 0)


def two_temporary_horner(coeffs, z, shape=()):
    """Horner's rule building two temporaries per step (the former loop)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape + shape, dtype=complex)
    zz = z[(...,) + (None,) * len(shape)]
    for c in coeffs[::-1]:
        out = out * zz + c
    return out


def test_in_place_horner_bit_identical():
    rng = np.random.default_rng(3)
    zs = rng.normal(size=257) * 10.0 + 1j * 10.0 ** rng.uniform(-3.0, 1.0, 257)
    matrix = rng.normal(size=(7, 3, 2)) + 1j * rng.normal(size=(7, 3, 2))
    for z in (zs, zs.reshape(257, 1), zs[5], 0.5 + 2j):
        assert np.array_equal(polyval_matrix(MatrixPolynomial(matrix), z),
                              two_temporary_horner(matrix, z, (3, 2)))
