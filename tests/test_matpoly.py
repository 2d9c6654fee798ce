import numpy as np

from matmom import MatrixPolynomial
from matmom.matpoly import poly_from_samples, poly_trim, polyval


def test_polyval_lowest_first():
    coeffs = np.array([1.0, 2.0, 3.0])  # 1 + 2z + 3z^2
    assert polyval(coeffs, 2.0) == 1 + 4 + 12
    zs = np.array([0.0, 1j])
    assert np.allclose(polyval(coeffs, zs), [1.0, 1 + 2j - 3])


def test_poly_from_samples_recovers_coefficients():
    coeffs = np.array([0.5 - 1j, 0.0, 2.0, -1j])
    rec = poly_from_samples(lambda z: polyval(coeffs, z), 3)
    assert np.abs(rec - coeffs).max() < 1e-12


def test_poly_trim():
    assert np.array_equal(poly_trim(np.array([1.0, 2.0, 0.0])), [1.0, 2.0])
    assert np.array_equal(poly_trim(np.zeros(4)), [0.0])


def test_matrix_poly_eval_and_shape():
    coeffs = np.zeros((2, 2, 3), dtype=complex)
    coeffs[0] = np.arange(6).reshape(2, 3)
    coeffs[1] = np.eye(2, 3)
    p = MatrixPolynomial(coeffs)
    assert p.shape == (2, 3) and p.degree == 1
    z = 2.0 + 1j
    assert np.allclose(p(z), coeffs[0] + z * coeffs[1])
    zs = np.array([0.0, 1.0, 1j])
    vals = p(zs)
    assert vals.shape == (3, 2, 3)
    assert np.allclose(vals[1], coeffs[0] + coeffs[1])


def test_matrix_poly_from_samples_matches_pointwise():
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    truth = MatrixPolynomial(coeffs)
    rec = MatrixPolynomial.from_samples(truth, 5, (2, 2))  # loose degree bound
    assert rec.degree == 3
    for z in (0.3 + 0.2j, -1.5 + 1j, 2j):
        assert np.abs(rec(z) - truth(z)).max() < 1e-10


def test_matrix_poly_arithmetic():
    a = MatrixPolynomial(np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]))
    scaled = a.scale(np.array([0.0, 1.0]))  # multiply by z
    for z in (0.7, 1j, -2.0 + 0.5j):
        assert np.allclose(scaled(z), z * a(z))


def test_zero_polynomial_is_canonical():
    z = MatrixPolynomial(np.zeros((3, 2, 2))).trim()
    assert z.degree == 0
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
    scalar = rng.normal(size=9) + 1j * rng.normal(size=9)
    matrix = rng.normal(size=(7, 3, 2)) + 1j * rng.normal(size=(7, 3, 2))
    for z in (zs, zs.reshape(257, 1), zs[5], 0.5 + 2j):
        assert np.array_equal(MatrixPolynomial(matrix)(z), two_temporary_horner(matrix, z, (3, 2)))
    assert np.array_equal(polyval(scalar, zs), two_temporary_horner(scalar, zs))
    assert np.array_equal(polyval(scalar, zs.reshape(257, 1)),
                          two_temporary_horner(scalar, zs.reshape(257, 1)))
    # a scalar z now runs the same array loop as an array of points; the former
    # loop used numpy's scalar arithmetic there, which may round differently
    for z in zs[:16]:
        assert polyval(scalar, z) == polyval(scalar, np.array([z]))[0]
        scale = abs(polyval(np.abs(scalar), abs(z)))
        assert abs(polyval(scalar, z) - two_temporary_horner(scalar, z)) <= 1e-14 * scale
