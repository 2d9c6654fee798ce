import numpy as np
import pytest

from matmom import MatrixPolynomial
from matmom.matpoly import TRIM_REL_TOL, poly_times, poly_trim

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
    scaled = MatrixPolynomial(poly_times([0.0, 1.0], a.coeffs, 3)).trim()  # multiply by z
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


def textbook_poly_times(scalar, coeffs, length):
    """The loop over the scalar coefficients, whatever the lengths (the former poly_times)."""
    out = np.zeros((length,) + coeffs.shape[1:], dtype=complex)
    for i, c in enumerate(scalar):
        out[i: i + coeffs.shape[0]] += c * coeffs
    return out


def signed_zeros(rng, values, share=0.2):
    """values with about share of the real and of the imaginary parts set to +0.0 or -0.0."""
    values = np.array(values, dtype=complex)
    for part in (values.real, values.imag):
        mask = rng.random(values.shape) < share
        part[mask] = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)[mask]
    return values


@pytest.mark.parametrize("shorter", ["scalar", "matrix"])
def test_poly_times_equals_the_textbook_loop_bit_for_bit(shorter):
    """Looping over the matrix coefficients from last to first, when the scalar factor is
    longer, adds the same products in the same order: every byte agrees, -0.0 included."""
    rng = np.random.default_rng(11)
    for _ in range(400):
        short, long = sorted(rng.integers(1, 14, size=2).tolist())
        if shorter == "scalar":  # equal lengths loop over the scalar coefficients
            m, n = short, long
        else:
            n, m = short, max(long, short + 1)
        p, q = rng.integers(1, 6, size=2).tolist()
        coeffs = rng.normal(size=(n, p, q)) + 1j * rng.normal(size=(n, p, q))
        coeffs = signed_zeros(rng, coeffs * 10.0 ** rng.uniform(-6, 6, size=(n, p, q)))
        scalar = signed_zeros(rng, (rng.normal(size=m) + 1j * rng.normal(size=m))
                              * 10.0 ** rng.uniform(-6, 6, size=m))
        scalar = scalar.tolist() if rng.random() < 0.5 else scalar
        length = n + m - 1 + int(rng.integers(0, 3))
        assert poly_times(scalar, coeffs, length).tobytes() \
            == textbook_poly_times(scalar, coeffs, length).tobytes()


def textbook_poly_trim(coeffs):
    """The former poly_trim: np.nonzero over the magnitudes above TRIM_REL_TOL times the
    largest."""
    coeffs = np.asarray(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(mags > TRIM_REL_TOL * top)[0]
    return coeffs[: keep[-1] + 1].copy()


def tail_cases():
    """Magnitudes whose tails sit just above, at and just below TRIM_REL_TOL times the
    largest, in every position, and the all-zero input."""
    rng = np.random.default_rng(5)
    for top in (1.0, 3.7e-5, 2.5e8):
        cut = TRIM_REL_TOL * top
        for tail in (np.nextafter(cut, np.inf), cut, np.nextafter(cut, 0.0), 0.0):
            for size in range(1, 6):
                for where in range(size):
                    mags = rng.uniform(0.0, 1.0, size) * cut  # all at or below the cut
                    mags[where] = top
                    mags[-1] = tail if where != size - 1 else top
                    yield mags
    yield np.zeros(4)
    yield np.zeros(1)


def test_trims_keep_the_length_of_the_former_rule():
    """Exact phases keep every magnitude, so the tails sit exactly where tail_cases puts
    them; the largest |entry| of each coefficient decides, wherever it sits."""
    rng = np.random.default_rng(6)
    for mags in tail_cases():
        scalar = mags * rng.choice([1.0, -1.0, 1j, -1j], mags.size)
        assert poly_trim(scalar).tobytes() == textbook_poly_trim(scalar).tobytes()
        coeffs = rng.uniform(0.0, 1.0, (mags.size, 2, 3)) * scalar[:, None, None]
        coeffs[np.arange(mags.size), rng.integers(0, 2, mags.size),
               rng.integers(0, 3, mags.size)] = scalar
        kept = textbook_poly_trim(np.abs(coeffs).reshape(mags.size, -1).max(axis=1)).size
        assert MatrixPolynomial(coeffs).trim().coeffs.tobytes() == coeffs[:kept].tobytes()


def test_poly_trim_of_zeros_is_a_fresh_zero():
    assert poly_trim(np.array([-0.0, 0.0])).tobytes() == np.zeros(1, dtype=complex).tobytes()
    negative_zero = np.full((2, 1, 1), complex(-0.0, -0.0))
    assert MatrixPolynomial(negative_zero).trim().coeffs.tobytes() == negative_zero[:1].tobytes()


def test_trims_refuse_nan_as_before():
    """A NaN magnitude left nothing above the cut, so both trims raised IndexError."""
    for trim in (poly_trim, textbook_poly_trim):
        with pytest.raises(IndexError):
            trim(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(IndexError):
        MatrixPolynomial(np.array([[[0.0]], [[np.nan]]])).trim()
