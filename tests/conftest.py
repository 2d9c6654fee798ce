import numpy as np
import pytest

from matmom import (AtomicMeasure, MomentSequence, analyze, assemble_coefficients,
                    check_constant_admissible)
from matmom.errors import ParameterError
from matmom.nevanlinna import extension_matrix, random_unitary


def example21_matrices():
    return [np.diag([1.0 / 3.0, 1.0]), np.diag([0.5, 1.0]), np.eye(2)]


@pytest.fixture(scope="session")
def ex21_moments():
    return MomentSequence.from_matrices(2, 1, example21_matrices())


@pytest.fixture(scope="session")
def ex21(ex21_moments):
    return analyze(ex21_moments)


@pytest.fixture(scope="session")
def ex21_nc(ex21):
    return assemble_coefficients(ex21.rep, ex21.bases)


@pytest.fixture(scope="session")
def point_mass_state():
    ms = MomentSequence.from_matrices(1, 1, [np.array([[1.0]]), np.array([[0.0]]),
                                             np.array([[0.0]])])
    return ms, analyze(ms)


def random_measure(rng, n_dim, n_atoms, spread=2.5, min_gap=0.35):
    """Well-separated atoms with uniformly positive definite weights, so rank
    decisions stay far from the tolerance cutoffs.

    Raises ValueError when n_atoms atoms min_gap apart cannot fit in
    [-spread, spread], where rejection sampling would never end.
    """
    if (n_atoms - 1) * min_gap > 2 * spread:
        raise ValueError(f"{n_atoms} atoms {min_gap} apart do not fit in [-{spread}, {spread}]")
    while True:
        t = np.sort(rng.uniform(-spread, spread, n_atoms))
        if n_atoms == 1 or np.diff(t).min() >= min_gap:
            break
    atoms = []
    for loc in t:
        g = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        w = g @ g.conj().T / n_dim + 0.15 * np.eye(n_dim)
        atoms.append((loc, w))
    return AtomicMeasure.from_atoms(atoms)


def moments_from_measure(measure, n_dim, d):
    return MomentSequence.from_matrices(n_dim, d, measure.moments(2 * d + 1, dim=n_dim))


def indeterminate_states(base_seed):
    """Analyses of four random indeterminate instances, (N, d) = (2, 1), (2, 2),
    (3, 1) and (3, 2), with delta = 1, 2 and 3 among them."""
    states = []
    for seed, (n_dim, d, n_atoms) in enumerate([(2, 1, 4), (2, 2, 5), (3, 1, 4), (3, 2, 5)]):
        measure = random_measure(np.random.default_rng(base_seed + seed), n_dim, n_atoms)
        state = analyze(moments_from_measure(measure, n_dim, d))
        assert not state.determinate
        states.append(state)
    return states


def upper_points(rng, n):
    """n points of the upper half-plane, Re z in [-3, 3], Im z from 1e-2 to 10."""
    return rng.uniform(-3.0, 3.0, n) + 1j * 10.0 ** rng.uniform(-2.0, 1.0, n)


def scalar_only(param):
    """The callable param refusing array arguments, so that evaluate_transform
    samples it one point at a time."""
    def call(w):
        if np.ndim(w):
            raise TypeError("scalar argument expected")
        return param(w)
    return call


def pick_parameter(rng, state, nc, min_fixed_dist=0.1, tries=48):
    """Admissible unitary whose extension eigenvalues keep away from 1.

    Extensions with near-fixed points fling atoms far out and amplify weight
    roundoff, so property tests stay away from that boundary.
    """
    for k in range(tries):
        if nc.delta == 1:
            cand = np.array([[np.exp(1j * (0.37 + 0.61 * k))]])
        else:
            cand = random_unitary(rng, nc.delta)
        if not check_constant_admissible(cand, nc.Xi):
            continue
        eigs = np.linalg.eigvals(extension_matrix(state.bases, cand))
        if np.abs(eigs - 1.0).min() < min_fixed_dist:
            continue
        return cand
    raise ParameterError("no well-separated admissible unitary found")


# ---------------------------------------------------------------------------
# Closed forms for the golden 2x2 instance (d=1, diagonal moments 1/3,1 / 1/2,1 / 1,1)
# ---------------------------------------------------------------------------

def golden_k(z):
    return (1 - 1j) * ((0.5 - 0.75j) * z - 0.75 + 1.5j) * (z - 1)


def golden_B(z):
    return -0.5 * (1 + 1j) * (z * z + 1) * (z - 1) * np.array([[1.0], [0.0]])


def golden_C(z):
    return (1 - 1j) * (z - 1) * (-z + 1j) * ((-0.5 - 0.75j) * z + 0.75 + 1.5j) * np.ones((1, 1))


def golden_D(z):
    return -0.5 * (1 + 1j) * (z - 1) * (z - 1j) * np.array([[1.0, 0.0]])


def golden_transform(z, f_val):
    """Full transform of the golden instance for a scalar parameter value.

    The parameter-dependent term carries a 1/(2i) factor; it drops out of
    every parameter-independent entry and is cross-validated at 1e-16
    against the resolvent path.
    """
    p = (0.5 - 0.75j) * z - 0.75 + 1.5j
    q = (-0.5 - 0.75j) * z + 0.75 + 1.5j
    base = np.array([
        [(-1.0 / 3.0) * (z - (9 - 32j) / 26) / ((z + 1j) * (z - (3.0 / 13.0) * (8 - 1j))), 0.0],
        [0.0, 1.0 / (1.0 - z)],
    ], dtype=complex)
    extra = (1.0 / (2j * (z + 1j) * p)) * f_val / ((z + 1j) * p + (-z + 1j) * q * f_val)
    out = base.copy()
    out[0, 0] += extra
    return out


def golden_w_tilde(lam):
    return (lam + 1j) * ((-3 - 2j) * lam + 6 + 3j) / ((lam - 1j) * ((-3 + 2j) * lam + 6 - 3j))


def golden_shift_matrix(lam):
    return np.diag([np.sqrt(lam * lam - 3 * lam + 3), 1 - lam])
