import json
from fractions import Fraction

import numpy as np
import pytest

from matmom import (MomentSequence, SolvabilityError, analyze, build_block_hankel,
                    check_solvable)
from matmom.solvability import HankelPair

from conftest import example21_matrices, moments_from_measure, random_measure, run_cli


def scalar_moments(*values, d=1):
    return MomentSequence.from_matrices(1, d, [np.array([[v]], dtype=float) for v in values])


def test_block_hankel_example21():
    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    h = build_block_hankel(ms)
    expected = np.array([
        [1 / 3, 0, 1 / 2, 0],
        [0, 1, 0, 1],
        [1 / 2, 0, 1, 0],
        [0, 1, 0, 1],
    ])
    assert np.abs(h.gamma_d - expected).max() == 0.0
    assert np.array_equal(h.gamma_hat, np.eye(2))
    assert np.array_equal(h.gamma_dm1, np.diag([1 / 3, 1.0]))
    assert check_solvable(h).solvable


def test_block_hankel_indexing_random():
    rng = np.random.default_rng(11)
    measure = random_measure(rng, 2, 3)
    ms = moments_from_measure(measure, 2, 2)
    h = build_block_hankel(ms)
    n = ms.N
    for i in range(ms.d + 1):
        for j in range(ms.d + 1):
            block = h.gamma_d[i * n:(i + 1) * n, j * n:(j + 1) * n]
            assert np.array_equal(block, ms.moments[i + j])
    for i in range(ms.d):
        for j in range(ms.d):
            block = h.gamma_hat[i * n:(i + 1) * n, j * n:(j + 1) * n]
            assert np.array_equal(block, ms.moments[i + j + 2])


def test_zero_moments_solvable():
    ms = scalar_moments(0.0, 0.0, 0.0)
    h = build_block_hankel(ms)
    assert np.all(h.gamma_d == 0) and np.all(h.gamma_hat == 0)
    report = check_solvable(h)
    assert report.solvable and report.scale == 1.0


def test_point_mass_at_zero_solvable():
    h = build_block_hankel(scalar_moments(1.0, 0.0, 0.0))
    assert np.array_equal(h.gamma_d, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(h.gamma_hat, np.array([[0.0]]))
    assert check_solvable(h).solvable


def test_kernel_inclusion_violation():
    # S_0 = 0 but S_2 = 1: no measure can produce these moments
    report = check_solvable(build_block_hankel(scalar_moments(0.0, 0.0, 1.0)))
    assert not report.solvable
    assert report.kernel_inclusion_defect > 0.5
    assert report.min_eigenvalue >= 0.0


def test_kernel_inclusion_direct_pair():
    # hand-built pair: kernel vector of gamma_dm1 survives through gamma_hat
    h = HankelPair(gamma_d=np.diag([0.0, 1.0]).astype(complex),
                   gamma_hat=np.array([[1.0 + 0j]]),
                   gamma_dm1=np.array([[0.0 + 0j]]))
    assert not check_solvable(h).solvable


def test_negated_diagonal_not_solvable():
    mats = example21_matrices()
    mats[0] = -mats[0]
    ms = MomentSequence.from_matrices(2, 1, mats)
    report = check_solvable(build_block_hankel(ms))
    assert not report.solvable and report.min_eigenvalue < 0
    with pytest.raises(SolvabilityError):
        analyze(ms)


@pytest.mark.parametrize("seed", range(6))
def test_oracle_instances_always_solvable(seed):
    rng = np.random.default_rng(100 + seed)
    n_dim = int(rng.integers(1, 4))
    d = int(rng.integers(1, 3))
    measure = random_measure(rng, n_dim, int(rng.integers(1, 7)))
    report = check_solvable(build_block_hankel(moments_from_measure(measure, n_dim, d)))
    assert report.solvable


# ---------------------------------------------------------------------------
# Wrong verdicts on exact-integer moments (ROADMAP item 13).  Unit atoms at integer
# points have integer moments, exact in a double, and d + 1 = 4 or more distinct atoms
# make Gamma_3 positive definite: the problem is solvable, r = 4 and indeterminate.
# The library decides both instances wrongly today; the markers come off with the
# fix (ROADMAP items 1 and 10), which strict=True enforces.
# ---------------------------------------------------------------------------

WRONG_DETERMINATE = (6, 8, 10, 12, 14)  # `inspect` says determinate, r = 3, exit 0
WRONG_UNSOLVABLE = (10, 11, 12, 13)     # `check` says not solvable, exit 2


def unit_atom_sums(locs, count):
    """The power sums sum_j t_j^n, n < count, of unit atoms at the integer locs."""
    return [sum(t ** n for t in locs) for n in range(count)]


def unit_atom_moments(locs, d=3):
    return scalar_moments(*map(float, unit_atom_sums(locs, 2 * d + 1)), d=d)


@pytest.mark.parametrize("locs", [WRONG_DETERMINATE, WRONG_UNSOLVABLE])
def test_unit_atom_hankel_is_exactly_positive_definite(locs):
    """Every pivot of Gaussian elimination of Gamma_3, in rational arithmetic, is positive,
    and every moment is below 2^53, so the library reads the exact data."""
    sums = unit_atom_sums(locs, 7)
    assert max(sums) < 2 ** 53
    rows = [[Fraction(sums[i + j]) for j in range(4)] for i in range(4)]
    for k in range(4):
        assert rows[k][k] > 0
        for i in range(k + 1, 4):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="smallest eigenvalue of Gamma_3 falls under rank_tol")
def test_five_integer_unit_atoms_are_indeterminate():
    state = analyze(unit_atom_moments(WRONG_DETERMINATE))
    assert (state.rep.r, state.determinate) == (4, False)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Gamma_0 = [1] is at the kernel cutoff rank_tol * 1e10")
def test_two_far_atoms_are_solvable(tmp_path):
    """Moments (1, 0, 1e10) of two atoms at -1e5 and 1e5, of weight 1/2 each: the
    problem is solvable, but check prints "solvable": false and exits 2."""
    path = tmp_path / "far.json"
    path.write_text('{"N": 1, "d": 1, "moments": [[[[1, 0]]], [[[0, 0]]], [[[1e10, 0]]]]}')
    proc = run_cli("check", str(path))
    assert (proc.returncode, json.loads(proc.stdout)["solvable"]) == (0, True)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the kernel half of the test reads a rounding artefact")
def test_four_integer_unit_atoms_are_solvable():
    assert check_solvable(build_block_hankel(unit_atom_moments(WRONG_UNSOLVABLE))).solvable
