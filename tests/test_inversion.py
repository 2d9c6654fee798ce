"""Stieltjes-Perron inversion in one pass against the former two-pass oracle:
integrate the imaginary part on each line Im z = eps, then extrapolate the
cumulative sums to eps = 0 with Neville's scheme.  Both are linear in the
evaluator's values, so they agree to rounding."""

import warnings

import numpy as np
import pytest

from matmom import (assemble_coefficients, canonical_solution, evaluate_transform,
                    find_admissible_unitary, invert_transform)
from matmom.nevanlinna import EPS_SCHEDULE

from conftest import indeterminate_states


def neville_of_cumsums(evaluator, grid, eps_schedule):
    cums = []
    for eps in eps_schedule:
        vals = np.asarray(evaluator(grid + 1j * eps), dtype=complex)
        imag = (vals - vals.conj().transpose(0, 2, 1)) / 2j
        steps = 0.5 * (imag[1:] + imag[:-1]) * np.diff(grid)[:, None, None]
        cum = np.concatenate([np.zeros((1,) + imag.shape[1:]), np.cumsum(steps, axis=0)])
        cums.append(cum / np.pi)
    tab, xs = list(cums), eps_schedule
    for j in range(1, len(xs)):
        for i in range(len(xs) - j):
            tab[i] = (xs[i] * tab[i + 1] - xs[i + j] * tab[i]) / (xs[i] - xs[i + j])
    return tab[0].transpose(0, 2, 1)


def canonical_case(state):
    nc = assemble_coefficients(state.rep, state.bases)
    F = find_admissible_unitary(nc.Xi)
    locs = [t for t, _ in canonical_solution(state.rep, state.bases, F).atoms]
    grid = np.arange(min(locs) - 0.5, max(locs) + 0.5, 1e-3)
    return (lambda z: evaluate_transform(nc, F, z)), grid


@pytest.fixture(scope="module")
def cases(ex21):
    n2 = next(s for s in indeterminate_states(7700) if s.rep.N == 2)
    return {
        "single pole": ((lambda z: (1.0 / (1.0 - z))[:, None, None]), np.arange(0.0, 2.0, 1e-3)),
        "ex21": canonical_case(ex21),
        "N=2": canonical_case(n2),
    }


@pytest.mark.parametrize("schedule", [EPS_SCHEDULE], ids=len)
@pytest.mark.parametrize("name", ["single pole", "ex21", "N=2"])
def test_matches_neville_of_cumsums(cases, name, schedule):
    evaluator, grid = cases[name]
    want = neville_of_cumsums(evaluator, grid, schedule)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "extrapolated distribution is not monotone")
        got = invert_transform(evaluator, grid)
    assert got.values.shape == want.shape
    scale = max(1.0, float(np.abs(want[-1]).max()))
    assert np.abs(got.values - want).max() <= 1e-12 * scale

