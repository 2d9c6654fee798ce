"""The constant-parameter transform as the compressed resolvent of U_F: one eig
of U_F per call, checked against the pivot path that a callable F takes and
against the resolvent of the self-adjoint extension."""

import json
from dataclasses import replace

import numpy as np
import pytest

import matmom.nevanlinna as nev
from matmom import (MomentSequence, analyze, assemble_coefficients, evaluate_transform,
                    find_admissible_unitary)
from matmom.errors import ParameterError, RankError
from matmom.moment_model import DEFAULT_TOL
from matmom.nevanlinna import transform_via_resolvent

from conftest import indeterminate_states, scalar_only, upper_points
from test_cli import run_cli


def constant_parameters(nc, rng):
    unitary = find_admissible_unitary(nc.Xi)
    g = rng.normal(size=(nc.delta, nc.delta)) + 1j * rng.normal(size=(nc.delta, nc.delta))
    yield "unitary", unitary
    yield "contraction", 0.6 * unitary
    yield "generic contraction", 0.9 * g / np.linalg.norm(g, 2)
    yield "zero", np.zeros((nc.delta, nc.delta))


@pytest.fixture(scope="module")
def states(ex21):
    return [ex21] + indeterminate_states(7700)


def test_constant_matches_pivot_path(states):
    rng = np.random.default_rng(21)
    deltas = set()
    for state in states:
        nc = assemble_coefficients(state.rep, state.bases)
        deltas.add(nc.delta)
        z = upper_points(rng, 256)
        for name, F in constant_parameters(nc, rng):
            got = evaluate_transform(nc, F, z)
            want = evaluate_transform(nc, lambda w, F=F: F, z)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (nc.delta, name)
            assert np.abs(evaluate_transform(nc, F, z[3]) - want[3]).max() \
                <= 1e-12 * np.abs(want).max(), (nc.delta, name)
    assert deltas == {1, 2, 3}


def test_unitary_matches_extension_resolvent(states):
    rng = np.random.default_rng(22)
    for state in states:
        nc = assemble_coefficients(state.rep, state.bases)
        F = find_admissible_unitary(nc.Xi)
        z = upper_points(rng, 64)
        want = transform_via_resolvent(state.rep, state.bases, F, z)
        got = evaluate_transform(nc, F, z)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), nc.delta


def test_constant_makes_one_eig_and_no_jacobi_svd(states, monkeypatch):
    calls = []
    eig = np.linalg.eig

    def counted(m):
        calls.append(m.shape)
        return eig(m)

    rng = np.random.default_rng(23)
    for state in states:
        nc = assemble_coefficients(state.rep, state.bases)
        monkeypatch.setattr(np.linalg, "eig", counted)
        for _, F in constant_parameters(nc, rng):
            calls.clear()
            evaluate_transform(nc, F, upper_points(rng, 100))
            assert calls == [(nc.tau + nc.delta,) * 2]
        monkeypatch.undo()


def test_defective_extension_falls_back_to_pivot_path(ex21_nc):
    """With F = 0, U_F = [[a0, 0], [Chat, 0]] keeps the 2x2 Jordan block of a0: its
    eig is refused, and the constant parameter takes the pivot path instead."""
    bad = replace(ex21_nc, a0=np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    F = np.zeros((1, 1))
    with pytest.raises(RankError, match="eigenvector matrix of U_F is ill-conditioned"):
        nev._diagonalize(nev.extended_colligation(bad.u, F), "U_F", DEFAULT_TOL)
    z = np.array([0.5 + 1j, 2j])
    assert np.array_equal(evaluate_transform(bad, F, z), evaluate_transform(bad, lambda w: F, z))
    # the same matrix with distinct eigenvalues is diagonalised
    fine = replace(ex21_nc, a0=np.array([[0.5, 1.0], [0.0, -0.5]], dtype=complex))
    assert np.isfinite(evaluate_transform(fine, F, z)).all()


def symmetric_state():
    """Moments (1, 0, 1): atoms at -1 and 1 of weight 1/2, indeterminate with tau = 1
    and a0 = 0, so U_F for F = 0 is nilpotent and not diagonalisable."""
    return analyze(MomentSequence.from_matrices(1, 1, [np.eye(1), np.zeros((1, 1)), np.eye(1)]))


def test_central_solution_with_singular_a0():
    state = symmetric_state()
    nc = assemble_coefficients(state.rep, state.bases)
    assert np.abs(nc.a0).max() == 0.0
    z = upper_points(np.random.default_rng(25), 64)
    F = np.zeros((1, 1))
    want = evaluate_transform(nc, lambda w: F, z)
    assert np.abs(evaluate_transform(nc, F, z) - want).max() <= 1e-12 * np.abs(want).max()
    unitary = find_admissible_unitary(nc.Xi)
    want = transform_via_resolvent(state.rep, state.bases, unitary, z)
    assert np.abs(evaluate_transform(nc, unitary, z) - want).max() <= 1e-10 * np.abs(want).max()


def test_cli_central_solution_with_singular_a0(tmp_path):
    path = tmp_path / "symmetric.json"
    path.write_text('{"N": 1, "d": 1, "moments": [[[[1, 0]]], [[[0, 0]]], [[[1, 0]]]]}')
    proc = run_cli("evaluate", str(path), "--F", "[[0,0]]", "--z=2j", "--z=0.5+0.25j")
    assert proc.returncode == 0, proc.stdout
    got = np.array([v["value"] for v in json.loads(proc.stdout)["values"]])
    state = symmetric_state()
    nc = assemble_coefficients(state.rep, state.bases)
    want = evaluate_transform(nc, lambda w: np.zeros((1, 1)), np.array([2j, 0.5 + 0.25j]))
    want = np.stack([want.real, want.imag], axis=-1)
    assert np.abs(got.reshape(want.shape) - want).max() <= 1e-12 * np.abs(want).max()


def test_near_i_no_worse_than_pivot_path(ex21, ex21_nc):
    """At z = i(1+h) both paths lose about eps/h^2 to the cancellation of the bracket
    against psi; adding psi inside the bracket keeps the constant path at the pivot
    path's error."""
    F = np.array([[1.0]])
    z = 1j * (1.0 + 1e-4)
    want = transform_via_resolvent(ex21.rep, ex21.bases, F, z)
    err = np.abs(evaluate_transform(ex21_nc, F, z) - want).max()
    err_pivot = np.abs(evaluate_transform(ex21_nc, lambda w: F, z) - want).max()
    assert err <= max(2.0 * err_pivot, 1e-12)
    assert err <= 1e-7


@pytest.mark.parametrize("block", [1024, 3])
@pytest.mark.parametrize("value, shape", [
    (lambda w, i: np.eye(i + 1) if i in (1, 2) else np.eye(1), "(2, 2)"),  # ragged; first bad
    (lambda w, i: np.eye(2) if i == 3 else np.eye(1), "(2, 2)"),           # bad in a later block
    (lambda w, i: np.zeros((1, 2)), "(1, 2)"),                             # one wrong shape
    (lambda w, i: 0.5, "()"),                                              # scalars
])
def test_mis_shaped_callable_rejected(ex21_nc, monkeypatch, block, value, shape):
    monkeypatch.setattr(nev, "SAMPLE_BLOCK", block)
    z = np.array([0.5 + 1j, -1.0 + 2j, 0.3 + 0.1j, 2.0 + 0.5j])
    index = {complex(w): i for i, w in enumerate(z)}
    with pytest.raises(ParameterError) as err:
        evaluate_transform(ex21_nc, lambda w: value(w, index[complex(w)]), z)
    assert str(err.value) == f"parameter must be 1 x 1, got shape {shape}"


def test_callable_values_independent_of_block(states, monkeypatch):
    """A callable that refuses arrays is sampled SAMPLE_BLOCK points at a time, with
    the values of one whole-array call of its broadcasting form."""
    rng = np.random.default_rng(24)
    nc = assemble_coefficients(states[-1].rep, states[-1].bases)
    unitary = find_admissible_unitary(nc.Xi)
    schur = lambda w: ((w - 1j) / (w + 1j)) * unitary
    param = scalar_only(schur)
    z = upper_points(rng, 100)
    whole = evaluate_transform(nc, param, z)
    assert np.array_equal(evaluate_transform(nc, schur, z), whole)
    monkeypatch.setattr(nev, "SAMPLE_BLOCK", 7)
    assert np.array_equal(evaluate_transform(nc, param, z), whole)
