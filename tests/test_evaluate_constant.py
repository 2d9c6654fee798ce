"""The constant-parameter transform as the compressed resolvent of U_F: one eig
of U_F per call, checked against the pivot path that a callable F takes and
against the resolvent of the self-adjoint extension."""

import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import matmom.nevanlinna as nev
from matmom import (MomentSequence, analyze, assemble_coefficients, evaluate_transform,
                    find_admissible_unitary)
from matmom.errors import EvaluationError, InputError, ParameterError, RankError
from matmom.moment_model import DEFAULT_TOL
from matmom.nevanlinna import transform_via_resolvent

from conftest import indeterminate_states, run_cli, scalar_only, upper_points


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


def test_constant_makes_one_eig(states, monkeypatch):
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
    z = np.array([0.5 + 1j, 2j])
    with pytest.raises(RankError, match="eigenvector matrix of U_F is ill-conditioned"):
        nev._colligation_transform(bad, F, z, DEFAULT_TOL)
    assert np.array_equal(evaluate_transform(bad, F, z), evaluate_transform(bad, lambda w: F, z))
    # the same matrix with distinct eigenvalues is diagonalised
    fine = replace(ex21_nc, a0=np.array([[0.5, 1.0], [0.0, -0.5]], dtype=complex))
    assert np.isfinite(evaluate_transform(fine, F, z)).all()


def test_far_points_refused(ex21, ex21_nc):
    """Beyond |z - i| = FAR_LIMIT the squares of z would overflow to NaN: a constant
    and a callable F raise InputError there, before any warning, and at 1e100j,
    well inside, the value is finite and equals the resolvent's."""
    F = find_admissible_unitary(ex21_nc.Xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for param in (F, lambda w: F):
            for z in (1.4e154j, 1e200 + 1j, np.array([2j, 1e200 + 1j])):
                with pytest.raises(InputError, match=r"\|z - i\| <= 1e\+150"):
                    evaluate_transform(ex21_nc, param, z)
            got = evaluate_transform(ex21_nc, param, 1e100j)
            want = transform_via_resolvent(ex21.rep, ex21.bases, F, 1e100j)
            assert np.isfinite(got).all()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_non_finite_points_refused(ex21_nc):
    """A NaN in the real or the imaginary part of z is outside the domain: a constant
    and a callable F raise InputError("z must be finite") at the first such
    point, before any warning, and a domain error at an earlier point still comes
    first."""
    F = find_admissible_unitary(ex21_nc.Xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for param in (F, lambda w: F):
            for bad in (complex(np.nan, 1.0), complex(1.0, np.nan), complex(np.inf, 1.0)):
                for z in (bad, np.array([2j, bad, -1j])):
                    with pytest.raises(InputError, match="^z must be finite$"):
                        evaluate_transform(ex21_nc, param, z)
                with pytest.raises(InputError, match="upper half-plane"):
                    evaluate_transform(ex21_nc, param, np.array([2j, -1j, bad]))
    assert nev.outside_domain([complex(np.nan, 1.0), complex(1.0, np.nan), 2j]).tolist() \
        == [True, True, False]


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
    """At z = i(1+h) the pivot path loses about eps/h^2 to the cancellation of the
    bracket against psi; the pole sum of the constant path has no such bracket."""
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


@pytest.mark.parametrize("h", [1e-6, 1e-7, 1e-8, 1e-9])
def test_near_i_matches_resolvent(ex21, ex21_nc, h):
    """The partial fractions of the constant path cancel the double pole at i
    analytically, so points next to i keep full accuracy (the golden instance,
    F = 1, values of size 0.71)."""
    F = np.array([[1.0]])
    z = 1j * (1.0 + h)
    want = transform_via_resolvent(ex21.rep, ex21.bases, F, z)
    assert np.abs(evaluate_transform(ex21_nc, F, z) - want).max() <= 1e-12 * max(
        1.0, np.abs(want).max())


def pivot_path_calls(monkeypatch):
    calls = []
    pivot = nev._pivot_transform

    def counted(*args):
        calls.append(args[2].size)
        return pivot(*args)

    monkeypatch.setattr(nev, "_pivot_transform", counted)
    return calls


def test_small_eigenvalues_take_pole_sum(states, monkeypatch):
    """No term of the pole sum divides by an eigenvalue mu of U_F, so parameters that
    put min |mu| at 0 (F = 0) or near it are summed like any other and agree with
    the callable path."""
    rng = np.random.default_rng(26)
    calls = pivot_path_calls(monkeypatch)
    smallest = []
    for state in states:
        nc = assemble_coefficients(state.rep, state.bases)
        unitary = find_admissible_unitary(nc.Xi)
        z = upper_points(rng, 128)
        for scale in (0.0, 1e-12, 1e-6, 1e-2):
            F = scale * unitary
            smallest.append(np.abs(np.linalg.eigvals(nev.extended_colligation(nc.u, F))).min())
            want = evaluate_transform(nc, lambda w, F=F: F, z)
            calls.clear()
            got = evaluate_transform(nc, F, z)
            assert calls == []
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (nc.delta, scale)
    assert min(smallest) <= 1e-15 and max(smallest) >= 1e-3


def test_eigenvalues_of_a0_near_zero(monkeypatch):
    """With a0 = 0 (moments 1, 0, 1) and F = eps, U_F = [[0, W eps], [Chat, T eps]] has
    eigenvalues of size sqrt(eps) whose residues do not vanish with them.  The pole
    sum handles them; only the Jordan block of F = 0 is refused by kappa(V) and
    takes the pivot path."""
    state = symmetric_state()
    nc = assemble_coefficients(state.rep, state.bases)
    z = upper_points(np.random.default_rng(27), 64)
    calls = pivot_path_calls(monkeypatch)
    for eps in (1e-2, 1e-4, 1e-6, 0.0):
        F = np.array([[eps]])
        want = evaluate_transform(nc, lambda w: F, z)
        calls.clear()
        got = evaluate_transform(nc, F, z)
        assert calls == ([z.size] if eps == 0.0 else []), eps
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), eps


def test_pole_screen_matches_every_pole(ex21_nc):
    """_check_poles tests only the points that a bound on Im z leaves; it must raise
    exactly where the distance to some pole, over every point, is within the
    cutoff, and at the first such point."""
    tol = DEFAULT_TOL
    rng = np.random.default_rng(28)
    F = find_admissible_unitary(ex21_nc.Xi)
    mu = np.linalg.eigvals(nev.extended_colligation(ex21_nc.u, F))
    atoms = (1j * (mu + 1.0) / (mu - 1.0)).real
    outcomes = []
    for expand in (1.0, 1.0 + 1e-9, 1.5):
        m = mu * expand
        for _ in range(20):
            z = rng.choice(atoms) + rng.normal(scale=1e-9, size=6) \
                + 1j * 10.0 ** rng.uniform(-13, -8, size=6)
            zp, zm = z + 1j, z - 1j
            bound = tol.inv_tol * np.maximum(1.0, np.abs(zp) + np.abs(zm))
            hit = np.abs(zp[:, None] - zm[:, None] * m).min(axis=1) <= bound
            outcomes.append(hit.any())
            if hit.any():
                first = re.escape(str(z[np.argmax(hit)]))
                with pytest.raises(EvaluationError, match=rf"singular pivot at z={first}"):
                    nev._check_poles(z, m, tol)
            else:
                nev._check_poles(z, m, tol)
    assert any(outcomes) and not all(outcomes)
