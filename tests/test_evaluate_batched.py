"""The points-last kernels of the callable-parameter path and the batched
pole-residue evaluation against LAPACK.  The contraction screen, the
singular-pivot verdict and the unpivoted LU are checked against np.linalg.svd
and np.linalg.solve; the transform against one solve with (z+i) I - (z-i) a0
and one SVD and one solve of the pivot per point, at points the colligation
certifies and at points it does not; the whole-array call of a callable
parameter against the loop of one call per point."""

import warnings

import numpy as np
import pytest

import matmom.nevanlinna as nev
from matmom import assemble_coefficients, evaluate_transform, find_admissible_unitary
from matmom.errors import EvaluationError, ParameterError
from matmom.moment_model import DEFAULT_TOL

from conftest import (indeterminate_states, polyval_matrix, scalar_only, upper_points,
                      with_blocks)

BOUND = 1.0 + DEFAULT_TOL.psd_tol
INV_TOL = DEFAULT_TOL.inv_tol


def reference_transform(nc, F, z, tol=DEFAULT_TOL):
    """(values, singular) with LAPACK solves and one LAPACK SVD per point."""
    flat = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    if callable(F):
        f_vals = np.stack([np.asarray(F(w), dtype=complex).reshape(nc.delta, nc.delta)
                           for w in flat])
    else:
        f_vals = np.broadcast_to(np.asarray(F, dtype=complex), (flat.size, nc.delta, nc.delta))
    n_dim, rho = nc.N, nc.rho
    rhs = np.zeros((nc.tau, n_dim + nc.delta), dtype=complex)
    rhs[:rho, :n_dim] = nc.K
    rhs[:, n_dim:] = nc.W
    values, singular = [], []
    for w, f in zip(flat, f_vals):
        x = np.linalg.solve((w + 1j) * np.eye(nc.tau) - (w - 1j) * nc.a0, rhs)
        a = (w + 1j) * nc.K.conj().T @ x[:rho, :n_dim] + polyval_matrix(nc.psi, w)
        b = -(w * w + 1.0) * nc.K.conj().T @ x[:rho, n_dim:]
        c = (1j - w) * (nc.T + (w - 1j) * nc.Chat @ x[:, n_dim:])
        d = -(w - 1j) * nc.Chat @ x[:, :n_dim]
        pivot = (w + 1j) * np.eye(nc.delta) + c @ f
        svals = np.linalg.svd(pivot, compute_uv=False)
        singular.append(svals[-1] <= tol.inv_tol * max(1.0, svals[0]))
        if not singular[-1]:
            values.append(2j / (w * w + 1.0) ** 2 * (a + b @ f @ np.linalg.solve(pivot, d)))
    singular = np.array(singular)
    if singular.any():
        return None, singular
    return np.stack(values), singular


def random_stack(rng, n, k, svals=None):
    """n random complex k x k matrices; with svals, (k,) or (n, k), U diag(svals) V^H
    for Haar-like U, V."""
    g = rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k))
    if svals is None:
        return g
    u = np.linalg.qr(g)[0]
    v = np.linalg.qr(rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k)))[0]
    return (u * np.asarray(svals)[..., None, :]) @ np.swapaxes(v.conj(), 1, 2)


def kernel_cases(rng, n, k):
    """(name, stack, expected singular verdict or None) for one n and k."""
    yield "random", random_stack(rng, n, k), None
    deficient = random_stack(rng, n, k)
    mix = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
    deficient[:, :, -1] = deficient[:, :, :-1] @ mix  # exactly rank-deficient; zero for k = 1
    yield "rank-deficient", deficient, True
    # sigma_max 0.5 keeps every ratio a factor 2 or more from the cutoff
    # inv_tol * max(1, sigma_max), so no verdict hinges on rounding
    for ratio, top in ((1e-9, 0.5), (1e-9, 40.0), (1e-10, 0.5), (1e-11, 0.5), (1e-11, 40.0)):
        svals = top * np.geomspace(1.0, ratio, k)
        yield (f"ratio {ratio} top {top}", random_stack(rng, n, k, svals),
               svals[-1] <= INV_TOL * max(1.0, top))


def points_last(stack):
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


def contraction_cases(rng, n, k):
    """(name, stack) for one n and k: generic stacks, and stacks whose top singular
    value lies 1e-12 to 1e-7 relative above or below BOUND, a random side per matrix,
    for k >= 2 also with that value carried by one off-diagonal entry."""
    yield "random", random_stack(rng, n, k)
    yield "random contraction", random_stack(rng, n, k, rng.uniform(0.0, 1.0, (n, k)))
    yield "huge entries", 1e200 * random_stack(rng, n, k)
    for low, high in ((-12, -10), (-10, -7)):
        rel = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(low, high, n)
        svals = (BOUND * (1.0 + rel))[:, None] * np.geomspace(1.0, 0.3, k)
        yield f"top within 1e{low} to 1e{high} of the bound", random_stack(rng, n, k, svals)
    if k >= 2:
        rel = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, -7, n)
        svals = (BOUND * (1.0 + rel))[:, None] * np.geomspace(1.0, 0.3, k)
        yield "norm on one off-diagonal entry", off_diagonal_stack(rng, svals)


def off_diagonal_stack(rng, svals):
    """U diag(svals) V^H for near-identity unitaries U, V, with rows permuted by a
    random pi and columns by pi shifted one place: each matrix keeps its singular
    values, and its top one sits on the off-diagonal entry (pi_0, pi_1), with the
    complex off-diagonal entries of f^H f that the screen's update reads."""
    n, k = svals.shape
    near = [np.linalg.qr(np.eye(k) + 0.05 * random_stack(rng, n, k))[0] for _ in range(2)]
    f = (near[0] * svals[:, None, :]) @ np.swapaxes(near[1].conj(), 1, 2)
    rows = np.argsort(rng.uniform(size=(n, k)), axis=1)
    out = np.empty_like(f)
    out[np.arange(n)[:, None, None], rows[:, :, None], np.roll(rows, -1, axis=1)[:, None, :]] = f
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 7, 4096])
def test_solve_pivots_matches_lapack(n, k):
    """The singular-pivot verdict on the stacks the stacked Jacobi SVD was checked
    on before the certificate replaced it.  With each pivot's own smallest singular
    value as its bound, _solve_pivots certifies no pivot that LAPACK's rule calls
    singular, so it raises at the first such pivot; the rest it solves with a
    backward error of at most 1e-13."""
    rng = np.random.default_rng(1000 * k + n)
    z = np.arange(n) + 1.0 + 2j
    for name, a, expected in kernel_cases(rng, n, k):
        ref = np.linalg.svd(a, compute_uv=False)
        singular = ref[:, -1] <= INV_TOL * np.maximum(1.0, ref[:, 0])
        if expected is not None:
            assert (singular == expected).all(), name
        b = rng.normal(size=(n, k, 3)) + 1j * rng.normal(size=(n, k, 3))
        if singular.any():
            first = np.flatnonzero(singular)[0] + 1
            with pytest.raises(EvaluationError, match=rf"singular pivot at z=\({first}\+2j\)"):
                nev._solve_pivots(points_last(a), points_last(b), ref[:, -1], z, DEFAULT_TOL)
        ok = ~singular
        x = np.moveaxis(nev._solve_pivots(points_last(a[ok]), points_last(b[ok]),
                                          ref[ok, -1], z[ok], DEFAULT_TOL), -1, 0)
        residual = np.abs(a[ok] @ x - b[ok]).max(axis=(1, 2))
        scale = ref[ok, 0] * np.abs(x).max(axis=(1, 2))
        assert (residual <= 1e-13 * scale).all(), name


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 7, 4096])
def test_contraction_verdict_matches_lapack(n, k):
    rng = np.random.default_rng(1000 * k + n)
    for name, stack in contraction_cases(rng, n, k):
        want = np.linalg.svd(stack, compute_uv=False)[:, 0] > BOUND
        assert np.array_equal(nev._expanding_points(points_last(stack), BOUND), want), name


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 7, 4096])
def test_lu_solve_matches_lapack(n, k):
    """Certified pivots c (I - E) with ||E|| < 0.9 against np.linalg.solve."""
    rng = np.random.default_rng(2000 * k + n)
    scale = rng.normal(size=n) + 1j * rng.normal(size=n)
    a = scale[:, None, None] * (np.eye(k) - random_stack(rng, n, k, rng.uniform(0.0, 0.9, (n, k))))
    b = rng.normal(size=(n, k, 3)) + 1j * rng.normal(size=(n, k, 3))
    want = np.linalg.solve(a, b)
    got = np.moveaxis(nev._lu_solve(points_last(a), points_last(b)), -1, 0)
    assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * np.abs(want).max(axis=(1, 2))).all()


def parameters(nc, rng):
    unitary = find_admissible_unitary(nc.Xi)
    g = rng.normal(size=(nc.delta, nc.delta)) + 1j * rng.normal(size=(nc.delta, nc.delta))
    yield "unitary", unitary
    yield "contraction", 0.6 * unitary
    yield "generic contraction", 0.9 * g / np.linalg.norm(g, 2)
    yield "schur", lambda z: ((z - 1j) / (z + 1j)) * unitary


def test_transform_matches_lapack_reference(ex21):
    rng = np.random.default_rng(11)
    deltas = set()
    for state in [ex21] + indeterminate_states(7300):
        nc = assemble_coefficients(state.rep, state.bases)
        deltas.add(nc.delta)
        z = rng.uniform(-3.0, 3.0, 512) + 1j * 10.0 ** rng.uniform(-2.0, 1.0, 512)
        for name, F in parameters(nc, rng):
            got = evaluate_transform(nc, F, z)
            want, singular = reference_transform(nc, F, z)
            assert not singular.any()
            assert got.shape == (512, nc.N, nc.N)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (nc.delta, name)
            one = evaluate_transform(nc, F, z[7])
            assert one.shape == (nc.N, nc.N)
            assert np.abs(one - want[7]).max() <= 1e-12 * np.abs(want).max()
    assert deltas == {1, 2, 3}


def test_callable_non_contraction_at_one_point_rejected(ex21_nc):
    z = np.array([0.5 + 1j, -1.0 + 2j, 0.3 + 0.1j, 2.0 + 0.5j])
    param = lambda w: np.array([[1.5 if w == z[2] else 0.5]])
    with pytest.raises(ParameterError, match="not a contraction"):
        evaluate_transform(ex21_nc, param, z)
    evaluate_transform(ex21_nc, param, z[[0, 1, 3]])


def test_singular_pivot_raised_at_first_bad_point(ex21_nc):
    """T is replaced so that the pivot with F = 1, (z+i) + (i-z)(T + (z-i) Chat M(z)^{-1} W)
    with M(z) = (z+i) I - (z-i) a0, vanishes at z0."""
    nc, z0 = ex21_nc, 0.25 + 0.5j
    m0 = (z0 + 1j) * np.eye(nc.tau) - (z0 - 1j) * nc.a0
    t_bad = (z0 + 1j) / (z0 - 1j) - (z0 - 1j) * nc.Chat @ np.linalg.solve(m0, nc.W)
    bad = with_blocks(nc, T=t_bad)
    z = np.array([1.0 + 1j, z0, -0.5 + 2j, z0])
    _, singular = reference_transform(bad, np.eye(1), z)
    assert singular.tolist() == [False, True, False, True]
    with pytest.raises(EvaluationError, match=r"singular pivot at z=\(0\.25\+0\.5j\)"):
        evaluate_transform(bad, np.eye(1), z)
    got = evaluate_transform(bad, np.eye(1), z[[0, 2]])
    want, _ = reference_transform(bad, np.eye(1), z[[0, 2]])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_callable_singular_pivot_raised_at_first_bad_point(ex21_nc):
    """The singular pivot of the test above, reached through a callable F = 1: the
    certificate refuses z0 and LAPACK's verdict raises there."""
    nc, z0 = ex21_nc, 0.25 + 0.5j
    m0 = (z0 + 1j) * np.eye(nc.tau) - (z0 - 1j) * nc.a0
    t_bad = (z0 + 1j) / (z0 - 1j) - (z0 - 1j) * nc.Chat @ np.linalg.solve(m0, nc.W)
    bad = with_blocks(nc, T=t_bad)
    z = np.array([1.0 + 1j, z0, -0.5 + 2j, z0])
    with pytest.raises(EvaluationError,
                       match=r"singular pivot at z=\(0\.25\+0\.5j\): smallest singular value"):
        evaluate_transform(bad, lambda w: np.eye(1), z)


def test_callable_non_finite_or_huge_rejected(ex21_nc):
    z = np.array([0.5 + 1j, -1.0 + 2j, 0.3 + 0.1j])
    for bad, match in ((np.nan, r"not finite at z=\(0\.3\+0\.1j\)"),
                       (np.inf, "not finite"), (1e200, "not a contraction")):
        param = lambda w, bad=bad: np.array([[bad if w == z[2] else 0.5]])
        with pytest.raises(ParameterError, match=match):
            evaluate_transform(ex21_nc, param, z)


def spy_lapack(monkeypatch):
    """Record (name, shape of the first argument) of every np.linalg.svd and solve call."""
    calls = []
    for name in ("svd", "solve"):
        def spy(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_uncertified_points_match_reference(ex21_nc, monkeypatch):
    """T scaled by 1.5 puts ||U|| above 1, so the certificate |z+i| - |z-i| ||U|| fails
    near the real axis: points with Im z = 1e-13 are tested and solved by LAPACK, the
    points near i, where |z+i| / |z-i| > 5, are certified, and all match the reference."""
    rng = np.random.default_rng(31)
    deep = indeterminate_states(7300)[-1]
    for base in (ex21_nc, assemble_coefficients(deep.rep, deep.bases)):
        nc = with_blocks(base, T=1.5 * base.T)
        assert 1.1 < np.linalg.norm(nc.u, 2) < 5.0
        x = rng.uniform(-3.0, 3.0, 64)
        near_i = 1j + 0.2 * np.exp(2j * np.pi * rng.uniform(size=16)) * rng.uniform(0.3, 1.0, 16)
        z = np.concatenate([x + 1e-13j, near_i])
        for name, F in parameters(nc, rng):
            param = F if callable(F) else (lambda w, F=F: F)
            want, singular = reference_transform(nc, param, z)
            assert not singular.any(), (nc.delta, name)
            calls = spy_lapack(monkeypatch)
            got = evaluate_transform(nc, param, z)
            monkeypatch.undo()
            assert ("svd", (64, nc.delta, nc.delta)) in calls, (nc.delta, name)
            err = np.abs(got - want).max(axis=(1, 2))
            assert (err <= 1e-12 * np.abs(want).max(axis=(1, 2))).all(), (nc.delta, name)


def test_certified_call_makes_no_lapack_call_per_point(monkeypatch):
    rng = np.random.default_rng(32)
    for state in indeterminate_states(7300):
        nc = assemble_coefficients(state.rep, state.bases)
        param = dict(parameters(nc, rng))["schur"]
        seen = []
        for n in (10, 1000):
            calls = spy_lapack(monkeypatch)
            evaluate_transform(nc, param, rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(0.5, 2.0, n))
            monkeypatch.undo()
            seen.append(calls)
        assert seen[0] == seen[1] == [("svd", (nc.tau + nc.delta,) * 2)]


@pytest.fixture(scope="module")
def coefficient_sets(ex21_nc):
    """Coefficients with delta = 1, 2, 2, 3 and 3."""
    return [ex21_nc] + [assemble_coefficients(s.rep, s.bases) for s in indeterminate_states(7300)]


def counted(param):
    """(param recording its calls, the list of the shapes of their arguments)."""
    shapes = []

    def call(w):
        shapes.append(np.shape(w))
        return param(w)
    return call, shapes


def schur(nc):
    unitary = find_admissible_unitary(nc.Xi)
    return lambda w: ((w - 1j) / (w + 1j)) * unitary


def test_broadcasting_callable_called_once_on_the_array(coefficient_sets):
    """One call on all points as an (n, 1, 1) array and at most SPOT_POINTS calls on
    single points, with the values of the point-by-point loop."""
    rng = np.random.default_rng(41)
    for nc in coefficient_sets:
        z = upper_points(rng, 1000)
        param, shapes = counted(schur(nc))
        got = evaluate_transform(nc, param, z)
        assert shapes == [(1000, 1, 1)] + [()] * nev.SPOT_POINTS
        assert np.array_equal(got, evaluate_transform(nc, scalar_only(schur(nc)), z))


def test_single_point_makes_no_whole_array_call(ex21_nc):
    for z in (0.5 + 1j, np.array([0.5 + 1j])):
        param, shapes = counted(schur(ex21_nc))
        evaluate_transform(ex21_nc, param, z)
        assert shapes == [()]


def test_non_pointwise_callable_falls_back(coefficient_sets):
    """(w - mean(w)) U is 0 at every single point but not on the whole array: the
    spot check refuses the whole-array result and the loop samples F = 0."""
    rng = np.random.default_rng(42)
    for nc in coefficient_sets:
        unitary = find_admissible_unitary(nc.Xi)
        param = lambda w, u=unitary: (w - np.mean(w)) * u
        z = upper_points(rng, 300)
        want, singular = reference_transform(nc, param, z)
        assert not singular.any()
        got = evaluate_transform(nc, param, z)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), nc.delta


def test_warning_callable_falls_back_silently(coefficient_sets):
    rng = np.random.default_rng(43)
    for nc in coefficient_sets:
        base = schur(nc)

        def noisy(w):
            if np.ndim(w):
                warnings.warn("array argument", UserWarning)
            return base(w)
        param, shapes = counted(noisy)
        z = upper_points(rng, 50)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = evaluate_transform(nc, param, z)
        assert caught == []
        assert shapes == [(50, 1, 1)] + [()] * 50
        assert np.array_equal(got, evaluate_transform(nc, scalar_only(base), z))


@pytest.mark.parametrize("reshape", [
    lambda v: np.concatenate([v, v[:1]]),  # one value more than points
    lambda v: v[:, None],                  # an extra axis
    lambda v: v[..., 0],                   # an axis short
])
def test_mis_shaped_array_result_falls_back(coefficient_sets, reshape):
    rng = np.random.default_rng(44)
    for nc in coefficient_sets:
        base = schur(nc)
        param = lambda w: reshape(base(w)) if np.ndim(w) else base(w)
        z = upper_points(rng, 50)
        got = evaluate_transform(nc, param, z)
        assert np.array_equal(got, evaluate_transform(nc, scalar_only(base), z)), nc.delta


@pytest.mark.parametrize("param, shape", [
    (lambda w: (w - 1j) / (w + 1j), "()"),
    (lambda w: 0.5 + 0.0 * w, "()"),
    (lambda w: np.reshape(0.5 + 0.0 * w, (-1, 1, 1)), "(1, 1, 1)"),
])
def test_mis_shaped_point_values_still_rejected(ex21_nc, param, shape):
    """On (n, 1, 1) points these return an (n, 1, 1) array, but a single point gives
    a value of another shape: the loop raises its shape error."""
    z = np.array([0.5 + 1j, -1.0 + 2j, 0.3 + 0.1j])
    with pytest.raises(ParameterError) as err:
        evaluate_transform(ex21_nc, param, z)
    assert str(err.value) == f"parameter must be 1 x 1, got shape {shape}"


def test_blaschke_product_keeps_whole_array_path(coefficient_sets):
    """Array arithmetic rounds the two-factor Blaschke product differently from scalar
    arithmetic at some of the spot points; the rounding allowance keeps the single
    whole-array call, and the values match the LAPACK reference."""
    rng = np.random.default_rng(45)
    a, b = 0.3 + 0.7j, -1.2 + 2.0j
    for nc in coefficient_sets:
        unitary = find_admissible_unitary(nc.Xi)
        blaschke = lambda w, u=unitary: \
            ((w - a) / (w - np.conj(a))) * ((w - b) / (w - np.conj(b))) * u
        z = upper_points(rng, 1000)
        spots = np.linspace(0, z.size - 1, nev.SPOT_POINTS, dtype=int)
        each = np.stack([blaschke(w) for w in z[spots]])
        assert not np.array_equal(blaschke(z.reshape(-1, 1, 1))[spots], each), nc.delta
        param, shapes = counted(blaschke)
        got = evaluate_transform(nc, param, z)
        assert shapes == [(1000, 1, 1)] + [()] * nev.SPOT_POINTS
        want, singular = reference_transform(nc, blaschke, z)
        assert not singular.any()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), nc.delta
