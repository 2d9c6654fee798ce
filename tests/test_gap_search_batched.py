"""The gap search that decides candidates in batches, against the per-candidate search:
the same candidates in the same order and the same answers, bit for bit.  Also the
batch verdict against check_gap_class, the whole-array moment checks against their
loops, and the colligation built once."""

import json
from pathlib import Path

import numpy as np
import pytest

import matmom.hilbert_space as hilbert_space
from matmom import (AtomicMeasure, GapSpec, ParameterError, analyze, analyze_gap,
                    assemble_coefficients, canonical_solution, check_gap_class,
                    forbidden_matrix, gap_solvable_search, verify_gap)
from matmom.gap import BATCH_CAP, _verdict, haar_batches, random_unitary
from matmom.moment_model import DEFAULT_TOL
from matmom.nevanlinna import extended_colligation
from matmom.solvability import block_hankel

from conftest import (contains_reference, indeterminate_states, moments_from_measure,
                      moments_json, random_measure, run_cli, w_tilde_table)

GOLDEN = json.loads((Path(__file__).parent / "gap_solve_stdout.json").read_text())


def loop_moments(measure, count, n_dim):
    """sum_j t_j^n W_j added atom by atom onto zero, the power by repeated multiplication."""
    out = [np.zeros((n_dim, n_dim), dtype=complex) for _ in range(count)]
    for t, w in measure.atoms:
        power = 1.0
        for n in range(count):
            out[n] += power * w
            power *= t
    return np.array(out)


def loop_block_hankel(moments, size, n_dim):
    out = np.zeros((size * n_dim, size * n_dim), dtype=complex)
    for i in range(size):
        for j in range(size):
            out[i * n_dim:(i + 1) * n_dim, j * n_dim:(j + 1) * n_dim] = moments[i + j]
    return out


def loop_unitary(rng, delta):
    """One Haar draw as random_unitary made it one matrix at a time."""
    g = rng.normal(size=(delta, delta)) + 1j * rng.normal(size=(delta, delta))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def reference_search(state, nc, spec, budget, seed=0):
    """(status, F, measure) of the search that tests one candidate at a time: every
    candidate goes through check_gap_class, an accepted one through canonical_solution,
    verify_gap and the moment reconstruction."""
    rep, bases = state.rep, state.bases
    analysis = analyze_gap(rep, bases, spec)
    if not analysis.regular_type:
        return "not_regular", None, None
    if bases.delta == 1:
        invertible, w_tilde = w_tilde_table(state, analysis.grid)
        w = w_tilde[invertible, 0, 0]
        cuts = np.sort(np.angle(np.append(w, nc.Xi[0, 0])))
        widths = np.diff(cuts, append=cuts[0] + 2.0 * np.pi)
        candidates = [np.array([[np.exp(1j * (cuts[k] + 0.5 * widths[k]))]])
                      for k in np.argsort(-widths, kind="stable") if widths[k] > 0.0]
    else:
        rng = np.random.default_rng(seed)
        candidates = (loop_unitary(rng, bases.delta) for _ in range(budget))
    for F in candidates:
        if not check_gap_class(F, analysis).accepted:
            continue
        try:
            measure = canonical_solution(rep, bases, F)
        except ParameterError:
            continue
        if not verify_gap(measure, spec):
            continue
        recon = loop_block_hankel(loop_moments(measure, 2 * rep.d + 1, rep.N), rep.d + 1, rep.N)
        if np.abs(recon - rep.gram).max() <= 1e-8:
            return "found", F, measure
    return "exhausted", None, None


def assert_same_measure(got, want):
    assert len(got.atoms) == len(want.atoms)
    for (t, w), (t_ref, w_ref) in zip(got.atoms, want.atoms):
        assert t == t_ref and w.tobytes() == w_ref.tobytes()


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[f"{c['instance']}{''.join(c['args'][1:])}" for c in GOLDEN["cases"]])
def test_gap_solve_stdout_unchanged(case, tmp_path):
    path = tmp_path / "moments.json"
    path.write_text(GOLDEN["instances"][case["instance"]]["document"])
    proc = run_cli("gap-solve", str(path), *case["args"])
    assert proc.returncode == case["status"]
    assert proc.stdout == case["stdout"]


def test_golden_documents_come_from_their_seeds():
    for inst in GOLDEN["instances"].values():
        measure = random_measure(np.random.default_rng(inst["seed"]), inst["N"], inst["atoms"])
        ms = moments_from_measure(measure, inst["N"], inst["d"])
        assert moments_json(ms) == inst["document"]


def test_batched_haar_draws_match_successive_draws():
    """k draws at once are k successive draws of one, bit for bit, and those are the
    one-matrix QR of loop_unitary."""
    for delta in (1, 2, 3, 5):
        for seed in range(4):
            for k in (1, 2, 7, 40):
                batch = random_unitary(np.random.default_rng(seed), delta, k)
                rng = np.random.default_rng(seed)
                singles = [random_unitary(rng, delta, 1)[0] for _ in range(k)]
                rng = np.random.default_rng(seed)
                loops = [loop_unitary(rng, delta) for _ in range(k)]
                assert batch.shape == (k, delta, delta)
                assert batch.tobytes() == np.array(singles).tobytes() == np.array(loops).tobytes()


def test_haar_batches_double_up_to_the_cap():
    count = 3 * BATCH_CAP
    batches = list(haar_batches(5, 2, count))
    sizes = [len(b) for b in batches]
    assert sizes[:3] == [1, 2, 4] and max(sizes) == BATCH_CAP and sum(sizes) == count
    assert all(b == min(2 * a, BATCH_CAP) for a, b in zip(sizes, sizes[1:-1]))
    rng = np.random.default_rng(5)
    singles = np.array([random_unitary(rng, 2, 1)[0] for _ in range(count)])
    assert np.concatenate(batches).tobytes() == singles.tobytes()


def test_search_matches_per_candidate_search():
    """Status, parameter and measure of the screened search equal those of the
    per-candidate search on tail, between and two-piece gaps of the generating measure,
    delta = 1, 2 and 3, with budgets that end inside a batch, at its end, and past the
    candidate that is found."""
    checked = set()
    for n_dim, d, n_atoms in ((1, 1, 3), (1, 2, 4), (1, 3, 5), (2, 1, 4), (2, 2, 5),
                              (3, 1, 4), (3, 2, 5)):
        for seed in (7800, 7801):
            measure = random_measure(np.random.default_rng(seed), n_dim, n_atoms)
            state = analyze(moments_from_measure(measure, n_dim, d))
            nc = assemble_coefficients(state.rep, state.bases)
            t = [loc for loc, _ in measure.atoms]

            def between(k):
                return f"({t[k] + 0.1 * (t[k + 1] - t[k])},{t[k + 1] - 0.1 * (t[k + 1] - t[k])})"

            two_piece = between(0) + "," + between(n_atoms - 2)
            for text in (f"({t[-1] + 0.3},inf)", between(1), two_piece):
                spec = GapSpec.parse(text)
                for budget in (1, 3, 7, 40):
                    want = reference_search(state, nc, spec, budget)
                    got = gap_solvable_search(state.rep, state.bases, nc, spec, budget=budget)
                    assert got.status == want[0], (n_dim, d, seed, text, budget)
                    checked.add((state.bases.delta, got.status))
                    if got.found:
                        assert got.F.tobytes() == want[1].tobytes()
                        assert_same_measure(got.measure, want[2])
    assert checked == {(delta, status) for delta in (1, 2, 3) for status in ("found", "exhausted")}


def test_batch_verdict_matches_check_gap_class(ex21):
    """_verdict of a stack decides each parameter as check_gap_class decides it alone:
    unitary exactly without code B, admissible exactly without code A, and the atoms
    it marks inside the gap the lam's of code C, in order.  Each row of its spectrum
    is the spectrum of that parameter's own U_F, bit for bit.  The stacks mix Haar
    unitaries, 0.6 times Haar unitaries and the forbidden matrix Xi, in seeded order;
    ex21's Xi fails code A.  A stack holding a non-contraction raises, as
    check_gap_class does for that parameter."""
    cases = [(ex21, forbidden_matrix(ex21.bases))]
    cases += [(state, forbidden_matrix(state.bases)) for state in indeterminate_states(7720)]
    codes, outcomes = set(), set()
    for seed, (state, xi) in enumerate(cases):
        rng = np.random.default_rng(seed)
        haar = random_unitary(rng, state.bases.delta, 12)
        stack = np.concatenate([haar[:6], 0.6 * haar[6:], xi[None]])
        order = rng.permutation(len(stack))
        stack, is_xi = stack[order], order == len(stack) - 1
        for text in ("(-0.5,0.5)", "(-1.5,-0.2),(0.3,1.2)", "(2,inf)"):
            spec = GapSpec.parse(text)
            analysis = analyze_gap(state.rep, state.bases, spec)
            mu, unitary, admissible, inside = _verdict(stack, analysis, DEFAULT_TOL)
            assert unitary[order < 6].all() and not unitary[(order >= 6) & ~is_xi].any()
            for k, F in enumerate(stack):
                alone = np.linalg.eigvals(extended_colligation(analysis.u, F))
                assert mu[k].tobytes() == alone.tobytes()
                atoms = analysis.atoms(mu[k])
                assert inside[k].tolist() == [contains_reference(spec, lam, DEFAULT_TOL.gap_tol)
                                              for lam in atoms]
                failures = check_gap_class(F, analysis).failures
                got = {code for _, code in failures}
                codes |= got
                outcomes.add(not failures)
                assert admissible[k] == ("A" not in got) and unitary[k] == ("B" not in got)
                assert [lam for lam, code in failures if code == "C"] == (
                    atoms[inside[k]].tolist() if unitary[k] else [])
            if state is ex21:
                assert not admissible[is_xi].any()
        bad = np.concatenate([stack, 1.5 * haar[:1]])
        with pytest.raises(ParameterError, match="not a contraction"):
            _verdict(bad, analysis, DEFAULT_TOL)
        with pytest.raises(ParameterError, match="not a contraction"):
            check_gap_class(bad[-1], analysis)
    assert codes == {"A", "B", "C"} and outcomes == {True, False}


def test_verdict_keeps_the_gap_tol_margin(ex21):
    """An atom less than gap_tol inside a gap's end is not inside, as verify_gap judges
    it; one more than gap_tol inside is, and check_gap_class reports it with code C."""
    F = np.array([[np.exp(0.3j)]])
    tol = DEFAULT_TOL.gap_tol
    empty = analyze_gap(ex21.rep, ex21.bases, GapSpec.parse(""))
    for k, lam in enumerate(empty.atoms(_verdict(F[None], empty, DEFAULT_TOL)[0][0])):
        for depth, want in ((0.5 * tol, False), (2.0 * tol, True)):
            spec = GapSpec.from_intervals([(lam - depth, lam + 1e-3)])
            analysis = analyze_gap(ex21.rep, ex21.bases, spec)
            _, _, _, inside = _verdict(F[None], analysis, DEFAULT_TOL)
            assert inside[0, k] == want
            assert ((lam, "C") in check_gap_class(F, analysis).failures) == want


def test_search_skips_candidates_that_fail_a_or_b(monkeypatch):
    """A candidate that fails code A or B is skipped, not handed to extension_operator
    (which would raise): with Xi and a strict contraction drawn first, the search
    returns the witness it finds alone."""
    import matmom.gap as gap_mod

    state = indeterminate_states(7700)[0]
    nc = assemble_coefficients(state.rep, state.bases)
    spec = GapSpec.parse("(40,inf)")
    want = gap_solvable_search(state.rep, state.bases, nc, spec, budget=50)
    assert want.found
    analysis = analyze_gap(state.rep, state.bases, spec)
    assert check_gap_class(nc.Xi, analysis).failures == ((None, "A"),)  # A alone
    monkeypatch.setattr(gap_mod, "haar_batches",
                        lambda seed, delta, count: iter([np.stack([nc.Xi, 0.6 * want.F, want.F])]))
    got = gap_solvable_search(state.rep, state.bases, nc, spec, budget=50)
    assert got.found and got.F.tobytes() == want.F.tobytes()


def test_colligation_computed_once_per_problem(monkeypatch):
    """assemble_coefficients and analyze_gap share one colligation array, formed from four
    ip_matrix products, and one eig(a0) per BasisCollection; another problem computes its
    own.  The coefficients' blocks are views of that array, and their residue table has
    the block shape (tau, N+delta, N+delta)."""
    calls = {"ip": 0, "eig": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ip_matrix inside hilbert_space is only called by the colligation: four blocks
    monkeypatch.setattr(hilbert_space, "ip_matrix", counted("ip", hilbert_space.ip_matrix))
    monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
    spec = GapSpec.parse("(10,inf)")
    for k, state in enumerate(indeterminate_states(7700)[:2], start=1):
        nc = assemble_coefficients(state.rep, state.bases)
        analysis = analyze_gap(state.rep, state.bases, spec)
        analyze_gap(state.rep, state.bases, GapSpec.parse("(-20,-10)"))
        assert calls == {"ip": 4 * k, "eig": k}
        assert nc.u is analysis.u and analysis.u is state.bases.colligation
        assert not nc.u.flags.writeable
        tau = nc.tau
        for view, block in ((nc.a0, np.s_[:tau, :tau]), (nc.W, np.s_[:tau, tau:]),
                            (nc.Chat, np.s_[tau:, :tau]), (nc.T, np.s_[tau:, tau:])):
            assert view.base is nc.u and np.array_equal(view, nc.u[block])
        assert analysis.poles is state.bases.a0_eig[0]
        assert nc.residues.shape == (tau, nc.N + nc.delta, nc.N + nc.delta)
        assert calls == {"ip": 4 * k, "eig": k}


def test_screen_interior_matches_contains():
    spec = GapSpec.parse("(-3,-1),(0.5,2),(7,inf)")
    rng = np.random.default_rng(3)
    ends = np.array([-3, -1, 0.5, 2, 7])
    points = np.concatenate([rng.uniform(-5, 10, 200), ends, [np.inf, -np.inf, np.nan],
                             ends + 1e-9, ends - 1e-9])
    for margin in (0.0, 1e-8):
        mask = spec.interior(points.reshape(2, -1), margin=margin).ravel()
        assert mask.tolist() == [contains_reference(spec, t, margin=margin) for t in points]


def test_moments_match_atom_by_atom_sum():
    rng = np.random.default_rng(11)
    for n_dim in (1, 2, 3):
        for n_atoms in (1, 4, 12):
            atoms = list(random_measure(rng, n_dim, n_atoms, spread=4.0, min_gap=0.1).atoms)
            atoms.append((-0.0, np.diag(-np.zeros(n_dim)) + 0j))  # an atom of signed zeros
            measure = AtomicMeasure.from_atoms(atoms, n_dim)
            for count in (1, 3, 9):
                got = measure.moments(count)
                assert got.tobytes() == loop_moments(measure, count, n_dim).tobytes()
    # every term of entry (0, 1) has imaginary part -0.0: the sum onto zero makes it +0.0
    w = np.array([[1.0, complex(-0.5, -0.0)], [complex(-0.5, 0.0), 1.0]])
    for atoms in (((0.5, w),), ((0.5, w), (2.0, 2.0 * w))):
        measure = AtomicMeasure.from_atoms(atoms, 2)
        assert measure.moments(5).tobytes() == loop_moments(measure, 5, 2).tobytes()
    empty = AtomicMeasure.from_atoms((), 2)
    assert empty.moments(3).shape == (3, 2, 2)


def test_block_hankel_gather_matches_slices():
    rng = np.random.default_rng(12)
    for n_dim, size in ((1, 1), (1, 3), (2, 2), (3, 4)):
        shape = (2 * size - 1, n_dim, n_dim)
        moments = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = loop_block_hankel(moments, size, n_dim)
        assert block_hankel(moments, size, n_dim).tobytes() == want.tobytes()


def test_first_block_is_contiguous(ex21):
    block = ex21.rep.first_block()
    assert block.flags.c_contiguous and np.array_equal(block, ex21.rep.X[:, :ex21.rep.N])
    assert not np.shares_memory(block, ex21.rep.X)
    state = analyze(moments_from_measure(random_measure(np.random.default_rng(4), 2, 3), 2, 1))
    assert state.rep.first_block().flags.c_contiguous
