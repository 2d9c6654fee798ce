"""Solutions vanishing on a prescribed open gap, from the unitary colligation.

U = [[a0, W], [Chat, T]] (BasisCollection.colligation, built once per problem
and shared with nevanlinna.assemble_coefficients, like the eig of a0) has the
characteristic function G(w) = T - Chat (a0 - w I)^{-1} W (Sz.-Nagy and Foias,
Harmonic Analysis of Operators on Hilbert Space, ch. VI).  With
w = (lam+i)/(lam-i), the moving unitary family is W(lam) = w G(w)^{-1}, lam is
of non-regular type exactly when w is a unimodular eigenvalue of a0, and the
canonical solution of a unitary F has its atoms at lam = i(mu+1)/(mu-1) for the
eigenvalues mu of U_F = [[a0, W F], [Chat, T F]] (Krein: the zeros of
det(G(w) F - w I)).  So the eigenvalues of U_F decide whether F puts an atom
inside the gap; nothing is sampled.  The same eigenvalues decide whether any
constant F, unitary or a contraction, is admissible: it is not when one lies
within FIXED_POINT_TOL of 1, an atom at infinity (nevanlinna.extension_operator).
The search screens its candidates in batches of 1, 2, 4, ... (doubling_batches)
with one stacked eigvals each, and only those with no atom inside the gap go on,
in order and with their row of that spectrum, to check_gap_class and to the
verification of their canonical solution; no candidate needs a second eigvals.
For delta > 1 the candidates are seeded Haar-random unitaries, drawn in stacks
(haar_batches) that hold the matrices of successive single draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .determinate import spectral_measure
from .errors import ParameterError
from .hilbert_space import BasisCollection, HilbertRep
from .moment_model import AtomicMeasure, DEFAULT_TOL, GapSpec, Tolerances
from .nevanlinna import (FIXED_POINT_TOL, NevanlinnaCoefficients, check_contraction,
                         extended_colligation, extension_operator, fixed_point_distance,
                         square_parameter)
from .solvability import block_hankel

BATCH_CAP = 256  # most candidates a search draws or screens with one numpy call


@dataclass(frozen=True, eq=False)
class GapAnalysis:
    """Closed-form gap data.  u is the colligation as one r x r matrix, poles (tau,)
    the eigenvalues of its block a0 and residues[j] (delta, delta) the term of G at
    pole j; non_regular holds the sorted non-regular lam inside the gap.  grid (n,)
    holds the gap's finite endpoints, and row i of invertible (n,) and w_tilde
    (n, delta, delta) tabulates grid[i]; w_tilde is NaN where lam is not of regular type."""

    spec: GapSpec
    u: np.ndarray
    poles: np.ndarray
    residues: np.ndarray
    non_regular: np.ndarray
    grid: np.ndarray
    invertible: np.ndarray
    w_tilde: np.ndarray

    @property
    def regular_type(self) -> bool:
        return self.non_regular.size == 0

    def spectrum(self, F: np.ndarray) -> np.ndarray:
        """The eigenvalues mu of U_F from one eigvals; for a (k, delta, delta) stack
        of parameters the (k, r) rows of their spectra."""
        return np.linalg.eigvals(extended_colligation(self.u, F))

    def atoms(self, F: np.ndarray, mu: np.ndarray | None = None) -> np.ndarray:
        """Sorted lam = i(mu+1)/(mu-1) over the eigenvalues mu of U_F: the atoms
        of the canonical solution of the unitary F, rows for a stack of them like
        spectrum.  mu, when given, is spectrum(F) already computed."""
        return np.sort(_real_points(self.spectrum(F) if mu is None else mu), axis=-1)


def _family(u, poles, residues, lams, tol: Tolerances):
    """(invertible, W) at the finite real lams.  lam counts as non-regular when
    w lies within inv_tol of a pole; W is NaN there and nothing is divided."""
    tau, delta = poles.size, residues.shape[1]
    w = (lams + 1j) / (lams - 1j)
    offsets = w[:, None] - poles[None, :]
    invertible = np.abs(offsets).min(axis=1, initial=np.inf) > tol.inv_tol
    g = u[tau:, tau:] + np.einsum("nj,jkl->nkl", 1.0 / offsets[invertible], residues)
    out = np.full((lams.size, delta, delta), np.nan, dtype=complex)
    out[invertible] = w[invertible, None, None] * np.linalg.inv(g)
    return invertible, out


def _real_points(mu: np.ndarray) -> np.ndarray:
    """lam = i(mu+1)/(mu-1), real for unimodular mu; mu = 1 maps to infinity."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (1j * (mu + 1.0) / (mu - 1.0)).real


def analyze_gap(rep: HilbertRep, bases: BasisCollection, spec: GapSpec,
                tol: Tolerances = DEFAULT_TOL) -> GapAnalysis:
    """Closed-form gap data, W tabulated at the gap's finite endpoints.

    One eig of a0 = V diag(mu) V^{-1} gives the residues (Chat V)[:, j]
    (V^{-1} W)[j, :] of G.  Eigenvalues within inv_tol of the unit circle are
    non-regular points, kept inside the gap by verify_gap's gap_tol margin rule.
    """
    _, w_mat, chat, _ = bases.colligation
    poles, vecs = bases.a0_eig
    residues = (chat @ vecs).T[:, :, None] * np.linalg.solve(vecs, w_mat)[:, None, :]
    unimodular = poles[np.abs(np.abs(poles) - 1.0) <= tol.inv_tol]
    non_regular = np.sort([lam for lam in _real_points(unimodular)
                           if spec.contains(lam, margin=tol.gap_tol)])
    u = bases.colligation_matrix
    grid = np.array([e for pair in spec.intervals for e in pair if math.isfinite(e)], dtype=float)
    invertible, w_all = _family(u, poles, residues, grid, tol)
    return GapAnalysis(spec=spec, u=u, poles=poles, residues=residues, non_regular=non_regular,
                       grid=grid, invertible=invertible, w_tilde=w_all)


@dataclass(frozen=True)
class GapClassDecision:
    accepted: bool
    failures: tuple  # of (lam or None, code) pairs; codes 'A'dmissibility, 'B', 'C'

    def to_json_obj(self) -> dict:
        return {"accepted": self.accepted, "failures": [[lam, code] for lam, code in self.failures]}


def check_gap_class(F: np.ndarray, analysis: GapAnalysis, tol: Tolerances = DEFAULT_TOL,
                    mu: np.ndarray | None = None) -> GapClassDecision:
    """Membership test for a constant parameter against the gap class.

    Requires admissibility (A), unitarity within psd_tol (B) and no atom of
    the canonical solution inside the gap (C).  F is judged from the spectrum
    mu of U_F (analysis.spectrum(F), or mu when the caller has computed it):
    it fails A when an eigenvalue lies within FIXED_POINT_TOL of 1, the test of
    nevanlinna.extension_operator.  A unitary F fails C at each lam of
    analysis.atoms(F, mu) that the gap contains with verify_gap's gap_tol
    margin; a non-regular point of the gap is an atom of every canonical
    solution, so it fails C too.  Any other F fails B (ParameterError when it
    is not a contraction, nevanlinna.check_contraction).
    """
    F = square_parameter(F, analysis.u.shape[0] - analysis.poles.size)
    unit_dev = float(np.abs(F.conj().T @ F - np.eye(F.shape[0])).max(initial=0.0))
    unitary = unit_dev <= tol.psd_tol
    if not unitary:
        check_contraction(F, tol)
    if mu is None:
        mu = analysis.spectrum(F)
    failures = [(None, "A")] if fixed_point_distance(mu) <= FIXED_POINT_TOL else []
    if unitary:
        failures.extend((float(lam), "C") for lam in analysis.atoms(F, mu)
                        if analysis.spec.contains(lam, margin=tol.gap_tol))
    else:
        failures.append((None, "B"))
    return GapClassDecision(accepted=not failures, failures=tuple(failures))


def verify_gap(measure: AtomicMeasure, spec: GapSpec, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when no atom with significant weight lies strictly inside the gap.

    Atoms sitting on interval endpoints are allowed (the gap is open); the
    interior test keeps a gap_tol margin so boundary atoms survive roundoff.
    All atoms are judged at once: GapSpec.interior on the locations, then the
    traces of the stacked weights of the atoms inside, if any.
    """
    inside = spec.interior(measure.locations, margin=tol.gap_tol)
    return not (inside.any()
                and (np.trace(measure.weights[inside], axis1=-2, axis2=-1).real > tol.gap_tol).any())


@dataclass(frozen=True, eq=False)
class GapSearchResult:
    status: str  # 'found', 'not_regular', 'exhausted'
    F: np.ndarray | None = None
    measure: AtomicMeasure | None = None
    witness: float | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _try_candidate(rep, bases, F, mu, analysis, spec, tol):
    """The canonical solution of F when F is in the gap class and the solution
    verifies (gap avoided, moments within moment_tol), else None; mu is
    analysis.spectrum(F), which check_gap_class and extension_operator share."""
    if not check_gap_class(F, analysis, tol, mu=mu).accepted:
        return None
    measure = spectral_measure(extension_operator(bases, F, tol, mu=mu), rep.first_block())
    if not verify_gap(measure, spec, tol):
        return None
    recon = block_hankel(measure.moments(2 * rep.d + 1, dim=rep.N), rep.d + 1, rep.N)
    return measure if np.abs(recon - rep.gram()).max() <= tol.moment_tol else None


def random_unitary(rng: np.random.Generator, delta: int, size: int | None = None) -> np.ndarray:
    """Haar-random delta x delta unitary, or a (size, delta, delta) stack of them:
    QR of a complex Gaussian matrix with the phases of R's diagonal moved into Q.
    Each matrix takes its real, then its imaginary delta x delta Gaussians, so a
    stack holds the matrices of size successive single draws, bit for bit."""
    shape = (2, delta, delta) if size is None else (size, 2, delta, delta)
    parts = rng.normal(size=shape)
    q, r = np.linalg.qr(parts[..., 0, :, :] + 1j * parts[..., 1, :, :])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def doubling_batches(count: int):
    """(start, stop) slices of range(count) of lengths 1, 2, 4, ..., none longer than
    BATCH_CAP: a search that succeeds early pays for few candidates, and a long one
    makes few numpy calls."""
    start, size = 0, 1
    while start < count:
        stop = min(start + size, count)
        yield start, stop
        start, size = stop, min(2 * size, BATCH_CAP)


def haar_batches(seed: int, delta: int, count: int):
    """count seeded Haar-random delta x delta unitaries, the draws of count successive
    random_unitary calls, as stacks of the doubling_batches lengths."""
    rng = np.random.default_rng(seed)
    for start, stop in doubling_batches(count):
        yield random_unitary(rng, delta, stop - start)


def _arc_candidates(xi: np.ndarray, analysis: GapAnalysis):
    """The (m, 1, 1) stack of one unimodular parameter per arc between the boundary
    values W(e) at the gap's finite endpoints e and Xi = W(+-inf), widest arc first,
    as batches of the doubling_batches lengths.  An atom enters or leaves the gap
    only where F passes a boundary value, so one angle decides its whole arc.  A
    non-finite W(e), at a non-regular endpoint, is skipped."""
    w = analysis.w_tilde[analysis.invertible, 0, 0]
    cuts = np.sort(np.angle(np.append(w, xi[0, 0])))
    widths = np.diff(cuts, append=cuts[0] + 2.0 * np.pi)
    # widest first; the arcs of zero width, if any, sort last and are dropped
    order = np.argsort(-widths, kind="stable")[:np.count_nonzero(widths > 0.0)]
    stack = np.exp(1j * (cuts + 0.5 * widths)[order]).reshape(-1, 1, 1)
    return (stack[start:stop] for start, stop in doubling_batches(order.size))


def _screened(batch: np.ndarray, analysis: GapAnalysis, tol: Tolerances):
    """(F, analysis.spectrum(F)) in order for the parameters F of the
    (k, delta, delta) batch whose canonical solution has no atom inside the gap:
    those that check_gap_class does not fail with code C.  One eigvals covers
    the batch."""
    mu = analysis.spectrum(batch)
    inside = analysis.spec.interior(analysis.atoms(batch, mu), margin=tol.gap_tol)
    return ((batch[k], mu[k]) for k in np.flatnonzero(~inside.any(axis=-1)))


def gap_solvable_search(rep: HilbertRep, bases: BasisCollection,
                        nc: NevanlinnaCoefficients, spec: GapSpec, budget: int = 1000,
                        tol: Tolerances = DEFAULT_TOL, seed: int = 0,
                        analysis: GapAnalysis | None = None) -> GapSearchResult:
    """One-sided search for a constant unitary parameter compatible with the gap.

    A returned witness is verified through its canonical solution.  A
    non-regular point inside the gap proves infeasibility ('not_regular').
    For delta = 1 one angle per boundary arc is tested (budget is unused), so
    'exhausted' means every arc failed; for delta > 1 budget seeded Haar
    candidates are tested, and 'exhausted' is NOT a proof of infeasibility.
    Candidates come in batches of 1, 2, 4, ... (_screened), so the first batch
    is the first candidate alone; a candidate the screen passes is tested in
    full by _try_candidate before the next one.
    """
    if bases.delta == 0:
        raise ParameterError("gap search requires an indeterminate problem")
    if analysis is None:
        analysis = analyze_gap(rep, bases, spec, tol)
    if not analysis.regular_type:
        return GapSearchResult(status="not_regular", witness=float(analysis.non_regular[0]))
    if bases.delta == 1:
        batches = _arc_candidates(nc.Xi, analysis)
    else:
        batches = haar_batches(seed, bases.delta, int(budget))
    for batch in batches:
        for F, mu in _screened(batch, analysis, tol):
            measure = _try_candidate(rep, bases, F, mu, analysis, spec, tol)
            if measure is not None:
                return GapSearchResult(status="found", F=F, measure=measure)
    return GapSearchResult(status="exhausted")
