"""Solutions vanishing on a prescribed open gap, from the unitary colligation.

U = [[a0, W], [Chat, T]] (nevanlinna.colligation) has the characteristic
function G(w) = T - Chat (a0 - w I)^{-1} W (Sz.-Nagy and Foias, Harmonic
Analysis of Operators on Hilbert Space, ch. VI).  With w = (lam+i)/(lam-i),
the moving unitary family is W(lam) = w G(w)^{-1}, lam is of non-regular type
exactly when w is a unimodular eigenvalue of a0, and the canonical solution
of a unitary F has its atoms at lam = i(mu+1)/(mu-1) for the eigenvalues mu
of U_F = [[a0, W F], [Chat, T F]] (Krein: the zeros of det(G(w) F - w I)).
So one eigvals decides whether F puts an atom inside the gap; nothing is
sampled.  A found parameter is still verified through its canonical solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .determinate import spectral_measure
from .errors import ParameterError, RankError
from .hilbert_space import BasisCollection, HilbertRep
from .moment_model import AtomicMeasure, DEFAULT_TOL, GapSpec, Tolerances
from .nevanlinna import (NevanlinnaCoefficients, _checked_extension, check_constant_admissible,
                         colligation, extended_colligation, random_unitary,
                         square_parameter)
from .solvability import block_hankel


@dataclass(frozen=True, eq=False)
class GapAnalysis:
    """Closed-form gap data.  u is the colligation as one r x r matrix, poles (tau,)
    the eigenvalues of its block a0 and residues[j] (delta, delta) the term of G at
    pole j; non_regular holds the sorted non-regular lam inside the gap.  Row i of
    invertible (n,) and w_tilde (n, delta, delta) tabulates grid[i], by default the
    gap's finite endpoints; w_tilde is NaN where lam is not of regular type."""

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

    def atoms(self, F: np.ndarray) -> np.ndarray:
        """Sorted lam = i(mu+1)/(mu-1) over the eigenvalues mu of U_F: the atoms
        of the canonical solution of the unitary F, from one eigvals."""
        return np.sort(_real_points(np.linalg.eigvals(extended_colligation(self.u, F))))


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


def _endpoints(spec: GapSpec) -> np.ndarray:
    return np.array([e for pair in spec.intervals for e in pair if math.isfinite(e)], dtype=float)


def analyze_gap(rep: HilbertRep, bases: BasisCollection, spec: GapSpec,
                tol: Tolerances = DEFAULT_TOL, grid: np.ndarray | None = None) -> GapAnalysis:
    """Closed-form gap data, W tabulated on grid (default: the gap's finite endpoints).

    One eig of a0 = V diag(mu) V^{-1} gives the residues (Chat V)[:, j]
    (V^{-1} W)[j, :] of G.  Eigenvalues within inv_tol of the unit circle are
    non-regular points, kept inside the gap by verify_gap's gap_tol margin rule.
    """
    a0, w_mat, chat, t_mat = colligation(bases)
    poles, vecs = np.linalg.eig(a0)
    residues = (chat @ vecs).T[:, :, None] * np.linalg.solve(vecs, w_mat)[:, None, :]
    unimodular = poles[np.abs(np.abs(poles) - 1.0) <= tol.inv_tol]
    non_regular = np.sort([lam for lam in _real_points(unimodular)
                           if spec.contains(lam, margin=tol.gap_tol)])
    u = np.block([[a0, w_mat], [chat, t_mat]])
    grid = _endpoints(spec) if grid is None else np.asarray(grid, dtype=float)
    invertible, w_all = _family(u, poles, residues, grid, tol)
    return GapAnalysis(spec=spec, u=u, poles=poles, residues=residues, non_regular=non_regular,
                       grid=grid, invertible=invertible, w_tilde=w_all)


def w_tilde(rep: HilbertRep, bases: BasisCollection, lam: float,
            tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The moving unitary W(lam) = w G(w)^{-1}; RankError where lam is not of regular type."""
    analysis = analyze_gap(rep, bases, GapSpec(intervals=()), tol, grid=np.array([float(lam)]))
    if not analysis.invertible[0]:
        raise RankError(f"lam={lam} is not of regular type")
    return analysis.w_tilde[0]


@dataclass(frozen=True)
class GapClassDecision:
    accepted: bool
    failures: tuple  # of (lam or None, code) pairs; codes 'A'dmissibility, 'B', 'C'

    def to_json_obj(self) -> dict:
        return {"accepted": self.accepted, "failures": [[lam, code] for lam, code in self.failures]}


def check_gap_class(F: np.ndarray, Xi: np.ndarray, analysis: GapAnalysis,
                    tol: Tolerances = DEFAULT_TOL) -> GapClassDecision:
    """Membership test for a constant parameter against the gap class.

    Requires admissibility (A), unitarity within psd_tol (B) and, for a
    unitary F, no atom of its canonical solution inside the gap (C): each
    lam of analysis.atoms(F) that the gap contains with verify_gap's
    gap_tol margin is a failure at that exact lam.  A non-regular point of
    the gap is an atom of every canonical solution, so it fails C too.
    """
    F = square_parameter(F, Xi.shape[0])
    failures = []
    if not check_constant_admissible(F, Xi, tol):
        failures.append((None, "A"))
    unit_dev = float(np.abs(F.conj().T @ F - np.eye(F.shape[0])).max(initial=0.0))
    if unit_dev > tol.psd_tol:
        failures.append((None, "B"))
    else:
        failures.extend((float(lam), "C") for lam in analysis.atoms(F)
                        if analysis.spec.contains(lam, margin=tol.gap_tol))
    return GapClassDecision(accepted=not failures, failures=tuple(failures))


def verify_gap(measure: AtomicMeasure, spec: GapSpec, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when no atom with significant weight lies strictly inside the gap.

    Atoms sitting on interval endpoints are allowed (the gap is open); the
    interior test keeps a gap_tol margin so boundary atoms survive roundoff.
    """
    return not any(float(np.trace(w).real) > tol.gap_tol and spec.contains(t, margin=tol.gap_tol)
                   for t, w in measure.atoms)


@dataclass(frozen=True, eq=False)
class GapSearchResult:
    status: str  # 'found', 'not_regular', 'exhausted'
    F: np.ndarray | None = None
    measure: AtomicMeasure | None = None
    witness: float | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _try_candidate(rep, bases, F, xi, analysis, spec, tol):
    """The canonical solution of F when F is in the gap class and the solution
    verifies (gap avoided, moments within moment_tol), else None.  check_gap_class
    has found F unitary and admissible against xi, so the extension is built
    without repeating those checks (nevanlinna._checked_extension)."""
    decision = check_gap_class(F, xi, analysis, tol)
    if not decision.accepted:
        return None
    try:
        measure = spectral_measure(_checked_extension(bases, F, admissible=True),
                                   rep.first_block())
    except ParameterError:
        return None
    if not verify_gap(measure, spec, tol):
        return None
    recon = block_hankel(measure.moments(2 * rep.d + 1, dim=rep.N), rep.d + 1, rep.N)
    return measure if np.abs(recon - rep.gram()).max() <= tol.moment_tol else None


def _arc_candidates(xi: np.ndarray, analysis: GapAnalysis, tol: Tolerances):
    """One unimodular 1x1 parameter per arc between the boundary values W(e) at the
    gap's finite endpoints e and Xi = W(+-inf), widest arc first.  An atom enters or
    leaves the gap only where F passes a boundary value, so one angle decides its
    whole arc.  A non-finite W(e), at a non-regular endpoint, is skipped."""
    invertible, w = _family(analysis.u, analysis.poles, analysis.residues,
                            _endpoints(analysis.spec), tol)
    cuts = np.sort(np.angle(np.append(w[invertible, 0, 0], xi[0, 0])))
    widths = np.diff(cuts, append=cuts[0] + 2.0 * np.pi)
    return (np.array([[np.exp(1j * (cuts[k] + 0.5 * widths[k]))]])
            for k in np.argsort(-widths, kind="stable") if widths[k] > 0.0)


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
    """
    if bases.delta == 0:
        raise ParameterError("gap search requires an indeterminate problem")
    if analysis is None:
        analysis = analyze_gap(rep, bases, spec, tol)
    if not analysis.regular_type:
        return GapSearchResult(status="not_regular", witness=float(analysis.non_regular[0]))
    if bases.delta == 1:
        candidates = _arc_candidates(nc.Xi, analysis, tol)
    else:
        rng = np.random.default_rng(seed)
        candidates = (random_unitary(rng, bases.delta) for _ in range(int(budget)))
    for F in candidates:
        measure = _try_candidate(rep, bases, F, nc.Xi, analysis, spec, tol)
        if measure is not None:
            return GapSearchResult(status="found", F=F, measure=measure)
    return GapSearchResult(status="exhausted")
