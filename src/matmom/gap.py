"""Solutions vanishing on a prescribed open gap.

For indeterminate problems, a solution with no mass on an open set
exists exactly when some admissible parameter stays unitary and avoids a
moving unitary matrix family over the whole set.  The family is sampled
on a finite grid; a found parameter is always re-verified through the
atoms of its canonical solution, so positive answers are sound while a
failed search is only inconclusive.

analyze_gap holds the sampled family as arrays with one row per grid
point: invertibility, W (NaN where the shifted operator is not
invertible) and half-chord margins.  It orthogonalizes GRID_BLOCK points
per stacked Gram-Schmidt pass, which bounds the memory of long grids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RankError
from .hilbert_space import (BasisCollection, HilbertRep, ip_matrix, orthonormal_split,
                            orthonormalize_stack, shifted_domain_images)
from .moment_model import AtomicMeasure, DEFAULT_TOL, GapSpec, Tolerances
from .nevanlinna import (NevanlinnaCoefficients, canonical_solution, check_constant_admissible,
                         random_unitary)

GRID_SPACING = 0.01
MIN_GRID_POINTS = 101
MAX_GRID_POINTS = 20001
CHEB_CLUSTER_POINTS = 65
GRID_BLOCK = 1024  # grid points per stacked Gram-Schmidt pass; bounds the stack's memory
ARC_SCAN_BLOCK = 256  # grid points per step of the delta=1 angle scan; bounds its memory


def _gap_seq(rep: HilbertRep, lams: np.ndarray) -> np.ndarray:
    """x_{k+N} - lam x_k (k < dN), then x_0..x_{N-1}: an (n, r, dN+N) stack, one matrix per lam."""
    dN = rep.dN
    shifted = rep.X[None, :, rep.N: rep.N + dN] - lams[:, None, None] * rep.X[None, :, :dN]
    lead = np.broadcast_to(rep.X[None, :, : rep.N], (lams.size, rep.r, rep.N))
    return np.concatenate([shifted, lead], axis=2)


def _gap_stack(rep: HilbertRep, lams: np.ndarray, tol: Tolerances):
    """Stacked Gram-Schmidt of the gap sequence at every lam."""
    return orthonormalize_stack(_gap_seq(rep, lams), tol.rank_tol)


def _well_conditioned(mats: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Per matrix of a stack: every singular value above inv_tol * max(1, largest)."""
    svals = np.linalg.svd(mats, compute_uv=False)
    return np.all(svals > tol.inv_tol * np.maximum(1.0, svals[:, :1]), axis=1)


def _shift_matrices(rep, bases, vectors, keep, lams, tol):
    """(m_shift, invertible) at each lam.  m_shift (n, dN, kappa) has zero rows at dropped
    range inputs, which leave its singular values alone; invertible needs exactly
    kappa > 0 range survivors and well-conditioned m_shift."""
    dN, kappa = rep.dN, bases.kappa
    images = shifted_domain_images(rep, bases.domain.expansions, lams)
    m_shift = np.swapaxes(vectors[:, :, :dN].conj(), 1, 2) @ images
    invertible = (keep[:, :dN].sum(axis=1) == kappa) & (kappa > 0)
    return m_shift, invertible & _well_conditioned(m_shift, tol)


def _w_tilde_stack(rep, bases, vectors, keep, lams, tol) -> np.ndarray:
    """W at each lam from the defect survivors; RankError at the first lam where
    the defect dimension differs from delta or its projection is singular."""
    dN, delta = rep.dN, bases.delta
    sizes = keep[:, dN:].sum(axis=1)
    bad = sizes != delta
    rows = np.swapaxes(vectors[~bad, :, dN:], 1, 2)[keep[~bad, dN:]]  # survivors in input order
    defect = np.swapaxes(rows.reshape(int((~bad).sum()), delta, rep.r), 1, 2)
    m_s = ip_matrix(bases.defect_basis.vectors, defect)
    m_q = ip_matrix(bases.codefect_basis.vectors, defect)
    bad[~bad] = ~_well_conditioned(m_s, tol)
    if bad.any():
        i = int(np.argmax(bad))
        lam = float(lams[i])
        raise RankError(f"defect dimension at lam={lam} is {sizes[i]}, expected {delta}"
                        if sizes[i] != delta else
                        f"projection matrix at lam={lam} is numerically singular")
    factor = (lams + 1j) / (lams - 1j)
    return factor[:, None, None] * (m_q @ np.linalg.inv(m_s))


def gap_basis(rep: HilbertRep, lam: float, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal bases of the shifted range and its complement at real lam.

    Orthogonalizes x_{k+N} - lam x_k for k = 0..dN-1 and then the leading
    block x_0..x_{N-1}; the split of survivors gives the two families.
    """
    return orthonormal_split(_gap_seq(rep, np.array([float(lam)]))[0], rep.dN, tol.rank_tol)


def regular_type_check(rep: HilbertRep, bases: BasisCollection, lam: float,
                       tol: Tolerances = DEFAULT_TOL):
    """Matrix of the shifted operator between the domain and shifted-range bases.

    Returns (matrix, invertible).  A dimension mismatch between the two
    families already rules out regular type.
    """
    lams = np.array([float(lam)])
    vectors, _, keep = _gap_stack(rep, lams, tol)
    m_shift, invertible = _shift_matrices(rep, bases, vectors, keep, lams, tol)
    return m_shift[0][keep[0, : rep.dN]], bool(invertible[0])


def w_tilde(rep: HilbertRep, bases: BasisCollection, lam: float,
            tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moving unitary matrix comparing the lam-defect basis with both i-defect bases."""
    lams = np.array([float(lam)])
    vectors, _, keep = _gap_stack(rep, lams, tol)
    return _w_tilde_stack(rep, bases, vectors, keep, lams, tol)[0]


@dataclass(frozen=True, eq=False)
class GapAnalysis:
    """Gap data with row i for grid[i]: invertible (n,) marks regular-type points,
    w_tilde (n, delta, delta) holds W there and NaN elsewhere, margins (n,) is
    half the larger spectral-norm chord of W to a neighbouring sample (chords
    touching a non-invertible point count 0)."""

    grid: np.ndarray
    invertible: np.ndarray
    w_tilde: np.ndarray
    margins: np.ndarray

    @property
    def regular_type(self) -> bool:
        return bool(self.invertible.all())


def spectral_bound(rep: HilbertRep) -> float:
    """Truncation radius for unbounded gap intervals, derived from the Gram norm."""
    if rep.X.size == 0:
        return 1.0
    top = float(np.linalg.norm(rep.X, 2)) ** 2
    return 1.0 + top


def gap_grid(spec: GapSpec, bound: float) -> np.ndarray:
    """Sampling grid: uniform interior points per interval plus Chebyshev
    clustering toward the endpoints; unbounded pieces truncated at the bound."""
    points: list = []
    for a, b in spec.intervals:
        a_eff = max(a, -bound)
        b_eff = min(b, bound)
        if not a_eff < b_eff:
            continue
        length = b_eff - a_eff
        n = max(MIN_GRID_POINTS, min(int(math.ceil(length / GRID_SPACING)), MAX_GRID_POINTS))
        h = length / n
        points.extend(a_eff + h * (np.arange(n) + 0.5))
        j = np.arange(CHEB_CLUSTER_POINTS)
        cheb = 0.5 * (a_eff + b_eff) + 0.5 * length * np.cos(
            np.pi * (2 * j + 1) / (2 * CHEB_CLUSTER_POINTS))
        points.extend(cheb)
    if not points:
        return np.zeros(0, dtype=float)
    grid = np.unique(np.asarray(points, dtype=float))
    return grid


def analyze_gap(rep: HilbertRep, bases: BasisCollection, spec: GapSpec,
                tol: Tolerances = DEFAULT_TOL, grid: np.ndarray | None = None) -> GapAnalysis:
    """Per-point regular-type and unitary-family data over the sampling grid."""
    if grid is None:
        grid = gap_grid(spec, spectral_bound(rep))
    grid = np.asarray(grid, dtype=float)
    invertible = np.zeros(grid.size, dtype=bool)
    w_all = np.full((grid.size, bases.delta, bases.delta), np.nan, dtype=complex)
    for start in range(0, grid.size, GRID_BLOCK):
        lams = grid[start: start + GRID_BLOCK]
        vectors, _, keep = _gap_stack(rep, lams, tol)
        _, inv = _shift_matrices(rep, bases, vectors, keep, lams, tol)
        invertible[start: start + lams.size] = inv
        w_all[start: start + lams.size][inv] = _w_tilde_stack(
            rep, bases, vectors[inv], keep[inv], lams[inv], tol)
    chords = np.diff(w_all, axis=0)
    chords[~(invertible[1:] & invertible[:-1])] = 0.0
    half = 0.5 * np.linalg.norm(chords, ord=2, axis=(1, 2))
    margins = np.maximum(np.pad(half, (1, 0)), np.pad(half, (0, 1)))[: grid.size]  # n=0: no chords
    return GapAnalysis(grid=grid, invertible=invertible, w_tilde=w_all, margins=margins)


@dataclass(frozen=True)
class GapClassDecision:
    accepted: bool
    failures: tuple  # of (lam or None, code) pairs; codes 'A'dmissibility, 'B', 'C'

    def to_json_obj(self) -> dict:
        return {
            "accepted": self.accepted,
            "failures": [[lam, code] for lam, code in self.failures],
        }


def check_gap_class(F: np.ndarray, Xi: np.ndarray, analysis: GapAnalysis,
                    tol: Tolerances = DEFAULT_TOL) -> GapClassDecision:
    """Membership test for a constant parameter against the gap class.

    Requires admissibility, exact unitarity (within tolerance) and
    invertibility of F - W(lam) over the gap.  Continuity is automatic for
    constants.  Since W moves between grid samples, the invertibility test
    keeps a half-chord margin: if the family passes through F somewhere
    between two samples, its distance to F at the nearer sample is at most
    half the inter-sample chord (to first order in the motion), so falling
    inside that margin counts as a failure.
    """
    F = np.asarray(F, dtype=complex)
    if F.shape != Xi.shape:
        raise ParameterError(f"parameter must be {Xi.shape[0]} x {Xi.shape[1]} like the "
                             f"forbidden matrix, got shape {F.shape}")
    failures = []
    if not check_constant_admissible(F, Xi, tol):
        failures.append((None, "A"))
    delta = F.shape[0]
    unit_dev = float(np.abs(F.conj().T @ F - np.eye(delta)).max(initial=0.0))
    if unit_dev > tol.psd_tol:
        failures.append((None, "B"))

    inv = analysis.invertible
    svals = np.linalg.svd(F[None] - analysis.w_tilde[inv], compute_uv=False)
    hit = ~inv
    hit[inv] = svals[:, -1] <= np.maximum(tol.inv_tol * np.maximum(1.0, svals[:, 0]),
                                          analysis.margins[inv])
    failures.extend((float(lam), "C") for lam in analysis.grid[hit])
    return GapClassDecision(accepted=not failures, failures=tuple(failures))


def verify_gap(measure: AtomicMeasure, spec: GapSpec, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when no atom with significant weight lies strictly inside the gap.

    Atoms sitting on interval endpoints are allowed (the gap is open); the
    interior test keeps a gap_tol margin so boundary atoms survive roundoff.
    """
    for t, w in measure.atoms:
        if float(np.trace(w).real) <= tol.gap_tol:
            continue
        if spec.contains(t, margin=tol.gap_tol):
            return False
    return True


@dataclass(frozen=True, eq=False)
class GapSearchResult:
    status: str  # 'found', 'not_regular', 'exhausted'
    F: np.ndarray | None = None
    measure: AtomicMeasure | None = None
    witness: float | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _circular_arcs(mask: np.ndarray):
    """Maximal runs of True in a circular boolean array, as (start, length)."""
    n = mask.size
    if n == 0:
        return []
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    start = int(np.argmin(mask))  # rotate so position 0 is False
    rolled = np.roll(mask, -start)
    arcs = []
    i = 0
    while i < n:
        if rolled[i]:
            j = i
            while j < n and rolled[j]:
                j += 1
            arcs.append(((start + i) % n, j - i))
            i = j
        else:
            i += 1
    return arcs


def _try_candidate(rep, bases, F, xi, analysis, spec, tol):
    decision = check_gap_class(F, xi, analysis, tol)
    if not decision.accepted:
        return None
    try:
        measure = canonical_solution(rep, bases, F, tol)
    except ParameterError:
        return None
    if not verify_gap(measure, spec, tol):
        return None
    count = 2 * rep.d + 1
    recon = measure.moments(count, dim=rep.N)
    gamma = rep.gram()
    dev = 0.0
    for n in range(count):
        p = min(n, rep.d)
        q = n - p
        target = gamma[p * rep.N:(p + 1) * rep.N, q * rep.N:(q + 1) * rep.N]
        dev = max(dev, float(np.abs(recon[n] - target).max(initial=0.0)))
    if dev > tol.moment_tol:
        return None
    return measure


def _feasible_angles(f_vals: np.ndarray, xi: np.ndarray, analysis: GapAnalysis,
                     tol: Tolerances) -> np.ndarray:
    """Class test for unimodular scalars f_vals at once: admissible means staying
    off the forbidden value, condition C means clearing every margin.  The grid
    is scanned ARC_SCAN_BLOCK points at a time."""
    margins = np.maximum(analysis.margins, tol.inv_tol)
    w = analysis.w_tilde[:, 0, 0]
    ok = np.abs(f_vals - complex(xi[0, 0])) > tol.inv_tol
    for start in range(0, w.size, ARC_SCAN_BLOCK):
        block = slice(start, start + ARC_SCAN_BLOCK)
        ok &= np.all(np.abs(f_vals[:, None] - w[None, block]) > margins[None, block], axis=1)
    return ok


def _arc_candidates(xi: np.ndarray, analysis: GapAnalysis, budget: int, tol: Tolerances):
    """At most 64 unimodular 1x1 parameters on the feasible arcs among budget (at least 8)
    angles: widest arc first, each arc sampled in a bisection pattern, widest placements first."""
    thetas = np.linspace(0.0, 2.0 * np.pi, max(int(budget), 8), endpoint=False)
    arcs = _circular_arcs(_feasible_angles(np.exp(1j * thetas), xi, analysis, tol))
    arcs.sort(key=lambda a: -a[1])
    step = 2.0 * np.pi / thetas.size
    offsets = [0.5] + [(2 * k + 1) / (2 * depth) for depth in (4, 8, 16, 32) for k in range(depth)]
    angles = (thetas[start] + frac * (length * step) for start, length in arcs for frac in offsets)
    return (np.array([[np.exp(1j * theta)]]) for theta in itertools.islice(angles, 64))


def gap_solvable_search(rep: HilbertRep, bases: BasisCollection,
                        nc: NevanlinnaCoefficients, spec: GapSpec, budget: int = 1000,
                        tol: Tolerances = DEFAULT_TOL, seed: int = 0,
                        analysis: GapAnalysis | None = None) -> GapSearchResult:
    """One-sided search for a constant unitary parameter compatible with the gap.

    A returned witness is verified through its canonical solution.  An
    exhausted budget is NOT a proof of infeasibility; a grid point of
    non-regular type is, since regular type is necessary for a gap solution.
    """
    if bases.delta == 0:
        raise ParameterError("gap search requires an indeterminate problem")
    if analysis is None:
        analysis = analyze_gap(rep, bases, spec, tol)
    if not analysis.regular_type:
        witness = float(analysis.grid[~analysis.invertible][0])
        return GapSearchResult(status="not_regular", witness=witness)
    xi = nc.Xi
    if bases.delta == 1:
        candidates = _arc_candidates(xi, analysis, budget, tol)
    else:
        rng = np.random.default_rng(seed)
        candidates = (random_unitary(rng, bases.delta) for _ in range(int(budget)))
    for F in candidates:
        measure = _try_candidate(rep, bases, F, xi, analysis, spec, tol)
        if measure is not None:
            return GapSearchResult(status="found", F=F, measure=measure)
    return GapSearchResult(status="exhausted")
