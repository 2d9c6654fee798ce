"""Solutions vanishing on a prescribed open gap, from the unitary colligation.

U = [[a0, W], [Chat, T]] (BasisCollection.colligation, one array per problem with its
blocks as views, the u of the coefficients too, and shared like the eig of a0) has the
characteristic function G(w) = T - Chat (a0 - w I)^{-1} W (Sz.-Nagy and Foias,
Harmonic Analysis of Operators on Hilbert Space, ch. VI).  With
w = (lam+i)/(lam-i), the moving unitary family is W(lam) = w G(w)^{-1}, lam is
of non-regular type exactly when w is a unimodular eigenvalue of a0, and the
canonical solution of a unitary F has its atoms at lam = i(mu+1)/(mu-1) for the
eigenvalues mu of U_F = [[a0, W F], [Chat, T F]] (Krein: the zeros of
det(G(w) F - w I)).  So the eigenvalues of U_F decide whether F puts an atom
inside the gap; nothing is sampled.  nevanlinna.parameter_verdict, the one test
extension_operator makes too, decides unitarity and admissibility (no eigenvalue
within FIXED_POINT_TOL of 1, an atom at infinity) for a whole stack of
parameters from one stacked eigvals; _verdict adds the atoms inside the gap to
its spectra, and check_gap_class is its view of one parameter.  The search takes
its candidates in batches of 1, 2, 4, ... (doubling_batches), and only the
accepted ones go on, in order, to the verification of their canonical solution,
determinate.self_adjoint_extension; no candidate needs a second eigvals or a
second test of codes A and B.  For delta = 1 the candidates are one angle
per arc between the values of W at the gap's finite endpoints (_family, the
only place W is evaluated, reads the residues of G off the defect block of the
residue table of assemble_coefficients, so nothing is solved twice); for delta > 1
they are seeded Haar-random unitaries, drawn in stacks (haar_batches) that hold
the matrices of successive single draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .determinate import self_adjoint_extension, spectral_measure
from .errors import InputError, ParameterError
from .hilbert_space import BasisCollection, HilbertRep
from .moment_model import AtomicMeasure, DEFAULT_TOL, GapSpec, Tolerances
from .nevanlinna import NevanlinnaCoefficients, parameter_verdict, square_parameter
from .solvability import block_hankel

BATCH_CAP = 256  # most candidates a search draws or decides with one numpy call


@dataclass(frozen=True, eq=False)
class GapAnalysis:
    """Closed-form gap data.  u is the bases' r x r colligation array, poles (tau,)
    the eigenvalues of its block a0; non_regular holds the sorted non-regular lam
    inside the gap and grid (n,) the gap's finite endpoints."""

    spec: GapSpec
    u: np.ndarray
    poles: np.ndarray
    non_regular: np.ndarray
    grid: np.ndarray

    @property
    def regular_type(self) -> bool:
        return self.non_regular.size == 0

    def atoms(self, mu: np.ndarray) -> np.ndarray:
        """Sorted lam = i(mu+1)/(mu-1) over the eigenvalues mu of U_F: the atoms of
        the canonical solution of the unitary F, rows for rows of a stack."""
        return np.sort(_real_points(mu), axis=-1)


def _family(nc: NevanlinnaCoefficients, lams: np.ndarray, tol: Tolerances):
    """(invertible, W) at the finite real lams.  The residues (Chat V)[:, j] (V^{-1} W)[j, :]
    of G at the poles mu_j, for a0 = V diag(mu) V^{-1}, are the defect block of the
    pole-residue table that assemble_coefficients built.  lam counts as non-regular
    when w lies within inv_tol of a pole; W is NaN there and nothing is divided."""
    residues = nc.residues[:, nc.N:, nc.N:]
    w = (lams + 1j) / (lams - 1j)
    offsets = w[:, None] - nc.eigenvalues[None, :]
    invertible = np.abs(offsets).min(axis=1, initial=np.inf) > tol.inv_tol
    g = nc.T + np.einsum("nj,jkl->nkl", 1.0 / offsets[invertible], residues)
    out = np.full((lams.size, nc.delta, nc.delta), np.nan, dtype=complex)
    out[invertible] = w[invertible, None, None] * np.linalg.inv(g)
    return invertible, out


def _real_points(mu: np.ndarray) -> np.ndarray:
    """lam = i(mu+1)/(mu-1), real for unimodular mu; mu = 1 maps to infinity."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (1j * (mu + 1.0) / (mu - 1.0)).real


def analyze_gap(rep: HilbertRep, bases: BasisCollection, spec: GapSpec,
                tol: Tolerances = DEFAULT_TOL) -> GapAnalysis:
    """Closed-form gap data from the colligation and the eig of a0.

    Eigenvalues of a0 within inv_tol of the unit circle are non-regular points,
    kept inside the gap by verify_gap's gap_tol margin rule.
    """
    poles = bases.a0_eig[0]
    unimodular = _real_points(poles[np.abs(np.abs(poles) - 1.0) <= tol.inv_tol])
    non_regular = np.sort(unimodular[spec.interior(unimodular, margin=tol.gap_tol)])
    grid = np.array([e for pair in spec.intervals for e in pair if math.isfinite(e)], dtype=float)
    return GapAnalysis(spec=spec, u=bases.colligation, poles=poles,
                       non_regular=non_regular, grid=grid)


@dataclass(frozen=True)
class GapClassDecision:
    accepted: bool
    failures: tuple  # of (lam or None, code) pairs; codes 'A'dmissibility, 'B', 'C'

    def to_json_obj(self) -> dict:
        return {"accepted": self.accepted, "failures": [[lam, code] for lam, code in self.failures]}


def _verdict(F: np.ndarray, analysis: GapAnalysis, tol: Tolerances):
    """(mu, unitary, admissible, inside) for a (k, delta, delta) stack of parameters:
    parameter_verdict's spectra mu, unitarity (code B) and admissibility (code A),
    and the (k, r) mask of the sorted atoms, analysis.atoms(mu), that the gap
    contains with verify_gap's gap_tol margin (code C)."""
    mu, unitary, admissible = parameter_verdict(analysis.u, F, tol)
    inside = analysis.spec.interior(analysis.atoms(mu), margin=tol.gap_tol)
    return mu, unitary, admissible, inside


def check_gap_class(F: np.ndarray, analysis: GapAnalysis,
                    tol: Tolerances = DEFAULT_TOL) -> GapClassDecision:
    """Membership test for a constant parameter against the gap class: _verdict
    for F alone.

    Requires admissibility (A), unitarity within psd_tol (B) and no atom of
    the canonical solution inside the gap (C).  A unitary F fails C at each
    atom lam inside the gap, in increasing order; a non-regular point of the
    gap is an atom of every canonical solution, so it fails C too.  Any other
    F fails B (ParameterError when it is not a contraction).
    """
    F = square_parameter(F, analysis.u.shape[0] - analysis.poles.size)
    (mu,), (unitary,), (admissible,), (inside,) = _verdict(F[None], analysis, tol)
    failures = [] if admissible else [(None, "A")]
    if unitary:
        failures.extend((lam, "C") for lam in analysis.atoms(mu)[inside].tolist())
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


def random_unitary(rng: np.random.Generator, delta: int, size: int) -> np.ndarray:
    """A (size, delta, delta) stack of Haar-random delta x delta unitaries: QR of a
    complex Gaussian matrix with the phases of R's diagonal moved into Q.  Each
    matrix takes its real, then its imaginary delta x delta Gaussians, so a stack
    holds the matrices of size successive draws of one, bit for bit."""
    parts = rng.normal(size=(size, 2, delta, delta))
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


def _arc_candidates(nc: NevanlinnaCoefficients, analysis: GapAnalysis, tol: Tolerances):
    """The (m, 1, 1) stack of one unimodular parameter per arc between the boundary
    values W(e) at the gap's finite endpoints e and Xi = W(+-inf), widest arc first,
    as batches of the doubling_batches lengths.  An atom enters or leaves the gap
    only where F passes a boundary value, so one angle decides its whole arc.  A
    non-finite W(e), at a non-regular endpoint, is skipped."""
    invertible, w_tilde = _family(nc, analysis.grid, tol)
    cuts = np.sort(np.angle(np.append(w_tilde[invertible, 0, 0], nc.Xi[0, 0])))
    widths = np.diff(cuts, append=cuts[0] + 2.0 * np.pi)
    # widest first; the arcs of zero width, if any, sort last and are dropped
    order = np.argsort(-widths, kind="stable")[:np.count_nonzero(widths > 0.0)]
    stack = np.exp(1j * (cuts + 0.5 * widths)[order]).reshape(-1, 1, 1)
    return (stack[start:stop] for start, stop in doubling_batches(order.size))


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
    Candidates come in batches of 1, 2, 4, ..., so the first batch is the first
    candidate alone; each batch gets one _verdict, and a candidate it accepts
    is verified before the next one.  InputError for an analysis of another gap.
    """
    if bases.delta == 0:
        raise ParameterError("gap search requires an indeterminate problem")
    if analysis is None:
        analysis = analyze_gap(rep, bases, spec, tol)
    elif analysis.spec != spec:
        raise InputError(f"gap analysis is for {analysis.spec.intervals}, not {spec.intervals}")
    if not analysis.regular_type:
        return GapSearchResult(status="not_regular", witness=float(analysis.non_regular[0]))
    if bases.delta == 1:
        batches = _arc_candidates(nc, analysis, tol)
    else:
        batches = haar_batches(seed, bases.delta, int(budget))
    for batch in batches:
        _, unitary, admissible, inside = _verdict(batch, analysis, tol)
        for k in np.flatnonzero(unitary & admissible & ~inside.any(axis=-1)):
            measure = spectral_measure(self_adjoint_extension(bases, batch[k]),
                                       rep.first_block())
            if not verify_gap(measure, spec, tol):
                continue
            recon = block_hankel(measure.moments(2 * rep.d + 1), rep.d + 1, rep.N)
            if np.abs(recon - rep.gram).max() <= tol.moment_tol:
                return GapSearchResult(status="found", F=batch[k], measure=measure)
    return GapSearchResult(status="exhausted")
