"""Truncated matrix Hamburger moment problems with an odd number of moments.

Decides solvability and determinacy, computes the explicit
linear-fractional parametrization of all solutions in the indeterminate
case, produces finitely atomic solutions, and decides/solves the variant
where the measure must vanish on a prescribed open gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EvaluationError, InputError, MatMomError, ParameterError,
                     RankError, SolvabilityError)
from .moment_model import (AtomicMeasure, GapSpec, MomentCheckReport, MomentSequence,
                           Tolerances, parse_moments, verify_moments)
from .solvability import HankelPair, SolvabilityReport, build_block_hankel, check_solvable
from .hilbert_space import (BasisCollection, HilbertRep, OperatorModel, OrthoBasisSet,
                            build_all_bases, build_operator_model, classify_determinacy,
                            factor_gram)
from .determinate import DeterminateModel, build_determinate_model, solve_determinate
from .matpoly import MatrixPolynomial
from .nevanlinna import (NevanlinnaCoefficients, SampledDistribution, assemble_coefficients,
                         canonical_solution, evaluate_transform, find_admissible_unitary,
                         forbidden_matrix, invert_transform, transform_via_resolvent)
from .gap import (GapAnalysis, GapClassDecision, GapSearchResult, analyze_gap,
                  check_gap_class, gap_solvable_search, verify_gap)

__all__ = [
    "AtomicMeasure", "BasisCollection", "DeterminateModel", "EvaluationError",
    "GapAnalysis", "GapClassDecision", "GapSearchResult", "GapSpec", "HankelPair",
    "HilbertRep", "InputError", "MatMomError", "MatrixPolynomial", "MomentCheckReport",
    "MomentSequence", "NevanlinnaCoefficients", "OperatorModel", "OrthoBasisSet",
    "ParameterError", "ProblemAnalysis", "RankError", "SampledDistribution",
    "SolvabilityError", "SolvabilityReport", "Tolerances", "analyze", "analyze_gap",
    "assemble_coefficients", "build_all_bases", "build_block_hankel",
    "build_determinate_model", "build_operator_model", "canonical_solution",
    "check_gap_class", "check_solvable",
    "classify_determinacy", "evaluate_transform", "factor_gram",
    "find_admissible_unitary", "forbidden_matrix", "gap_solvable_search",
    "invert_transform", "parse_moments", "solve_determinate", "transform_via_resolvent",
    "verify_gap", "verify_moments",
]


@dataclass(frozen=True, eq=False)
class ProblemAnalysis:
    """Full pipeline state for one solvable moment problem."""

    moments: MomentSequence
    hankel: HankelPair
    solvability: SolvabilityReport
    rep: HilbertRep
    model: OperatorModel
    bases: BasisCollection
    determinate: bool

    def dimensions(self) -> dict:
        return {
            "r": self.rep.r,
            "kappa": self.bases.kappa,
            "kappa_prime": self.bases.kappa_prime,
            "tau": self.bases.tau,
            "delta": self.bases.delta,
            "rho": self.bases.rho,
            "determinate": self.determinate,
        }


def analyze(ms: MomentSequence, tol: Tolerances | None = None) -> ProblemAnalysis:
    """Run solvability, factorization and all basis constructions.

    Raises SolvabilityError when the problem has no solution at all.
    """
    tol = tol or Tolerances()
    hankel = build_block_hankel(ms)
    report = check_solvable(hankel, tol)
    if not report.solvable:
        raise SolvabilityError(
            f"moment problem is not solvable (min eigenvalue {report.min_eigenvalue:.3e}, "
            f"kernel inclusion defect {report.kernel_inclusion_defect:.3e})")
    rep = factor_gram(hankel, tol, N=ms.N, d=ms.d)
    model = build_operator_model(rep, tol)
    bases = build_all_bases(rep, model, tol)
    return ProblemAnalysis(
        moments=ms,
        hankel=hankel,
        solvability=report,
        rep=rep,
        model=model,
        bases=bases,
        determinate=classify_determinacy(bases),
    )
