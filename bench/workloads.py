"""The three benchmark workloads: their instances, ops and output checks.

An op is one user question.  Op classes on which the library fails today
are listed in KNOWN_FAILING: the census pass runs them, the timed phase
does not.  ``Op.run(tr, out)`` makes the library calls that answer it
(the timed part) and stores in ``out`` what the answer needs for
checking, so a raise keeps whatever was computed before it;
``Op.check(out)`` then judges that output outside the timed region and
returns the failure counter it falls under, or None.  Every library call goes
through ``Tracer.call`` so the traced run can attribute time to layers.
"""

from __future__ import annotations

import numpy as np

from instances import Instance, golden_instance, make_instance

import matmom
from matmom import (GapSpec, MomentSequence, ProblemAnalysis, SolvabilityError, Tolerances,
                    analyze, assemble_coefficients, build_all_bases, build_block_hankel,
                    build_determinate_model, build_operator_model, canonical_solution,
                    check_solvable, classify_determinacy, evaluate_transform, factor_gram,
                    find_admissible_unitary, invert_transform, parse_moments,
                    solve_determinate, transform_via_resolvent, verify_gap, verify_moments)
from matmom.gap import analyze_gap, gap_solvable_search
from matmom.moment_model import dumps

TOL = Tolerances()                 # library defaults; moment_tol = 1e-8
DETERMINATE_TOL = 1e-6             # atoms and weights of a determinate solution vs the generator
RESOLVENT_TOL = 1e-8               # evaluate_transform vs transform_via_resolvent (ROADMAP item 3)
NEVANLINNA_TOL = 1e-8              # Im T(z) must be PSD for a positive measure's transform
INVERSION_TOL = 2e-2               # Stieltjes-Perron accuracy stated in the README
CHECK_POINTS = 16                  # evaluate points re-checked per batch
# gap search budget, chosen from measurements in the README: with delta=1 it is the
# number of arc angles (at most 64 candidates are tried), and the CLI default is cheap;
# with delta>1 it is the number of random candidates, and the default costs 3-6 s per op
GAP_BUDGET_ARC = 1000
GAP_BUDGET_RANDOM = 200
GAP_SEED = 0
GOLDEN_DIMS = {"r": 3, "kappa": 2, "kappa_prime": 1, "tau": 2, "delta": 1, "rho": 2,
               "determinate": False}

LADDER = ((1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 4), (4, 3), (4, 6), (6, 8), (3, 12))
LADDER_SPREADS = (0.5, 1.0, 4.0)

LAYER_OF = {  # span name -> per-layer time metric it is reported under
    "moment_model.parse_moments": "moment_model.parse_ms",
    "moment_model.to_json_obj": "moment_model.dumps_ms",
    "moment_model.dumps": "moment_model.dumps_ms",
    "moment_model.verify_moments": "moment_model.verify_ms",
    "solvability.build_block_hankel": "solvability.hankel_ms",
    "solvability.check_solvable": "solvability.check_ms",
    "hilbert_space.factor_gram": "hilbert_space.factor_gram_ms",
    "hilbert_space.build_operator_model": "hilbert_space.operator_model_ms",
    "hilbert_space.build_all_bases": "hilbert_space.bases_ms",
    "hilbert_space.classify_determinacy": "hilbert_space.bases_ms",
    "determinate.build_determinate_model": "determinate.solve_ms",
    "determinate.solve_determinate": "determinate.solve_ms",
    "nevanlinna.assemble_coefficients": "nevanlinna.assemble_ms",
    "nevanlinna.find_admissible_unitary": "nevanlinna.find_unitary_ms",
    "nevanlinna.canonical_solution": "nevanlinna.canonical_ms",
    "nevanlinna.evaluate_transform": "nevanlinna.evaluate_ms",
    "nevanlinna.invert_transform": "nevanlinna.invert_ms",
    "gap.analyze_gap": "gap.analyze_ms",
    "gap.gap_solvable_search": "gap.search_ms",
    "gap.verify_gap": "gap.verify_ms",
}

# Op classes (labels without the realisation) that fail in some or all realisations
# today: RankErrors, false "not solvable" verdicts, measures that miss moment_tol,
# the Vandermonde defect of evaluate_transform, and gap searches that end `exhausted`.
# Also every class that, in the scans of bench/README.md, "Known failures", came within
# 100x of a check's tolerance, or above ten times its own 99th percentile, or whose
# random gap search needed more than a quarter of its budget.  No timed op may fail, so the timed phase leaves these out; the
# census pass runs them once per run and their failures show in the per-layer counts.
KNOWN_FAILING = frozenset((
    # solve-ladder
    "N2d1s4a2", "N2d1s4a4", "N2d2s4a3", "N2d2s4a5", "N2d3s4a3", "N2d3s4a4", "N2d3s4a6",
    "N3d2s1a3", "N3d2s1a5", "N3d2s4a3", "N3d2s4a5",
    "N3d4s1a5", "N3d4s1a7", "N3d4s4a4", "N3d4s4a5", "N3d4s4a7",
    "N4d3s0.5a4", "N4d3s1a4", "N4d3s1a6", "N4d3s4a3", "N4d3s4a4", "N4d3s4a6",
    *(f"N4d6s{s:g}a{a}" for s in LADDER_SPREADS for a in (6, 7, 9) if (s, a) != (1.0, 6)),
    *(f"N{N}d{d}s{s:g}a{a}" for N, d in ((6, 8), (3, 12)) for s in LADDER_SPREADS
      for a in (d, d + 1, d + 3)),
    # transform-sweep
    "sweepN3d2s1a4/evaluate/unitary", "sweepN3d4s1a6/evaluate/unitary",
    # gap-search
    "gapN1d1s1a3/two-piece", "gapN1d2s1a4/two-piece", "gapN2d1s1a3/between0",
    "gapN2d1s1a3/between1", "gapN2d1s1a3/two-piece", "gapN2d2s1a4/between0",
    "gapN2d2s1a4/between2", "gapN2d2s1a4/two-piece", "gapN2d3s4a5/between0",
    "gapN2d3s4a5/between1", "gapN2d3s4a5/between2", "gapN2d3s4a5/between3",
    "gapN3d2s1a4/between0", "gapN3d2s1a4/between1", "gapN3d2s1a4/between2",
    "gapN3d2s1a4/two-piece",
))


def op_label(desc: dict) -> str:
    """An op's class: instance key plus op, parameter and gap, without the realisation."""
    return "/".join(str(desc[k]) for k in ("key", "op", "param", "gap") if k in desc)


# what an op may raise from inside the library; anything else is a benchmark bug
LIBRARY_ERRORS = (matmom.MatMomError, np.linalg.LinAlgError, ArithmeticError, ValueError)


class StageMismatch(Exception):
    """The traced stage sequence disagrees with analyze(); the benchmark is stale."""


ANALYSIS_STAGES = ("solvability.build_block_hankel", "solvability.check_solvable",
                   "hilbert_space.factor_gram", "hilbert_space.build_operator_model",
                   "hilbert_space.build_all_bases", "hilbert_space.classify_determinacy")


def failure_of_exception(call: str, exc: Exception) -> str:
    """Counter for an op that raised inside the library call named ``call``."""
    if isinstance(exc, SolvabilityError):
        return "solvability.false_unsolvable"  # every instance is built from a measure
    layer, _, fn = call.partition(".")
    if layer in ("hilbert_space", "matmom"):
        return "hilbert_space.rank_errors"
    if layer == "nevanlinna":
        if fn == "assemble_coefficients":
            return "nevanlinna.assemble_errors"
        if fn in ("find_admissible_unitary", "canonical_solution"):
            return "nevanlinna.canonical_errors"
        return "nevanlinna.evaluate_errors"
    return f"{layer}.errors"


# ---------------------------------------------------------------------------
# analyze(), whole or as its stages
# ---------------------------------------------------------------------------

def run_analysis(ms: MomentSequence, tr) -> ProblemAnalysis:
    """analyze(ms); the traced run calls its stages one by one to time each layer."""
    if not tr.enabled:
        return tr.call("matmom.analyze", analyze, ms, TOL)
    hankel = tr.call("solvability.build_block_hankel", build_block_hankel, ms)
    report = tr.call("solvability.check_solvable", check_solvable, hankel, TOL)
    if not report.solvable:
        raise SolvabilityError("moment problem is not solvable")
    rep = tr.call("hilbert_space.factor_gram", factor_gram, hankel, TOL, N=ms.N, d=ms.d)
    model = tr.call("hilbert_space.build_operator_model", build_operator_model, rep, TOL)
    bases = tr.call("hilbert_space.build_all_bases", build_all_bases, rep, model, TOL)
    det = tr.call("hilbert_space.classify_determinacy", classify_determinacy, bases)
    return ProblemAnalysis(moments=ms, hankel=hankel, solvability=report, rep=rep,
                           model=model, bases=bases, determinate=det)


def check_stage_sequence(ms: MomentSequence, staged: ProblemAnalysis | None) -> None:
    """The staged analysis must give the dimensions analyze() gives."""
    try:
        whole = analyze(ms, TOL).dimensions()
    except matmom.MatMomError as exc:
        if staged is not None:
            raise StageMismatch(f"analyze() raised {exc!r} where its stages succeeded")
        return
    if staged is None:
        raise StageMismatch("the stages raised where analyze() succeeded")
    if staged.dimensions() != whole:
        raise StageMismatch(f"stages give {staged.dimensions()}, analyze() gives {whole}")


def _measure_payload(measure, ms, tr):
    report = tr.call("moment_model.verify_moments", verify_moments, measure, ms, TOL.moment_tol)
    payload = tr.call("moment_model.to_json_obj", measure.to_json_obj)
    payload["verify"] = report.to_json_obj()
    return report, tr.call("moment_model.dumps", dumps, payload)


def _coeff_info(nc) -> dict:
    """Array sizes of the transform coefficients (computed, not measured)."""
    polys = [nc.A_poly.coeffs, nc.B_poly.coeffs, nc.C_poly.coeffs, nc.D_poly.coeffs,
             nc.k[:, None, None]]
    return {
        "coeff_bytes": sum(c.nbytes for c in polys),
        "max_degree": max(c.shape[0] - 1 for c in polys),
        # Horner reads and writes the p x q accumulator once per coefficient and point
        "bytes_per_point": sum(2 * c.nbytes for c in polys),
    }


# ---------------------------------------------------------------------------
# solve-ladder
# ---------------------------------------------------------------------------

class SolveOp:
    """`check` then `solve` or `canonical` on one JSON document."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.text = inst.json_text()
        self.desc = inst.describe()

    def moments(self) -> MomentSequence:
        return parse_moments(self.text, TOL)

    def run(self, tr, out: dict) -> None:
        ms = tr.call("moment_model.parse_moments", parse_moments, self.text, TOL)
        hankel = tr.call("solvability.build_block_hankel", build_block_hankel, ms)
        out["solvable"] = tr.call("solvability.check_solvable", check_solvable,
                                  hankel, TOL).solvable
        if not out["solvable"]:
            return
        state = out["state"] = run_analysis(ms, tr)
        if state.determinate:
            dm = tr.call("determinate.build_determinate_model", build_determinate_model,
                         state.rep, state.bases)
            measure = tr.call("determinate.solve_determinate", solve_determinate, dm)
        else:
            nc = tr.call("nevanlinna.assemble_coefficients", assemble_coefficients,
                         state.rep, state.bases, TOL)
            out["coeff"] = _coeff_info(nc)
            F = tr.call("nevanlinna.find_admissible_unitary", find_admissible_unitary,
                        nc.Xi, TOL)
            measure = tr.call("nevanlinna.canonical_solution", canonical_solution,
                              state.rep, state.bases, F, TOL)
        out["report"], _ = _measure_payload(measure, ms, tr)
        out["measure"] = measure

    def check(self, out: dict):
        inst = self.inst
        if not out["solvable"]:
            return "solvability.false_unsolvable"
        state = out["state"]
        if inst.key == "golden" and state.dimensions() != GOLDEN_DIMS:
            return "hilbert_space.wrong_determinacy"
        if state.determinate != inst.determinate:
            return "hilbert_space.wrong_determinacy"
        if not out["report"].passed:
            return "moment_model.verify_failures"
        if inst.determinate and not _reproduces(out["measure"], inst):
            return "determinate.measure_mismatches"
        return None


def _reproduces(measure, inst: Instance) -> bool:
    if measure.size != inst.n_atoms:
        return False
    locs = np.array([t for t, _ in measure.atoms])
    weights = np.array([w for _, w in measure.atoms])
    loc_err = float(np.abs(locs - inst.atoms).max())
    w_err = float(np.abs(weights - inst.weights).max())
    return (loc_err <= DETERMINATE_TOL * (1.0 + inst.spread)
            and w_err <= DETERMINATE_TOL * (1.0 + float(np.abs(inst.weights).max())))


def build_solve_ladder(seed: int, rep: int) -> list:
    ops = [SolveOp(golden_instance())]
    for N, d in LADDER:
        for spread in LADDER_SPREADS:
            for n_atoms in (d, d + 1, d + 3):
                ops.append(SolveOp(make_instance(seed, rep, "", N, d, spread, n_atoms)))
    return ops


# ---------------------------------------------------------------------------
# transform-sweep
# ---------------------------------------------------------------------------

SWEEP = ((1, 1, 16384), (2, 1, 8192), (2, 2, 8192), (3, 2, 4096), (3, 4, 4096))  # (N, d, points)
SWEEP_SPREAD = 1.0
GOLDEN_POINTS = 8192
INVERT_SPACING = 4e-5   # below eps_min / 2 = 5e-5
INVERT_MARGIN = 0.5


class Prepared:
    """One analysed and assembled indeterminate instance (set-up of transform-sweep)."""

    def __init__(self, inst: Instance, rng: np.random.Generator, n_points: int):
        self.inst = inst
        state = analyze(MomentSequence.from_matrices(inst.N, inst.d, inst.moments, TOL), TOL)
        self.rep, self.bases = state.rep, state.bases
        self.nc = assemble_coefficients(self.rep, self.bases, TOL)
        self.unitary = find_admissible_unitary(self.nc.Xi, TOL)
        x = rng.uniform(-2.0 * inst.spread, 2.0 * inst.spread, n_points)
        y = 10.0 ** rng.uniform(-2.0, 1.0, n_points)
        z = x + 1j * y
        z[np.abs(z - 1j) < 1e-6] += 0.5  # i is outside the transform's domain
        self.points = z
        self.coeff = _coeff_info(self.nc)


def _schur_parameter(unitary):
    def param(z):
        return ((z - 1j) / (z + 1j)) * unitary
    return param


class EvaluateOp:
    """One evaluate_transform call on a batch of upper half-plane points."""

    def __init__(self, prep: Prepared, kind: str):
        self.prep, self.kind = prep, kind
        self.desc = dict(prep.inst.describe(), op="evaluate", param=kind,
                         points=prep.points.size)
        if kind == "unitary":
            self.param = prep.unitary
        elif kind == "contraction":
            self.param = 0.6 * prep.unitary
        else:
            self.param = _schur_parameter(prep.unitary)
        self.sample = np.linspace(0, prep.points.size - 1, CHECK_POINTS).astype(int)

    def run(self, tr, out: dict) -> None:
        out["points"], out["coeff"] = self.prep.points.size, self.prep.coeff
        values = tr.call("nevanlinna.evaluate_transform", evaluate_transform,
                         self.prep.nc, self.param, self.prep.points, TOL)
        out["values"] = values[self.sample]

    def check(self, out: dict):
        values = out["values"]
        if not np.all(np.isfinite(values)):
            return "nevanlinna.nevanlinna_class_violations"
        if self.kind == "unitary":
            p = self.prep
            ref = transform_via_resolvent(p.rep, p.bases, self.param, p.points[self.sample], TOL)
            err = float(np.abs(values - ref).max())
            return None if err <= RESOLVENT_TOL * (1.0 + float(np.abs(ref).max())) \
                else "nevanlinna.resolvent_mismatches"
        imag = (values - values.conj().transpose(0, 2, 1)) / 2j
        low = float(np.linalg.eigvalsh(imag).min())
        scale = 1.0 + float(np.abs(values).max())
        return None if low >= -NEVANLINNA_TOL * scale else "nevanlinna.nevanlinna_class_violations"


def golden_transform(z, f):
    """Closed-form transform of the golden instance for a scalar parameter f."""
    p = (0.5 - 0.75j) * z - 0.75 + 1.5j
    q = (-0.5 - 0.75j) * z + 0.75 + 1.5j
    out = np.zeros(z.shape + (2, 2), dtype=complex)
    out[:, 0, 0] = ((-1.0 / 3.0) * (z - (9 - 32j) / 26)
                    / ((z + 1j) * (z - (3.0 / 13.0) * (8 - 1j)))
                    + f / (2j * (z + 1j) * p * ((z + 1j) * p + (-z + 1j) * q * f)))
    out[:, 1, 1] = 1.0 / (1.0 - z)
    return out


class GoldenEvaluateOp(EvaluateOp):
    """Unitary evaluation on the golden instance, also checked against its closed form."""

    def __init__(self, prep: Prepared):
        super().__init__(prep, "unitary")

    def check(self, out: dict):
        want = golden_transform(self.prep.points[self.sample], complex(self.param[0, 0]))
        err = float(np.abs(out["values"] - want).max())
        if err > RESOLVENT_TOL * (1.0 + float(np.abs(want).max())):
            return "nevanlinna.resolvent_mismatches"
        return super().check(out)


class InvertOp:
    """Stieltjes-Perron inversion of the canonical transform over a fine grid."""

    def __init__(self, prep: Prepared):
        self.prep = prep
        measure = canonical_solution(prep.rep, prep.bases, prep.unitary, TOL)
        locs = np.array([t for t, _ in measure.atoms])
        self.grid = np.arange(locs.min() - INVERT_MARGIN, locs.max() + INVERT_MARGIN,
                              INVERT_SPACING)
        mids = 0.5 * (locs[1:] + locs[:-1])
        self.probe = np.searchsorted(self.grid, mids)
        cum = np.cumsum([w for _, w in measure.atoms], axis=0)
        self.expected = cum[:-1]          # mass below each midpoint
        self.total = cum[-1]
        self.desc = dict(prep.inst.describe(), op="invert", param="unitary",
                         points=3 * self.grid.size)

    def _evaluate(self, tr):
        nc, F = self.prep.nc, self.prep.unitary
        return lambda z: tr.call("nevanlinna.evaluate_transform", evaluate_transform,
                                 nc, F, z, TOL)

    def run(self, tr, out: dict) -> None:
        out["points"], out["coeff"] = 3 * self.grid.size, self.prep.coeff  # default 3 eps
        dist = tr.call("nevanlinna.invert_transform", invert_transform,
                       self._evaluate(tr), self.grid)
        out["probe"], out["total"] = dist.values[self.probe], dist.total_mass()

    def check(self, out: dict):
        scale = max(1.0, float(np.abs(self.total).max()))
        err = max(float(np.abs(out["total"] - self.total).max()),
                  float(np.abs(out["probe"] - self.expected).max(initial=0.0)))
        return None if err <= INVERSION_TOL * scale else "nevanlinna.inversion_mismatches"


def build_transform_sweep(seed: int, rep: int) -> list:
    rng = np.random.default_rng([seed, rep, 7])
    ops = [GoldenEvaluateOp(Prepared(golden_instance(), rng, GOLDEN_POINTS))]
    for N, d, n_points in SWEEP:
        inst = make_instance(seed, rep, "sweep", N, d, SWEEP_SPREAD, d + 2)
        prep = Prepared(inst, rng, n_points)
        ops.extend(EvaluateOp(prep, kind) for kind in ("unitary", "contraction", "schur"))
        if N == 1:  # the scalar instance keeps the fine inversion grid affordable
            ops.append(InvertOp(prep))
    return ops


# ---------------------------------------------------------------------------
# gap-search
# ---------------------------------------------------------------------------

# (N, d, spread, gaps); N=1 takes the delta=1 arc path, N>1 the random-unitary path.
# Tail grids grow with the spectral bound, so only the cheaper cases carry one.
GAP_CASES = (
    (1, 1, 1.0, ("between", "tail", "two-piece")),
    (1, 2, 1.0, ("between", "tail", "two-piece")),
    (2, 1, 1.0, ("between", "tail", "two-piece")),
    (2, 2, 1.0, ("between", "two-piece")),
    (3, 2, 1.0, ("between", "two-piece")),
    (2, 3, 4.0, ("between",)),
)


def gap_intervals(atoms: np.ndarray, kind: str) -> list:
    """Open intervals the generating measure avoids, a tenth of a spacing clear of atoms."""
    def between(k):
        a, b = atoms[k], atoms[k + 1]
        return (a + 0.1 * (b - a), b - 0.1 * (b - a))
    if kind == "golden":
        return [(-1.0, 1.0)]   # acceptance criterion 5 finds a gap solution here
    if kind.startswith("between"):
        return [between(int(kind[len("between"):]))]
    if kind == "tail":
        return [(atoms[-1] + 0.1 * (atoms[-1] - atoms[-2]), np.inf)]
    return [between(0), between(atoms.size - 2)]   # two-piece


class GapOp:
    """`gap-solve`: analyse, assemble, sample the gap, search, verify."""

    def __init__(self, inst: Instance, kind: str):
        self.inst = inst
        self.ms = MomentSequence.from_matrices(inst.N, inst.d, inst.moments, TOL)
        self.spec = GapSpec.from_intervals(gap_intervals(inst.atoms, kind))
        self.desc = dict(inst.describe(), gap=kind, intervals=self.spec.to_json_obj())

    def moments(self) -> MomentSequence:
        return self.ms

    def run(self, tr, out: dict) -> None:
        state = out["state"] = run_analysis(self.ms, tr)
        nc = tr.call("nevanlinna.assemble_coefficients", assemble_coefficients,
                     state.rep, state.bases, TOL)
        out["coeff"] = _coeff_info(nc)
        analysis = tr.call("gap.analyze_gap", analyze_gap, state.rep, state.bases,
                           self.spec, TOL)
        out["grid_points"] = int(analysis.grid.size)
        budget = GAP_BUDGET_ARC if state.bases.delta == 1 else GAP_BUDGET_RANDOM
        result = tr.call("gap.gap_solvable_search", gap_solvable_search, state.rep,
                         state.bases, nc, self.spec, budget=budget, tol=TOL,
                         seed=GAP_SEED, analysis=analysis)
        out["status"] = result.status
        if result.found:
            out["gap_ok"] = tr.call("gap.verify_gap", verify_gap, result.measure, self.spec, TOL)
            out["report"] = tr.call("moment_model.verify_moments", verify_moments,
                                    result.measure, self.ms, TOL.moment_tol)

    def check(self, out: dict):
        if out["state"].determinate:
            return "hilbert_space.wrong_determinacy"
        if out["status"] != "found":
            return "gap." + out["status"]
        if not out["gap_ok"]:
            return "gap.verify_failures"
        if not out["report"].passed:
            return "moment_model.verify_failures"
        return None


def build_gap_search(seed: int, rep: int) -> list:
    ops = [GapOp(golden_instance(), "golden")]
    for N, d, spread, kinds in GAP_CASES:
        inst = make_instance(seed, rep, "gap", N, d, spread, d + 2, fixed_scale=True)
        for kind in kinds:
            if kind == "between":  # every gap between neighbouring atoms
                ops.extend(GapOp(inst, f"between{k}") for k in range(inst.n_atoms - 1))
            else:
                ops.append(GapOp(inst, kind))
    return ops


WORKLOADS = {
    "solve-ladder": build_solve_ladder,
    "transform-sweep": build_transform_sweep,
    "gap-search": build_gap_search,
}
