"""Data model for matrix power moment problems.

Holds the input moment sequences, atomic matrix measures, gap
specifications and tolerances, together with JSON/CSV serialization and
the moment-reconstruction check.

Complex scalars are serialized as two-element ``[re, im]`` lists; a bare
number is accepted on input and read as a real value.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import re
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import InputError

_TOL_FIELDS = ("hermitian_tol", "psd_tol", "rank_tol", "inv_tol", "moment_tol", "gap_tol")


@dataclass(frozen=True)
class Tolerances:
    """Numerical cutoffs used throughout the pipeline.

    hermitian_tol and psd_tol are relative to ``1 + max-abs-entry`` (Hermitian
    checks) resp. the largest eigenvalue (PSD checks); rank_tol governs
    Gram-Schmidt discards and eigenvalue truncation; inv_tol decides
    invertibility of small dense matrices; moment_tol bounds moment
    reconstruction deviations; gap_tol is the atom-in-gap detection margin.
    """

    hermitian_tol: float = 1e-10
    psd_tol: float = 1e-10
    rank_tol: float = 1e-10
    inv_tol: float = 1e-10
    moment_tol: float = 1e-8
    gap_tol: float = 1e-8

    def __post_init__(self):
        for name in _TOL_FIELDS:
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InputError(f"tolerance {name} must be a positive finite number, got {value!r}")


DEFAULT_TOL = Tolerances()


def hermitize(m: np.ndarray) -> np.ndarray:
    """Exactly Hermitian symmetrization (m + m*)/2."""
    return 0.5 * (m + m.conj().T)


def hermitian_deviation(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """A prescribed sequence of 2d+1 Hermitian N x N moment matrices."""

    N: int
    d: int
    moments: tuple  # of (N, N) complex ndarrays, symmetrized

    @staticmethod
    def from_matrices(N: int, d: int, matrices: Sequence[np.ndarray],
                      tol: Tolerances = DEFAULT_TOL) -> "MomentSequence":
        if N < 1 or d < 1:
            raise InputError(f"N and d must be positive integers, got N={N}, d={d}")
        if len(matrices) != 2 * d + 1:
            raise InputError(f"expected {2 * d + 1} moment matrices for d={d}, got {len(matrices)}")
        cleaned = []
        for n, raw in enumerate(matrices):
            m = np.asarray(raw, dtype=complex)
            if m.shape != (N, N):
                raise InputError(f"moment matrix n={n} has shape {m.shape}, expected {(N, N)}")
            if not np.isfinite(m).all():
                raise InputError(f"moment matrix n={n} has non-finite entries")
            dev = hermitian_deviation(m)
            scale = 1.0 + float(np.abs(m).max(initial=0.0))
            if dev > tol.hermitian_tol * scale:
                raise InputError(f"not Hermitian at n={n}: max deviation {dev:.3e}")
            # symmetrize so downstream eigensolvers see exactly Hermitian input
            cleaned.append(hermitize(m))
        return MomentSequence(N=N, d=d, moments=tuple(cleaned))

    @property
    def count(self) -> int:
        return 2 * self.d + 1

    def to_json_obj(self) -> dict:
        return {
            "N": self.N,
            "d": self.d,
            "moments": [matrix_to_json(m) for m in self.moments],
        }


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """A finitely atomic matrix measure: PSD weight matrices at real points.

    Atom locations are strictly increasing; the associated distribution
    function M(x) = sum of weights at points below x is non-decreasing and
    left-continuous by construction.
    """

    atoms: tuple  # of (t, W) pairs, t real, W (N, N) Hermitian PSD

    @staticmethod
    def from_atoms(pairs: Iterable, tol: Tolerances = DEFAULT_TOL) -> "AtomicMeasure":
        items = []
        for t, raw in pairs:
            t = float(t)
            if not math.isfinite(t):
                raise InputError(f"atom location must be finite, got {t!r}")
            w = np.asarray(raw, dtype=complex)
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise InputError(f"weight matrix must be square, got shape {w.shape}")
            scale = 1.0 + float(np.abs(w).max(initial=0.0))
            if hermitian_deviation(w) > tol.psd_tol * scale:
                raise InputError(f"weight at t={t} is not Hermitian")
            w = hermitize(w)
            lam_min = float(np.linalg.eigvalsh(w).min(initial=0.0)) if w.size else 0.0
            if lam_min < -tol.psd_tol * scale:
                raise InputError(f"weight at t={t} is not PSD (min eigenvalue {lam_min:.3e})")
            items.append((t, w))
        items.sort(key=lambda p: p[0])
        # canonicalize: merge weights sitting at numerically identical points
        merged: list = []
        for t, w in items:
            if merged and t - merged[-1][0] <= 0.0:
                merged[-1] = (merged[-1][0], merged[-1][1] + w)
            else:
                merged.append((t, w))
        return AtomicMeasure(atoms=tuple(merged))

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def dim(self) -> int:
        return self.atoms[0][1].shape[0] if self.atoms else 0

    def moments(self, count: int, dim: int | None = None) -> list:
        """Power moments sum_j t_j^n W_j for n = 0 .. count-1 (direct summation)."""
        n_dim = self.dim if dim is None else dim
        out = [np.zeros((n_dim, n_dim), dtype=complex) for _ in range(count)]
        for t, w in self.atoms:
            power = 1.0
            for n in range(count):
                out[n] += power * w
                power *= t
        return out

    def prune(self, weight_tol: float) -> "AtomicMeasure":
        kept = tuple((t, w) for t, w in self.atoms if float(np.trace(w).real) > weight_tol)
        return AtomicMeasure(atoms=kept)

    def to_json_obj(self) -> dict:
        return {"atoms": [{"t": t, "W": matrix_to_json(w)} for t, w in self.atoms]}

    @staticmethod
    def from_json_obj(obj: dict, tol: Tolerances = DEFAULT_TOL) -> "AtomicMeasure":
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise InputError("measure document must be an object with an 'atoms' list")
        pairs = []
        for entry in obj["atoms"]:
            if not isinstance(entry, dict) or "t" not in entry or "W" not in entry:
                raise InputError("each atom must be an object with 't' and 'W'")
            pairs.append((entry["t"], matrix_from_json(entry["W"])))
        return AtomicMeasure.from_atoms(pairs, tol)


@dataclass(frozen=True)
class GapSpec:
    """A finite union of pairwise disjoint open intervals on the real line.

    Endpoints may be -inf / +inf.  Intervals are kept sorted.
    """

    intervals: tuple  # of (a, b) float pairs, a < b, b_k <= a_{k+1}

    @staticmethod
    def from_intervals(pairs: Iterable) -> "GapSpec":
        items = []
        for a, b in pairs:
            a, b = float(a), float(b)
            if math.isnan(a) or math.isnan(b):
                raise InputError("interval endpoints must not be NaN")
            if not a < b:
                raise InputError(f"interval ({a}, {b}) is empty or reversed")
            items.append((a, b))
        items.sort()
        for (a0, b0), (a1, b1) in zip(items, items[1:]):
            if b0 > a1:
                raise InputError(f"intervals ({a0}, {b0}) and ({a1}, {b1}) overlap")
        return GapSpec(intervals=tuple(items))

    @staticmethod
    def parse(text: str) -> "GapSpec":
        """Parse '(-1,1),(3,inf)' style interval lists.  Empty string means no gap."""
        text = text.strip()
        if not text:
            return GapSpec(intervals=())
        chunks = re.findall(r"\(([^()]*)\)", text)
        leftover = re.sub(r"\(([^()]*)\)", "", text).replace(",", "").strip()
        if not chunks or leftover:
            raise InputError(f"cannot parse interval list: {text!r}")
        pairs = []
        for chunk in chunks:
            parts = [p.strip() for p in chunk.split(",")]
            if len(parts) != 2:
                raise InputError(f"interval needs exactly two endpoints: ({chunk})")
            pairs.append((_parse_endpoint(parts[0]), _parse_endpoint(parts[1])))
        return GapSpec.from_intervals(pairs)

    @property
    def empty(self) -> bool:
        return not self.intervals

    def contains(self, t: float, margin: float = 0.0) -> bool:
        """True when t lies in the open interior, at least margin away from endpoints."""
        for a, b in self.intervals:
            if a + margin < t < b - margin:
                return True
        return False

    def to_json_obj(self) -> list:
        return [[a, b] for a, b in self.intervals]


def _parse_endpoint(token: str) -> float:
    low = token.lower()
    if low in ("inf", "+inf", "infinity"):
        return math.inf
    if low in ("-inf", "-infinity"):
        return -math.inf
    try:
        return float(token)
    except ValueError as exc:
        raise InputError(f"bad interval endpoint {token!r}") from exc


# ---------------------------------------------------------------------------
# JSON input / output
# ---------------------------------------------------------------------------

def _as_complex(entry) -> complex:
    if isinstance(entry, bool):
        raise InputError(f"bad complex entry {entry!r}")
    if isinstance(entry, (int, float)):
        value = complex(entry)
    elif (isinstance(entry, (list, tuple)) and len(entry) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)):
        value = complex(entry[0], entry[1])
    else:
        raise InputError(f"bad complex entry {entry!r} (expected number or [re, im])")
    if not cmath.isfinite(value):
        raise InputError(f"complex entry {entry!r} is not finite")
    return value


def matrix_from_json(rows) -> np.ndarray:
    """Read a complex matrix from nested lists; innermost [re, im] pairs are complex."""
    if not isinstance(rows, (list, tuple)) or not rows:
        raise InputError("matrix must be a non-empty list of rows")
    data = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or not row:
            raise InputError("matrix row must be a non-empty list")
        data.append([_as_complex(entry) for entry in row])
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise InputError("matrix rows have inconsistent lengths")
    return np.array(data, dtype=complex)


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def parse_moments(text: str, tol: Tolerances = DEFAULT_TOL) -> MomentSequence:
    """Parse the JSON input document into a validated MomentSequence.

    Schema: {"N": int, "d": int, "moments": [matrix, ...]} with 2d+1 matrices,
    each an N-row list of N-entry rows of [re, im] pairs.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON document: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("input document must be a JSON object")
    for key in ("N", "d", "moments"):
        if key not in obj:
            raise InputError(f"input document is missing the '{key}' field")
    N, d = obj["N"], obj["d"]
    if not isinstance(N, int) or not isinstance(d, int):
        raise InputError("'N' and 'd' must be integers")
    raw = obj["moments"]
    if not isinstance(raw, list):
        raise InputError("'moments' must be a list of matrices")
    matrices = [matrix_from_json(entry) for entry in raw]
    return MomentSequence.from_matrices(N, d, matrices, tol)


def serialize_moments(ms: MomentSequence) -> str:
    return dumps(ms.to_json_obj())


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    # 17 significant digits round-trip doubles exactly
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Deterministic JSON with every float printed to 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = [f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items()]
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, complex):
        return dumps([obj.real, obj.imag])
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Moment reconstruction check
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MomentCheckReport:
    """Entrywise deviations between reconstructed and prescribed moments."""

    deviations: np.ndarray  # (2d+1, N, N) absolute deviations
    tol: float

    @property
    def max_per_moment(self) -> list:
        return [float(self.deviations[n].max(initial=0.0)) for n in range(self.deviations.shape[0])]

    @property
    def max_deviation(self) -> float:
        return float(self.deviations.max(initial=0.0))

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "max_deviation": self.max_deviation,
            "max_per_moment": self.max_per_moment,
        }


def verify_moments(measure: AtomicMeasure, ms: MomentSequence, tol: float) -> MomentCheckReport:
    """Compare direct-summation moments of the measure against the prescribed ones."""
    recon = measure.moments(ms.count, dim=ms.N)
    devs = np.array([np.abs(recon[n] - ms.moments[n]) for n in range(ms.count)])
    return MomentCheckReport(deviations=devs, tol=float(tol))


# ---------------------------------------------------------------------------
# CSV distribution output
# ---------------------------------------------------------------------------

def distribution_csv_rows(measure: AtomicMeasure, dim: int | None = None):
    """Breakpoint samples of the left-continuous distribution function.

    Emits one row below the support, one row at each atom (pre-jump value)
    and one row past the last atom carrying the total mass.
    """
    n_dim = measure.dim if dim is None else dim
    if not measure.atoms:
        yield 0.0, np.zeros((n_dim, n_dim), dtype=complex)
        return
    first_t = measure.atoms[0][0]
    yield first_t - 1.0, np.zeros((n_dim, n_dim), dtype=complex)
    running = np.zeros((n_dim, n_dim), dtype=complex)
    for t, w in measure.atoms:
        yield t, running.copy()
        running = running + w
    yield measure.atoms[-1][0] + 1.0, running


def write_distribution_csv(fh: IO[str], dim: int, rows: Iterable) -> None:
    """Write (lambda, matrix) samples as CSV with one column pair per entry."""
    writer = csv.writer(fh)
    header = ["lambda"]
    for k in range(dim):
        for l in range(dim):
            header += [f"m_{{{k},{l}}}_re", f"m_{{{k},{l}}}_im"]
    writer.writerow(header)
    for lam, mat in rows:
        mat = np.asarray(mat, dtype=complex)
        row = [_format_float(float(lam))]
        for k in range(dim):
            for l in range(dim):
                row += [_format_float(float(mat[k, l].real)), _format_float(float(mat[k, l].imag))]
        writer.writerow(row)
