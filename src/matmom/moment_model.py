"""Data model for matrix power moment problems.

Holds the input moment sequences, atomic matrix measures, gap
specifications and tolerances, together with JSON/CSV serialization and
the moment-reconstruction check.

Complex scalars are serialized as two-element ``[re, im]`` lists; a bare
number is accepted on input and read as a real value.  Every Hermitian
matrix read from outside, the moments and a measure's weights, is judged
by one rule, ``hermitian_stack``, on its stacked array.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import re
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .errors import InputError


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
        for name in TOLERANCE_NAMES:
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InputError(f"tolerance {name} must be a positive finite number, got {value!r}")


TOLERANCE_NAMES = tuple(f.name for f in fields(Tolerances))
DEFAULT_TOL = Tolerances()


def hermitize(m: np.ndarray) -> np.ndarray:
    """Exactly Hermitian symmetrization (m + m*)/2."""
    return 0.5 * (m + m.conj().T)


def hermitian_stack(stack: np.ndarray, tol: float, what: str, label: Callable[[int], str]):
    """((M + M*)/2, 1 + max|M|) item by item for a (k, m, m) stack read from outside.
    Every M must have finite entries, a finite 2 (1 + max|M|) (no modulus
    overflows, nor M + M*) and max|M - M*| <= tol (1 + max|M|); else InputError
    names the first M that fails by its label(i), such as "n=3"."""
    adjoint = stack.conj().swapaxes(1, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # huge or infinite entries fail below
        dev = np.abs(stack - adjoint).max(axis=(1, 2), initial=0.0)
        scale = 1.0 + np.abs(stack).max(axis=(1, 2), initial=0.0)
        # an inf entry can pass the Hermitian test as inf <= inf, so twice the scale
        # must be finite too, which also keeps M + M* finite; a NaN fails both
        ok = (dev <= tol * scale) & (2.0 * scale < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))  # the first that fails
        if not np.isfinite(stack[i]).all():
            raise InputError(f"{what} {label(i)} has non-finite entries")
        if scale[i] == math.inf:  # finite entries whose modulus overflows
            raise InputError(f"{what} {label(i)} has an entry whose modulus overflows")
        if not dev[i] <= tol * scale[i]:
            raise InputError(f"not Hermitian at {label(i)}: max deviation {dev[i]:.3e}")
        raise InputError(f"{what} {label(i)} has an entry too large to symmetrize "
                         f"(largest modulus {scale[i] - 1.0:.3e})")
    return 0.5 * (stack + adjoint), scale


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """A prescribed sequence of 2d+1 Hermitian N x N moment matrices."""

    N: int
    d: int
    moments: np.ndarray  # (2d+1, N, N) complex, symmetrized

    @staticmethod
    def from_matrices(N: int, d: int, matrices: Sequence[np.ndarray],
                      tol: Tolerances = DEFAULT_TOL) -> "MomentSequence":
        if not (_is_integer(N) and _is_integer(d)):
            raise InputError(f"N and d must be integers, got N={N!r}, d={d!r}")
        if N < 1 or d < 1:
            raise InputError(f"N and d must be positive integers, got N={N}, d={d}")
        if len(matrices) != 2 * d + 1:
            raise InputError(f"expected {2 * d + 1} moment matrices for d={d}, got {len(matrices)}")
        try:
            stack = np.array(matrices, dtype=complex)
        except (TypeError, ValueError):  # ragged or non-numeric: the loop below names the culprit
            stack = None
        if stack is None or stack.shape != (2 * d + 1, N, N):
            for n, raw in enumerate(matrices):
                m = np.asarray(raw, dtype=complex)
                if m.shape != (N, N):
                    # the matrices before it are judged first, so the first offender is named
                    hermitian_stack(np.array(matrices[:n], dtype=complex).reshape(n, N, N),
                                    tol.hermitian_tol, "moment matrix", "n={}".format)
                    raise InputError(f"moment matrix n={n} has shape {m.shape}, expected {(N, N)}")
        # symmetrized so downstream eigensolvers see exactly Hermitian input
        moments, _ = hermitian_stack(stack, tol.hermitian_tol, "moment matrix", "n={}".format)
        return MomentSequence(N=int(N), d=int(d), moments=moments)

    @property
    def count(self) -> int:
        return 2 * self.d + 1


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """A finitely atomic matrix measure: PSD weight matrices at real points.

    The measure is its two arrays, both made read-only on construction: the
    (n,) atom locations, strictly increasing, and the (n, N, N) stack of the
    weights in atom order.  The associated distribution function M(x) = sum of
    weights at points below x is non-decreasing and left-continuous by
    construction.
    """

    locations: np.ndarray  # (n,) real
    weights: np.ndarray    # (n, N, N) Hermitian PSD

    def __post_init__(self):
        self.locations.setflags(write=False)
        self.weights.setflags(write=False)

    @staticmethod
    def from_atoms(pairs: Iterable, N: int, tol: Tolerances = DEFAULT_TOL) -> "AtomicMeasure":
        """The measure of the (t, W) pairs, every W N x N; no pairs give (0, N, N) weights."""
        locations, raw = [], []
        for t, w in pairs:
            t = float(t)
            if not math.isfinite(t):
                raise InputError(f"atom location must be finite, got {t!r}")
            w = np.asarray(w, dtype=complex)
            if w.shape != (N, N):
                raise InputError(f"measure weights must be {N} x {N} like the moments, "
                                 f"got shape {w.shape} at t={t}")
            locations.append(t)
            raw.append(w)
        stack = np.array(raw, dtype=complex).reshape(len(raw), N, N)
        weights, scale = hermitian_stack(stack, tol.hermitian_tol, "weight at",
                                         lambda i: f"t={locations[i]}")
        lam_min = np.linalg.eigvalsh(weights).min(axis=1, initial=0.0)
        bad = np.flatnonzero(lam_min < -tol.psd_tol * scale)
        if bad.size:
            raise InputError(f"weight at t={locations[bad[0]]} is not PSD "
                             f"(min eigenvalue {lam_min[bad[0]]:.3e})")
        # sorted stably, and the weights at numerically identical points summed in order
        order = np.argsort(locations, kind="stable")
        t = np.array(locations)[order]
        starts = np.flatnonzero(np.diff(t, prepend=-math.inf) > 0.0)
        return AtomicMeasure(locations=t[starts],
                             weights=np.add.reduceat(weights[order], starts, axis=0))

    @property
    def atoms(self) -> tuple:
        """The (t, W) pairs in atom order: t a float, W a view into weights."""
        return tuple(zip(self.locations.tolist(), self.weights))

    @property
    def size(self) -> int:
        return self.locations.size

    def moments(self, count: int) -> np.ndarray:
        """(count, N, N) power moments sum_j t_j^n W_j for n = 0 .. count-1, by direct
        summation: t_j^n is the running product 1 t_j ... t_j (one multiply.accumulate,
        what np.cumprod calls), every t_j^n W_j is one product, and the terms are added
        onto zero in atom order.  An overflow gives inf or NaN, with no warning."""
        out = np.zeros((count,) + self.weights.shape[1:], dtype=complex)
        factors = np.empty((self.size, count))
        factors[:, :1] = 1.0
        factors[:, 1:] = self.locations[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.multiply.accumulate(factors, axis=1)
            for term in powers[:, :, None, None] * self.weights[:, None]:
                out += term
        return out

    def to_json_obj(self) -> dict:
        weights = matrix_to_json(self.weights)  # every weight with one tolist
        return {"atoms": [{"t": t, "W": w} for t, w in zip(self.locations.tolist(), weights)]}

    @staticmethod
    def from_json_obj(obj: dict, N: int, tol: Tolerances = DEFAULT_TOL) -> "AtomicMeasure":
        if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
            raise InputError("measure document must be an object with an 'atoms' list")
        pairs = []
        for entry in obj["atoms"]:
            if not isinstance(entry, dict) or "t" not in entry or "W" not in entry:
                raise InputError("each atom must be an object with 't' and 'W'")
            if not _is_number(entry["t"]):
                raise InputError(f"atom location must be a number, got {entry['t']!r}")
            pairs.append((entry["t"], matrix_from_json(entry["W"])))
        return AtomicMeasure.from_atoms(pairs, N, tol)


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

    def interior(self, t: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Boolean array of t's shape: True where t lies in an open interval, at least
        margin away from its endpoints."""
        inside = np.zeros(t.shape, dtype=bool)
        for a, b in self.intervals:
            inside |= (a + margin < t) & (t < b - margin)
        return inside

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

def _is_number(value) -> bool:
    """True for a JSON number: an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


_JSON_REALS = (int, float)  # the types json.loads gives numbers; type(True) is bool


def _as_complex(entry) -> complex:
    # the common entry, an [re, im] list of two JSON numbers, is tested first
    if (type(entry) is list and len(entry) == 2
            and type(entry[0]) in _JSON_REALS and type(entry[1]) in _JSON_REALS):
        value = complex(entry[0], entry[1])
    elif _is_number(entry):
        value = complex(entry)
    else:
        raise InputError(f"bad complex entry {entry!r} (expected number or [re, im])")
    if not cmath.isfinite(value):
        raise InputError(f"complex entry {entry!r} is not finite")
    return value


def matrix_from_json(rows) -> np.ndarray:
    """Read a complex matrix from nested lists; innermost [re, im] pairs are complex."""
    if not isinstance(rows, list) or not rows:
        raise InputError("matrix must be a non-empty list of rows")
    data = []
    for row in rows:
        if not isinstance(row, list) or not row:
            raise InputError("matrix row must be a non-empty list")
        data.append([_as_complex(entry) for entry in row])
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise InputError("matrix rows have inconsistent lengths")
    return np.array(data, dtype=complex)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(np.float64).reshape(m.shape + (2,)).tolist()


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
    if not (_is_integer(N) and _is_integer(d)):
        raise InputError("'N' and 'd' must be integers")
    raw = obj["moments"]
    if not isinstance(raw, list):
        raise InputError("'moments' must be a list of matrices")
    matrices = [matrix_from_json(entry) for entry in raw]
    return MomentSequence.from_matrices(N, d, matrices, tol)


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    # 17 significant digits round-trip doubles exactly
    return format(float(x), ".17g")


_FLOAT_ONLY = {float}
_LIST_ONLY = {list}


def _float_block(seq):
    """(shape, values) of seq when it is a regular nested list of floats, with values
    the floats in row-major order, else None.  Only exact float and list types pass,
    so a bool, an int, a numpy scalar or a tuple inside leaves the block."""
    shape, level = [], [seq]
    while True:
        widths = set(map(len, level))
        if len(widths) != 1:
            return None
        shape.append(widths.pop())
        # a list, not a tuple: tuples built straight from this iterator raised the
        # peak RSS of printing the solve-ladder payloads by about 2 MB
        items = list(chain.from_iterable(level))
        kinds = set(map(type, items))
        if kinds == _FLOAT_ONLY:
            return tuple(shape), tuple(items)
        if kinds != _LIST_ONLY:
            return None
        level = items


@lru_cache(maxsize=64)
def _block_template(shape: tuple) -> str:
    """The %-template that prints a float block of this shape as dumps does."""
    text = "%.17g"
    for width in reversed(shape):
        text = "[" + ", ".join([text] * width) + "]"
    return text


@lru_cache(maxsize=256)
def _quoted(key: str) -> str:
    return json.dumps(key)


def dumps(obj) -> str:
    """Deterministic JSON with every float printed to 17 significant digits.

    Floats, lists and dicts, which make up measure payloads, are tested first;
    none of them is a bool, an int, None or a str.  A regular nested list of
    floats, such as a weight matrix of [re, im] pairs, is printed by one
    %-template per shape; any other list, or a block holding NaN or an
    infinity, is walked element by element."""
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (list, tuple)):
        block = _float_block(obj)
        if block is not None:
            text = _block_template(block[0]) % block[1]
            # .17g spells nan and inf with an n, which no finite float's digits contain
            if "n" not in text:
                return text
        return "[" + ", ".join([dumps(v) for v in obj]) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join([f"{_quoted(str(k))}: {dumps(v)}" for k, v in obj.items()]) + "}"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
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
    """Compare direct-summation moments of the measure against the prescribed ones; a
    reconstructed moment that overflows deviates by infinity.  InputError when the
    weights are not N x N like the moments (from_atoms refuses those already)."""
    recon = measure.moments(ms.count)
    if recon.shape != ms.moments.shape:  # (n, 1, 1) or (0, 0, 0) weights would broadcast
        raise InputError(f"measure weights must be {ms.N} x {ms.N} like the moments, "
                         f"got {recon.shape[-1]} x {recon.shape[-1]}")
    with np.errstate(over="ignore"):  # two finite moments may differ by more than a double
        devs = np.where(np.isfinite(recon), np.abs(recon - ms.moments), np.inf)
    return MomentCheckReport(deviations=devs, tol=float(tol))


# ---------------------------------------------------------------------------
# CSV distribution output
# ---------------------------------------------------------------------------

def write_distribution_csv(fh: IO[str], measure: AtomicMeasure) -> None:
    """Write the left-continuous distribution function of the measure, N x N like its
    weights, as CSV with one column pair per entry.

    One row below the support, one at each atom (its pre-jump value) and one past
    the last atom carrying the total mass; the empty measure is one zero row at 0.
    The masses are the running sums 0, 0 + w_0, ... of the weights in atom order.
    """
    t, dim = measure.locations, measure.weights.shape[-1]
    lam = np.concatenate([t[:1] - 1.0, t, t[-1:] + 1.0]) if t.size else np.zeros(1)
    mass = np.zeros((lam.size, dim, dim), dtype=complex)
    if t.size:
        mass[2:] = measure.weights
    np.cumsum(mass, axis=0, out=mass)
    writer = csv.writer(fh)
    writer.writerow(["lambda"] + [f"m_{{{k},{l}}}_{part}" for k in range(dim)
                                  for l in range(dim) for part in ("re", "im")])
    for x, row in zip(lam.tolist(), mass.view(np.float64).reshape(lam.size, -1).tolist()):
        writer.writerow([_format_float(x), *map(_format_float, row)])
