"""Deterministic benchmark instances built from jittered atomic measures.

Every instance is the moment sequence of a known finitely atomic matrix
measure, so its true answers are fixed by construction: it is solvable,
it is determinate exactly when the measure has fewer than d+1 atoms, and
a gap placed between (or beyond) its atoms is avoided by it.

Atoms sit one per cell of a regular lattice on [-spread, spread], shifted
by at most a quarter cell.  Neighbours therefore stay at least half a cell
apart without any rejection sampling, so generation always terminates.
Weights are uniformly positive definite.  Only the moments (or their JSON
text) are handed to the library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

GOLDEN_MOMENTS = (np.diag([1.0 / 3.0, 1.0]), np.diag([0.5, 1.0]), np.eye(2))


@dataclass(frozen=True, eq=False)
class Instance:
    """One generated moment problem and the measure it came from."""

    key: str
    N: int
    d: int
    spread: float
    n_atoms: int
    moments: tuple      # 2d+1 (N, N) complex arrays
    atoms: np.ndarray   # (n_atoms,) sorted locations; empty for the golden instance
    weights: np.ndarray  # (n_atoms, N, N)
    determinate: bool   # fewer than d+1 full-rank atoms span fewer than (d+1)N dims

    def describe(self) -> dict:
        return {"key": self.key, "N": self.N, "d": self.d, "spread": self.spread,
                "atoms": self.n_atoms}

    def json_text(self) -> str:
        """Input document in the CLI schema; floats round-trip exactly."""
        mats = [[[[float(v.real), float(v.imag)] for v in row] for row in m]
                for m in self.moments]
        return json.dumps({"N": self.N, "d": self.d, "moments": mats})


def jittered_measure(rng: np.random.Generator, N: int, n_atoms: int, spread: float):
    cell = 2.0 * spread / n_atoms
    jitter = rng.uniform(-0.25, 0.25, n_atoms)
    atoms = -spread + cell * (np.arange(n_atoms) + 0.5 + jitter)
    g = rng.normal(size=(n_atoms, N, N)) + 1j * rng.normal(size=(n_atoms, N, N))
    weights = g @ g.conj().transpose(0, 2, 1) / N + 0.15 * np.eye(N)
    return atoms, weights


def power_moments(atoms: np.ndarray, weights: np.ndarray, count: int) -> tuple:
    powers = atoms[None, :] ** np.arange(count)[:, None]  # (count, n_atoms)
    return tuple(np.einsum("na,aij->nij", powers, weights))


def top_eigenvalue(moments: tuple, d: int) -> float:
    """Largest eigenvalue of the (d+1)N block Hankel moment matrix."""
    hankel = np.block([[moments[i + j] for j in range(d + 1)] for i in range(d + 1)])
    return float(np.linalg.eigvalsh(hankel)[-1])


def make_instance(seed: int, rep: int, tag: str, N: int, d: int, spread: float,
                  n_atoms: int, fixed_scale: bool = False) -> Instance:
    """Realisation ``rep`` of an (N, d, spread, atoms) instance for workload ``seed``.

    With ``fixed_scale`` the weights are scaled so that the largest eigenvalue
    of the moment matrix is the same in every realisation: that of the
    unjittered lattice with every weight at its expected value, 2.15 I.
    """
    # the instance seed mixes the workload seed with the instance identity, so
    # adding or removing one instance leaves every other instance unchanged
    ident = [seed, rep, N, d, int(round(spread * 1000)), n_atoms, sum(map(ord, tag))]
    rng = np.random.default_rng(ident)
    atoms, weights = jittered_measure(rng, N, n_atoms, spread)
    if fixed_scale:
        lattice = -spread + 2.0 * spread / n_atoms * (np.arange(n_atoms) + 0.5)
        expected = np.broadcast_to(2.15 * np.eye(N), weights.shape)
        weights *= (top_eigenvalue(power_moments(lattice, expected, 2 * d + 1), d)
                    / top_eigenvalue(power_moments(atoms, weights, 2 * d + 1), d))
    key = f"{tag}N{N}d{d}s{spread:g}a{n_atoms}"
    return Instance(key=key, N=N, d=d, spread=spread, n_atoms=n_atoms,
                    moments=power_moments(atoms, weights, 2 * d + 1),
                    atoms=atoms, weights=weights, determinate=n_atoms < d + 1)


def golden_instance() -> Instance:
    """The 2x2, d=1 example of the acceptance suite, verbatim."""
    # spread 1 is the scale of its canonical atoms, which lie in [0, 1.5]
    return Instance(key="golden", N=2, d=1, spread=1.0, n_atoms=0,
                    moments=tuple(np.asarray(m, dtype=complex) for m in GOLDEN_MOMENTS),
                    atoms=np.zeros(0), weights=np.zeros((0, 2, 2), dtype=complex),
                    determinate=False)
