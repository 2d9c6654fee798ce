"""One rule for the Hermitian matrices read from outside (moments and measure weights),
and the distribution CSV written from the measure's arrays."""

import io
import json

import numpy as np
import pytest

from matmom import AtomicMeasure, InputError, MomentSequence
from matmom.moment_model import write_distribution_csv

from conftest import (former_distribution_csv, moments_from_measure, moments_json,
                      random_measure, run_cli)
from test_cli import EX21_DOC


def test_from_atoms_refuses_a_nan_weight():
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(InputError) as err:
        AtomicMeasure.from_atoms([(0.5, np.eye(2)), (1.5, nan)])
    assert str(err.value) == "weight at t=1.5 has non-finite entries"


def test_from_atoms_names_the_first_offender():
    """Every location and shape is judged before any weight value; the weights are then
    judged in input order, Hermitian (with finite entries) before PSD."""
    eye = np.eye(2)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    big = np.array([[1.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 1.0]])
    cases = [
        ([(0.0, skew), (1.0, nan), (np.inf, eye)], "atom location must be finite, got inf"),
        ([(0.0, skew), (1.0, np.ones(3))], "weight matrix must be square, got shape (3,)"),
        ([(0.0, nan), (1.0, np.eye(3))], "weight matrices must all have one size, got sizes [2, 3]"),
        ([(2.0, eye), (1.0, nan), (0.0, skew)], "weight at t=1.0 has non-finite entries"),
        ([(2.0, big), (1.0, skew)], "weight at t=2.0 has an entry whose modulus overflows"),
        ([(0.0, -eye), (1.0, skew)], "not Hermitian at t=1.0: max deviation 1.000e+00"),
        ([(0.0, eye), (1.0, -eye), (-1.0, -2.0 * eye)],
         "weight at t=1.0 is not PSD (min eigenvalue -1.000e+00)"),
    ]
    for pairs, message in cases:
        with pytest.raises(InputError) as err:
            AtomicMeasure.from_atoms(pairs)
        assert str(err.value) == message


def test_overflowing_hermitian_deviation_is_judged_without_a_warning():
    """M - M* overflows for finite entries of opposite sign near the largest double; the
    rule refuses it as not Hermitian, with no RuntimeWarning (an error under pytest)."""
    skew = np.array([[1.0, 1e308], [-1e308, 1.0]])
    with pytest.raises(InputError) as err:
        MomentSequence.from_matrices(2, 1, [skew, np.eye(2), np.eye(2)])
    assert str(err.value) == "not Hermitian at n=0: max deviation inf"
    with pytest.raises(InputError) as err:
        AtomicMeasure.from_atoms([(0.25, skew)])
    assert str(err.value) == "not Hermitian at t=0.25: max deviation inf"


def _csv(measure):
    fh = io.StringIO()
    write_distribution_csv(fh, measure)
    return fh.getvalue()


def test_csv_writer_prints_the_former_bytes():
    rng = np.random.default_rng(29)
    measures = [(random_measure(rng, n_dim, n_atoms, spread=rng.uniform(0.5, 6.0), min_gap=0.1),
                 n_dim) for n_dim, n_atoms in [(1, 1), (1, 6), (2, 3), (3, 5), (4, 2)]]
    # signed zeros in every entry of the first weight: the running sum from +0 drops them
    zeros = np.full((2, 2), complex(-0.0, -0.0))
    signed = AtomicMeasure(locations=np.array([-0.0, 0.75]),
                           weights=np.array([zeros, zeros + np.eye(2)]))
    measures += [(signed, 2),
                 (AtomicMeasure(locations=np.zeros(0),
                                weights=np.zeros((0, 2, 2), dtype=complex)), 2),
                 (AtomicMeasure(locations=np.zeros(0), weights=np.zeros((0, 3, 3), dtype=complex)), 3)]
    for measure, dim in measures:
        assert _csv(measure) == former_distribution_csv(measure, dim)
    assert _csv(signed).splitlines()[2].startswith("-0,0,0,")


def _printed_measure(stdout, dim):
    """The measure a command printed, every float as printed ("-0" kept negative)."""
    atoms = json.loads(stdout, parse_int=float)["atoms"]
    weights = np.array([[[complex(*entry) for entry in row] for row in atom["W"]]
                        for atom in atoms], dtype=complex)
    return AtomicMeasure(locations=np.array([atom["t"] for atom in atoms], dtype=float),
                         weights=weights.reshape(len(atoms), dim, dim))


def test_cli_csv_files_are_the_former_bytes(tmp_path):
    determinate = moments_from_measure(random_measure(np.random.default_rng(31), 2, 2), 2, 2)
    (tmp_path / "det.json").write_text(moments_json(determinate))
    (tmp_path / "ex21.json").write_text(EX21_DOC)
    csv_path = tmp_path / "dist.csv"
    for args in (("solve", "det.json"), ("canonical", "ex21.json", "--F", "[[1,0]]"),
                 ("gap-solve", "ex21.json", "--delta", "(-1,1)")):
        proc = run_cli(args[0], str(tmp_path / args[1]), *args[2:], "--csv", str(csv_path))
        assert proc.returncode == 0, proc.stderr
        measure = _printed_measure(proc.stdout, 2)
        assert measure.size >= 2
        assert csv_path.read_bytes().decode() == former_distribution_csv(measure, 2)
