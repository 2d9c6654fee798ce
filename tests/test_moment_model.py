import json
import math

import numpy as np
import pytest

from matmom import (AtomicMeasure, GapSpec, InputError, MomentSequence, Tolerances,
                    parse_moments, verify_moments)
from matmom.moment_model import dumps, matrix_from_json, matrix_to_json

from conftest import example21_matrices, moments_from_measure, random_measure

EX21_DOC = json.dumps({
    "N": 2, "d": 1,
    "moments": [
        [[[1 / 3, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1 / 2, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    ],
})


def test_parse_example21():
    ms = parse_moments(EX21_DOC)
    assert ms.N == 2 and ms.d == 1
    for got, want in zip(ms.moments, example21_matrices()):
        assert np.allclose(got, want, atol=0)


def test_parse_zero_sequence():
    doc = json.dumps({"N": 1, "d": 1, "moments": [[[[0, 0]]], [[[0, 0]]], [[[0, 0]]]]})
    ms = parse_moments(doc)
    assert all(np.all(m == 0) for m in ms.moments)


def test_parse_round_trip_identity():
    ms = parse_moments(EX21_DOC)
    again = parse_moments(dumps(ms.to_json_obj()))
    assert again.N == ms.N and again.d == ms.d
    for a, b in zip(again.moments, ms.moments):
        assert np.array_equal(a, b)


def test_parse_rejects_non_hermitian():
    doc = json.dumps({"N": 2, "d": 1, "moments": [
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], [1, 0]], [[0, 0], [1, 0]]],  # S_1[0][1]=1, S_1[1][0]=0
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    ]})
    with pytest.raises(InputError, match="not Hermitian at n=1"):
        parse_moments(doc)


def test_parse_rejects_wrong_count_and_shape():
    with pytest.raises(InputError, match="expected 3"):
        parse_moments(json.dumps({"N": 1, "d": 1, "moments": [[[[0, 0]]]]}))
    with pytest.raises(InputError, match="shape"):
        parse_moments(json.dumps({"N": 2, "d": 1,
                                  "moments": [[[[0, 0]]], [[[0, 0]]], [[[0, 0]]]]}))
    with pytest.raises(InputError, match="malformed"):
        parse_moments("{not json")



def test_rejects_non_finite_numbers():
    one = np.array([[1.0]])
    with pytest.raises(InputError, match="n=1 has non-finite entries"):
        MomentSequence.from_matrices(1, 1, [one, np.array([[np.nan]]), one])
    for bad in ("NaN", "Infinity", "[0, -Infinity]"):
        with pytest.raises(InputError, match="is not finite"):
            parse_moments(EX21_DOC.replace("[1, 0]]]", bad + "]]", 1))
    with pytest.raises(InputError, match="is not finite"):
        AtomicMeasure.from_json_obj({"atoms": [{"t": 0.0, "W": [[math.nan]]}]})

def test_moments_are_symmetrized():
    eps = 1e-12
    doc = json.dumps({"N": 2, "d": 1, "moments": [
        [[[1, 0], [0, eps]], [[0, -eps], [1, 0]]],
        [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    ]})
    ms = parse_moments(doc)
    for m in ms.moments:
        assert np.array_equal(m, m.conj().T)


def test_verify_moments_zero_case():
    empty = AtomicMeasure(atoms=())
    ms = MomentSequence.from_matrices(1, 1, [np.zeros((1, 1))] * 3)
    report = verify_moments(empty, ms, 0.0)
    assert report.passed and report.max_deviation == 0.0


def test_verify_moments_single_atom_marginal():
    measure = AtomicMeasure.from_atoms([(1.0, np.diag([0.0, 1.0]))])
    ms = MomentSequence.from_matrices(2, 1, example21_matrices())
    report = verify_moments(measure, ms, 1.0)
    # the (1,1) marginal of the golden instance is matched exactly by a unit atom at 1
    for n in range(3):
        assert report.deviations[n][1][1] == 0.0
    assert report.deviations[0][0][0] > 0.1


def test_verify_moments_random_round_trip():
    rng = np.random.default_rng(7)
    measure = random_measure(rng, 1, 4)
    ms = moments_from_measure(measure, 1, 2)
    report = verify_moments(measure, ms, 1e-12 * (1 + max(abs(float(m[0, 0].real)) for m in ms.moments)))
    assert report.passed


def test_atomic_measure_validation():
    with pytest.raises(InputError, match="not PSD"):
        AtomicMeasure.from_atoms([(0.0, np.array([[-1.0]]))])
    with pytest.raises(InputError, match="not Hermitian"):
        AtomicMeasure.from_atoms([(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]))])
    with pytest.raises(InputError, match="an 'atoms' list"):
        AtomicMeasure.from_json_obj({"atoms": 5})
    # sorting and merging of coincident support points
    m = AtomicMeasure.from_atoms([(2.0, np.eye(1)), (1.0, np.eye(1)), (1.0, np.eye(1))])
    assert [t for t, _ in m.atoms] == [1.0, 2.0]
    assert m.atoms[0][1][0, 0] == 2.0


def test_measure_json_round_trip():
    rng = np.random.default_rng(3)
    measure = random_measure(rng, 2, 3)
    again = AtomicMeasure.from_json_obj(json.loads(dumps(measure.to_json_obj())))
    assert again.size == measure.size
    for (t1, w1), (t2, w2) in zip(again.atoms, measure.atoms):
        assert t1 == t2
        assert np.abs(w1 - w2).max() < 1e-15


def test_gap_spec_parse():
    spec = GapSpec.parse("(-1,1),(3,inf)")
    assert spec.intervals == ((-1.0, 1.0), (3.0, math.inf))
    assert spec.contains(0.0) and spec.contains(100.0)
    assert not spec.contains(1.0) and not spec.contains(2.0)
    assert GapSpec.parse("").empty
    with pytest.raises(InputError):
        GapSpec.parse("(1,-1)")
    with pytest.raises(InputError):
        GapSpec.parse("(0,2),(1,3)")
    with pytest.raises(InputError):
        GapSpec.parse("nonsense")


def test_dumps_17_digit_round_trip():
    values = [1 / 3, math.pi, 1e-17, 123456.789012345678, 0.1 + 0.2]
    text = dumps(values)
    assert json.loads(text) == values


def test_matrix_json_helpers():
    m = np.array([[1 + 2j, 0], [0.5, -1j]])
    back = matrix_from_json(json.loads(dumps(matrix_to_json(m))))
    assert np.array_equal(back, m)
    # bare numbers read as real entries
    assert np.array_equal(matrix_from_json([[1.0]]), np.array([[1.0 + 0j]]))
    assert np.array_equal(matrix_from_json([[1, 2], [3, 4]])[1, 0], 3 + 0j)


def test_tolerances_must_be_positive():
    with pytest.raises(InputError):
        Tolerances(rank_tol=0.0)
    with pytest.raises(InputError):
        Tolerances(gap_tol=-1e-9)
