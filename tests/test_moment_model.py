import json
import math

import numpy as np
import pytest

from matmom import (AtomicMeasure, GapSpec, InputError, MomentSequence, Tolerances,
                    parse_moments, verify_moments)
from matmom.moment_model import dumps, matrix_from_json, matrix_to_json

from conftest import example21_matrices, moments_from_measure, moments_json, random_measure

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
    again = parse_moments(moments_json(ms))
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
    with pytest.raises(InputError, match=r"must all have one size, got sizes \[1, 2\]"):
        AtomicMeasure.from_atoms([(0.0, np.eye(1)), (1.0, np.eye(2))])
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
    assert spec.interior(np.array([0.0, 100.0, 1.0, 2.0])).tolist() == [True, True, False, False]
    assert GapSpec.parse("").intervals == ()
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


def test_from_matrices_requires_integer_dimensions():
    mats = [np.eye(1)] * 3
    for N, d in ((1.0, 1), (1, 1.0), (True, 1), (1, True), ("1", 1)):
        with pytest.raises(InputError, match="N and d must be integers"):
            MomentSequence.from_matrices(N, d, mats)
    ms = MomentSequence.from_matrices(np.int64(1), np.int32(1), mats)
    assert type(ms.N) is int and type(ms.d) is int and (ms.N, ms.d) == (1, 1)


def test_from_matrices_names_the_first_offending_matrix():
    ok = np.eye(2)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    inf = np.array([[1.0, np.inf], [0.0, 1.0]])  # Hermitian deviation and scale both inf
    small = np.eye(1)
    cases = [
        ([skew, nan, ok], "not Hermitian at n=0: max deviation 1.000e+00"),
        ([ok, nan, skew], "moment matrix n=1 has non-finite entries"),
        ([nan, ok, small], "moment matrix n=0 has non-finite entries"),
        ([ok, small, nan], "moment matrix n=1 has shape (1, 1), expected (2, 2)"),
        ([ok, ok, inf], "moment matrix n=2 has non-finite entries"),
        ([ok, skew, [[1.0, 2.0]]], "not Hermitian at n=1: max deviation 1.000e+00"),
    ]
    for mats, message in cases:
        with pytest.raises(InputError) as err:
            MomentSequence.from_matrices(2, 1, mats)
        assert str(err.value) == message


def test_stacked_validation_equals_per_matrix_hermitize():
    rng = np.random.default_rng(11)
    for n_dim, d in ((1, 1), (2, 3), (3, 2)):
        raw = random_measure(rng, n_dim, d + 2).moments(2 * d + 1, dim=n_dim)
        # a Hermitian defect well inside hermitian_tol, which symmetrization removes
        raw = [m + 1e-13 * rng.normal(size=m.shape) for m in raw]
        ms = MomentSequence.from_matrices(n_dim, d, raw)
        assert len(ms.moments) == 2 * d + 1
        for got, m in zip(ms.moments, raw):
            want = 0.5 * (m + m.conj().T)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_complex_entries_accepted_and_rejected():
    got = matrix_from_json([[1, 2.5, [3, -4.0], (0.5, 6), [-0.0, 0]]])
    assert np.array_equal(got, np.array([[1, 2.5, 3 - 4j, 0.5 + 6j, 0]], dtype=complex))
    for bad in (True, "1.0", None, [1], [1, 2, 3], [True, 0], [0, "1"], {"re": 1}):
        with pytest.raises(InputError) as err:
            matrix_from_json([[bad]])
        assert str(err.value) == f"bad complex entry {bad!r} (expected number or [re, im])"
    for bad in ([math.nan, 0], [0, math.inf], math.inf):
        with pytest.raises(InputError) as err:
            matrix_from_json([[bad]])
        assert str(err.value) == f"complex entry {bad!r} is not finite"


def _reference_dumps(obj) -> str:
    """The element-by-element formatter that dumps must match byte for byte."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_reference_dumps(v) for v in obj]) + "]"
    if isinstance(obj, dict):
        parts = [f"{json.dumps(str(k))}: {_reference_dumps(v)}" for k, v in obj.items()]
        return "{" + ", ".join(parts) + "}"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _reference_dumps(obj.tolist())
    if isinstance(obj, complex):
        return _reference_dumps([obj.real, obj.imag])
    raise TypeError(type(obj).__name__)


def test_dumps_matches_reference_formatter():
    rng = np.random.default_rng(5)
    measure = random_measure(rng, 2, 3)
    payloads = [
        [], [[]], [1.5], [1 / 3, -0.0, 0.0, 1e300, 5e-324],
        [math.nan, 1.0], [1.0, math.inf], [-math.inf], [1.0, 2], [2.0, True], [1.0, None],
        [np.float64(0.1), 0.2], (0.5, 0.25), [1.0, [2.0, 3.0]], [1.0, "x"],
        {"a": [1.0, -0.0], "b": {"c": [math.nan, math.inf, -math.inf], "d": []},
         "e": [True, False, None, 3, np.int64(4), np.float32(0.1), "sé"]},
        {"m": np.array([[1.0, -0.0], [np.nan, 2.5]]), "z": [1 + 2j, complex(0.0, -0.0)]},
        measure.to_json_obj(),
        # regular float blocks of depth 2 to 4, the last a stack of [re, im] matrices
        [[1.0, 2.0], [3.0, -0.0]], [[0.5]], [[[1e-300, 5e-324], [-1e300, 0.1]]],
        rng.normal(size=(3, 2, 2, 2)).tolist(), rng.normal(size=(1, 7)).tolist(),
        (rng.normal(size=(16, 16)) * 10.0 ** rng.integers(-320, 300, size=(16, 16))).tolist(),
        # ragged blocks, one with a regular flat count
        [[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
        [[[1.0, 2.0]], [[3.0]]], [[[1.0, 2.0]], [3.0, 4.0]], [[1.0, 2.0], 3.0],
        # blocks holding NaN, infinities, -0.0, an int or a bool at depth
        [[1.0, math.nan], [2.0, 3.0]], [[[math.inf, 1.0]], [[-math.inf, -0.0]]],
        [[-0.0, -0.0], [0.0, -0.0]], [[1.0, 2], [3.0, 4.0]], [[1.0, True], [False, 0.0]],
        [[1.0, None]], [[1.0, "2"]],
        # empty lists, tuples, numpy scalars and dicts with keys of other types
        [[], []], [[[]]], [[], [1.0]], [[1.0], []], ((1.0, 2.0), (3.0, 4.0)),
        [(1.0, 2.0), [3.0, 4.0]], ([1.0, 2.0], [3.0, 4.0]),
        [[np.float64(1.0), 2.0]], [[np.float32(0.1), 1.0]], [np.int64(3), 1.0],
        {1: [[1.0]], None: -0.0, 2.5: [math.nan], False: {"t": 1.0}, (1, 2): [[2.0, 1.0]]},
        {"t": 0.25, "W": [[[1.0, 0.0], [0.0, -0.5]], [[0.0, 0.5], [2.0, 0.0]]]},
    ]
    for payload in payloads:
        assert dumps(payload) == _reference_dumps(payload)
        assert dumps(payload) == _reference_dumps(payload)  # once more, from the caches
    assert dumps([[1.0, True]]) == "[[1, true]]"


def test_matrix_to_json_keeps_every_float_and_sign():
    m = np.array([[1 / 3 - 0.0j, complex(-0.0, 2e-310)], [np.inf, complex(0, -np.nan)]])
    got = matrix_to_json(m)
    want = [[[float(v.real), float(v.imag)] for v in row] for row in m]
    assert type(got[0][0][0]) is float
    assert repr(got) == repr(want)
    assert repr(matrix_to_json(m.T)) == repr([[[float(v.real), float(v.imag)] for v in row]
                                              for row in m.T])


def cumprod_moments(measure, count, dim):
    """The former AtomicMeasure.moments: np.ones, then np.cumprod of the powers."""
    out = np.zeros((count, dim, dim), dtype=complex)
    if not measure.atoms:
        return out
    factors = np.ones((measure.size, count))
    factors[:, 1:] = np.array([t for t, _ in measure.atoms])[:, None]
    weights = np.array([w for _, w in measure.atoms], dtype=complex)
    for term in np.cumprod(factors, axis=1)[:, :, None, None] * weights[:, None]:
        out += term
    return out


def test_moments_equal_the_cumprod_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    for n_dim, n_atoms in [(1, 1), (1, 5), (2, 4), (3, 7), (4, 2)]:
        measure = random_measure(rng, n_dim, n_atoms, spread=rng.uniform(0.5, 6.0), min_gap=0.1)
        for count in (0, 1, 2, 5, 13):
            assert measure.moments(count, n_dim).tobytes() \
                == cumprod_moments(measure, count, n_dim).tobytes()
    empty = AtomicMeasure(atoms=())
    assert empty.moments(3, 2).tobytes() == cumprod_moments(empty, 3, 2).tobytes()


def test_measure_arrays_are_built_once_and_read_only():
    measure = random_measure(np.random.default_rng(18), 2, 3)
    for name in ("locations", "weights"):
        array = getattr(measure, name)
        assert getattr(measure, name) is array
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert measure.locations.tolist() == [t for t, _ in measure.atoms]
    assert all(np.array_equal(w, ref) for w, (_, ref) in zip(measure.weights, measure.atoms))
