"""Matrix and vector codecs: one array step for well-formed payloads, the
entry-by-entry walk, with its message and path, for anything else."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pfaffrep import SchemaError
from pfaffrep import jsonio as io
from conftest import random_pencil

_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0])
_FLOATS = st.one_of(_SPECIAL, st.floats(allow_nan=False, allow_infinity=False))


def _complex_arrays(ndim):
    shape = hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=6)
    return shape.flatmap(lambda s: hnp.arrays(np.float64, (*s, 2), elements=_FLOATS)).map(
        lambda a: a.view(complex)[..., 0])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.float64).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(_complex_arrays(1), _complex_arrays(2))
def test_round_trip_keeps_every_bit(v, m):
    for a, enc, dec, per_entry in (
            (v, io.enc_vector, io.dec_vector, lambda a: [io.enc_complex(z) for z in a]),
            (m, io.enc_matrix, io.dec_matrix,
             lambda a: [[io.enc_complex(z) for z in row] for row in a])):
        text = json.dumps(enc(a))
        assert text == json.dumps(per_entry(a))
        back = dec(json.loads(text))
        assert back.dtype == complex and back.shape == a.shape
        assert np.array_equal(_bits(back), _bits(a))


def test_negative_zero_real_parts_survive():
    doc = [[-0.0, 1.0], [-0.0, -0.0], [0, -0.0]]
    v = io.dec_vector(doc)
    assert np.signbit(v.real).tolist() == [True, True, False]
    assert np.signbit(v.imag).tolist() == [False, True, True]
    assert io.enc_vector(v) == [[-0.0, 1.0], [-0.0, -0.0], [0.0, -0.0]]


def _walk_vector(obj, path="$"):
    """The entry-by-entry decoder: each pair through ``dec_complex``."""
    if not isinstance(obj, list):
        raise SchemaError("expected a list of [re, im] pairs", path)
    return np.array([io.dec_complex(z, f"{path}[{i}]") for i, z in enumerate(obj)],
                    dtype=complex)


def _walk_matrix(obj, path="$"):
    if not isinstance(obj, list) or not obj:
        raise SchemaError("expected a nonempty list of rows", path)
    rows = [_walk_vector(r, f"{path}[{i}]") for i, r in enumerate(obj)]
    if len({len(r) for r in rows}) != 1:
        raise SchemaError("ragged matrix", path)
    return np.array(rows)


def _outcome(dec, obj):
    try:
        a = dec(obj, "$.payload.m")
    except SchemaError as exc:
        return "error", str(exc)
    return "ok", a.shape, _bits(a).tolist()


_BIG = 10 ** 400
MATRIX_CASES = {
    "boolean": [[[True, 0.0], [0.0, 1.0]]],
    "boolean imaginary part": [[[1.0, 0.0]], [[0.0, False]]],
    "string": [[["1.0", 0.0]]],
    "one-entry pair": [[[1.0, 0.0], [2.0]]],
    "three-entry pair": [[[1.0, 0.0, 3.0], [2.0, 0.0]]],
    "ragged rows": [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]],
    "empty row": [[[1.0, 0.0]], []],
    "only an empty row": [[]],
    "too shallow": [[1.0, 0.0], [2.0, 0.0]],
    "too deep": [[[[1.0, 0.0]]]],
    "integer out of double range": [[[1.0, 0.0], [_BIG, 0]]],
    "negative integer out of double range": [[[0.0, -_BIG]]],
    "tuple row": [([1.0, 0.0],)],
    "tuple pair": [[(1.0, 2.0), [3.0, 4.0]]],
    "null entry": [[None]],
    "empty matrix": [],
    "not a list": {"re": 1.0},
}
VECTOR_CASES = {
    "boolean": [[1.0, 0.0], [True, 1.0]],
    "string": [["x", "y"]],
    "one-entry pair": [[1.0]],
    "three-entry pair": [[1.0, 2.0, 3.0]],
    "too deep": [[[1.0, 0.0]]],
    "too shallow": [1.0, 0.0],
    "integer out of double range": [[0, 1], [_BIG, 1]],
    "empty": [],
    "not a list": "1+2j",
}


@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_matrix_decoder_fails_as_the_walk_does(case):
    obj = MATRIX_CASES[case]
    assert _outcome(io.dec_matrix, obj) == _outcome(_walk_matrix, obj)


@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
def test_vector_decoder_fails_as_the_walk_does(case):
    obj = VECTOR_CASES[case]
    assert _outcome(io.dec_vector, obj) == _outcome(_walk_vector, obj)


def test_out_of_range_integers_are_schema_errors_at_the_entry():
    with pytest.raises(SchemaError, match=r"out of double range \(at \$\.m\[1\]\[0\]\)"):
        io.dec_matrix([[[0, 0], [0, 0]], [[0, _BIG], [0, 0]]], "$.m")
    with pytest.raises(SchemaError, match=r"\(at \$\)"):
        io.dec_complex([-_BIG, 0])
    # within double range, integers convert as float() does
    assert io.dec_vector([[2 ** 53 + 1, -(10 ** 300)]])[0] == complex(2 ** 53 + 1, -(10 ** 300))


def test_a_d7_pencil_decodes_without_per_entry_calls(monkeypatch):
    P = random_pencil(np.random.default_rng(7), 14)
    doc = json.loads(json.dumps(io.enc_pencil(P)))

    def forbidden(*args):
        raise AssertionError("dec_complex called")
    monkeypatch.setattr(io, "dec_complex", forbidden)
    Q = io.dec_pencil(doc)
    for a, b in ((P.A0, Q.A0), (P.A1, Q.A1), (P.A2, Q.A2)):
        assert np.array_equal(_bits(a), _bits(b))
