"""The one field rule of ``jsonio.dec_fields``, shared by every CLI payload
and every wire object with named fields."""

import pytest

from pfaffrep import LinearForm, SchemaError, conint, kernel_at, sample_curve_points, type2
from pfaffrep import jsonio as io
from pfaffrep.cli import dispatch, parse_problem
from pfaffrep.quartic import CUBIC_FIELDS
from conftest import random_pencil

_ONE = [[[1.0, 0.0]]]
_PT = [[1.0, 0.0], [0.5, 0.0], [0.25, 0.0]]


def _error(dec, obj, *args) -> str:
    with pytest.raises(SchemaError) as exc:
        dec(obj, *args)
    return str(exc.value)


def test_fields_decode_in_declaration_order():
    obj = {"n": 3, "rho": [0.5, -1.0], "point": _PT, "vs": [[[1.0, 0.0]], [[0.0, 2.0]]]}
    n, rho, pt, vs, m, opt = io.dec_fields(
        "n:int rho:complex point vs:vector[] m:int=7 opt:poly=null", obj)
    assert (n, rho, m, opt) == (3, 0.5 - 1j, 7, None)
    assert pt.coords.tolist() == [1, 0.5, 0.25]
    assert [v.tolist() for v in vs] == [[1 + 0j], [2j]]


def test_a_list_default_is_fresh_for_each_object():
    first = io.dec_fields("xs:int[]=[]", {})[0]
    first.append(1)
    assert io.dec_fields("xs:int[]=[]", {}) == [[]]


def test_explicit_null_reads_as_absent_only_where_the_default_is_null():
    assert io.dec_fields("opt:poly=null", {"opt": None}) == [None]
    assert _error(io.dec_fields, "n:int=3", {"n": None}) == \
        "expected a nonnegative integer (at $.n)"
    assert _error(io.dec_fields, "xs:int[]=[]", {"xs": None}) == "expected a list (at $.xs)"
    assert _error(io.dec_fields, "m:matrix", {"m": None}) == \
        "expected a nonempty list of rows (at $.m)"
    assert _error(io.dec_fields, "n:int", [], "$.x") == "expected an object (at $.x)"


def test_a_missing_field_is_named_at_its_own_path(rng):
    doc = io.enc_pencil(random_pencil(rng, 4))
    assert _error(io.dec_fields, "n:int", {}, "$.x") == "missing n (at $.x.n)"
    with pytest.raises(SchemaError, match=r"^missing pencil \(at \$\.payload\.pencil\)$"):
        dispatch(parse_problem({"kind": "pf", "payload": {}}))
    no_a2 = {k: v for k, v in doc.items() if k != "A2"}
    with pytest.raises(SchemaError, match=r"^missing A2 \(at \$\.payload\.pencil\.A2\)$"):
        dispatch(parse_problem({"kind": "pf", "payload": {"pencil": no_a2}}))
    assert _error(io.dec_detrep, {"M0": _ONE, "M2": _ONE}) == "missing M1 (at $.M1)"
    coeffs = {name: [1.0, 0.0] for name in CUBIC_FIELDS[:-1]}
    assert _error(io.dec_cubic_coeffs, coeffs, "$.c") == "missing w122 (at $.c.w122)"
    assert _error(io.dec_record, {"kind": "II", "gamma_before": _ONE}, "$.r[0]") == \
        "missing gamma_after (at $.r[0].gamma_after)"


def test_pencil_degree_field(rng):
    doc = io.enc_pencil(random_pencil(rng, 4))
    assert io.dec_pencil({**doc, "d": None}).half_deg == 2
    assert _error(io.dec_pencil, {**doc, "d": -2}) == "expected a nonnegative integer (at $.d)"
    assert _error(io.dec_pencil, {**doc, "d": 3}).startswith("declared d=3 but")


def test_a_cubic_coefficient_is_a_scalar_or_a_linear_form():
    assert io.dec_coeff([0.5, 2.0]) == 0.5 + 2j
    assert io.dec_coeff(_PT) == LinearForm(1, 0.5, 0.25)
    assert _error(io.dec_coeff, [[1.0, 0.0]], "$.w") == \
        "a linear form needs exactly three coefficient pairs (at $.w)"


def _records(rng):
    P = random_pencil(rng, 4)
    pts = [c.pt for c in sample_curve_points(P.pfaffian(), 2, seed=5)]
    vecs = [kernel_at(P, pt).v1 for pt in pts]
    return [type2(P, pts[0], vecs[0], 0.3 - 0.2j)[1],
            conint(P, pts, vecs, [0.5, -0.25])[1]]


def test_a_record_with_explicit_nulls_decodes_as_one_without(rng):
    for rec in _records(rng):
        full = io.enc_value(rec)
        assert None in full.values()  # enc_value writes absent fields as null
        bare = {k: v for k, v in full.items() if v is not None}
        assert io.enc_value(io.dec_record(full)) == io.enc_value(io.dec_record(bare)) == full
        assert io.dec_record(full).lam == rec.lam


def test_scorza_accepts_an_explicit_null_expectation(quartic_example):
    payload = {"quartic": io.enc_poly(quartic_example)}
    bare, null = (dispatch(parse_problem({"kind": "scorza", "payload": p}))
                  for p in (payload, {**payload, "expected": None}))
    assert null["outputs"] == bare["outputs"]
    assert null["residuals"] == bare["residuals"] == {}
