"""The library's immutable records: construction, defaults, validation,
repr, equality, hashing, immutability and copies, for every record class."""

import copy
import math
import pickle

import numpy as np
import pytest

from pfaffrep import (BridgeResult, BundleCheckReport, CanonicalReport, CubicCoeffs,
                      CurvePoint, DetRep, HomPoly, KernelBasis, LinearForm, PairClassification,
                      PolarTriangle, ProjPoint, ScorzaRelation, SkewPencil, StructureReport,
                      SymDetRep, ThetaIdentification, TolerancePolicy, TransformRecord)
from pfaffrep import jsonio as io
from pfaffrep.quartic import CUBIC_FIELDS

_PT = ProjPoint(1, 2, 3j)
_J = np.array([[0, 1], [-1, 0]], dtype=complex)
_PENCIL = SkewPencil(_J, 2 * _J, 3 * _J)
_BASIS = KernelBasis(_PT, np.eye(2, dtype=complex), 0.0)
_LINE = LinearForm(1, 2, 3)

# class -> field values in declaration order
VALUES = {
    TolerancePolicy: {"zero_tol": 1e-10, "rank_tol": 1e-9, "match_tol": 1e-5},
    LinearForm: {"c0": 1 + 0j, "c1": 2j, "c2": -0.5 + 0j},
    DetRep: {"M0": np.array([[1.0 + 0j]]), "M1": np.array([[2.0 + 0j]]),
             "M2": np.array([[3.0 + 0j]])},
    KernelBasis: {"point": _PT, "vectors": np.eye(2, dtype=complex), "residual": 1e-15},
    CanonicalReport: {"roots": [1j, 2.0], "basis_change": np.eye(2, dtype=complex),
                      "pencil": _PENCIL, "residual": 0.0},
    StructureReport: {"is_decomposable_form": True, "is_symmetric_blocks": False,
                      "free_parameter_count": 3},
    CurvePoint: {"pt": _PT, "curve_residual": 2e-16},
    PairClassification: {"kind": "admissible", "kappa": _J, "basis_lambda": _BASIS,
                         "basis_mu": _BASIS, "special_vectors": None},
    TransformRecord: {"kind": "II", "lam": _PT, "mu": None, "v": np.ones(2, dtype=complex),
                      "u": None, "rho": 0.5 - 1j, "k_value": None, "conint_data": None,
                      "gamma_before": _J, "gamma_after": 2 * _J},
    BundleCheckReport: {"identity_residual": 1e-12, "zero_patterns": {"a": 0.0},
                        "transport_angle": 1e-9, "parameter_independence": 0.0},
    CubicCoeffs: {name: complex(k, -k) for k, name in enumerate(CUBIC_FIELDS)},
    PolarTriangle: {"lines": (_LINE, _LINE, _LINE), "vertices": (_PT, _PT, _PT),
                    "residual": 1e-14},
    ScorzaRelation: {"related": True, "residuals": (1e-16, 0.0, 2e-16)},
    ThetaIdentification: {"index": 2, "evidence": [{"point": _PT}]},
    BridgeResult: {"records": [], "pencil": _PENCIL, "off_pattern_norm": 0.0,
                   "converged": True, "history": [0.5, 0.0]},
}

# records whose field values are all hashable, so the record is too
HASHABLE = {TolerancePolicy, LinearForm, StructureReport, CurvePoint, CubicCoeffs,
            PolarTriangle, ScorzaRelation}

CLASSES = sorted(VALUES, key=lambda c: c.__name__)


def _fields(rec, names):
    return tuple(getattr(rec, n) for n in names)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_by_position_and_keyword(cls):
    values = VALUES[cls]
    by_pos, by_kw = cls(*values.values()), cls(**values)
    reordered = cls(**dict(reversed(values.items())))
    for rec in (by_pos, by_kw, reordered):
        for name, value in values.items():
            got = getattr(rec, name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(got, value)
            else:
                assert got is value or got == value
    assert by_pos == by_kw == reordered
    assert list(vars(by_pos)) == list(values)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_errors(cls):
    values = VALUES[cls]
    first = next(iter(values))
    if cls is not TolerancePolicy:  # the one record whose every field has a default
        with pytest.raises(TypeError, match=f"missing .*required .*argument.*'{first}'"):
            cls(**{k: v for k, v in values.items() if k != first})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**values, bogus=1)
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values.values(), None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*values.values(), **{first: values[first]})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_lists_the_fields_in_order(cls):
    rec = cls(**VALUES[cls])
    body = ", ".join(f"{name}={getattr(rec, name)!r}" for name in VALUES[cls])
    assert repr(rec) == f"{cls.__qualname__}({body})"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_go_by_the_field_values(cls):
    values = VALUES[cls]
    rec = cls(**values)
    assert rec == cls(**values)
    assert rec != object() and not (rec == 1)
    if cls in HASHABLE:
        assert hash(rec) == hash(_fields(rec, values))
        assert len({rec, cls(**values)}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_goes_by_value_not_by_identity(cls):
    # the twin's arrays, points and pencils are distinct objects of equal value
    values = VALUES[cls]
    rec, twin = cls(**values), cls(**copy.deepcopy(values))
    assert rec == twin and not rec != twin
    if cls in HASHABLE:
        assert hash(rec) == hash(twin)


def test_array_fields_compare_by_shape_and_value():
    eye = np.eye(2, dtype=complex)
    assert DetRep(eye, eye, eye) == DetRep(eye.copy(), eye.copy(), eye.copy())
    assert DetRep(eye, eye, eye) != DetRep(eye, eye, 2 * eye)
    assert DetRep(eye, eye, eye) != DetRep(*np.eye(4, dtype=complex)[None].repeat(3, 0))
    # arrays nested in a dict field, inside lists and on their own
    data = {"points": [_PT], "vectors": [np.ones(2, dtype=complex)], "Gamma": eye}

    def record(conint_data):
        return TransformRecord(**{**VALUES[TransformRecord], "conint_data": conint_data})

    rec = record(data)
    assert rec == record(copy.deepcopy(data))
    for change in ({"vectors": [np.ones(3, dtype=complex)]}, {"Gamma": 2 * eye},
                   {"points": (_PT,)}):
        assert rec != record({**data, **change})


def test_a_pencil_compares_and_hashes_by_its_coefficients():
    P = SkewPencil(_J.copy(), 2 * _J, 3 * _J)
    assert P == _PENCIL and hash(P) == hash(_PENCIL)
    assert P != SkewPencil(_J, _J, _J) and P != _PENCIL.coeffs
    assert len({P, _PENCIL, SkewPencil(_J, _J, _J)}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_are_immutable(cls):
    rec = cls(**VALUES[cls])
    first = next(iter(VALUES[cls]))
    before = getattr(rec, first)
    for name in (first, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert getattr(rec, first) is before
    assert not hasattr(rec, "not_a_field")


def test_field_order_decides_equality():
    assert LinearForm(1, 2, 3) != LinearForm(3, 2, 1)
    assert TolerancePolicy() != TolerancePolicy(match_tol=1e-5)
    assert hash(TolerancePolicy()) == hash(TolerancePolicy(1e-9, 1e-8, 1e-6))


def test_subclass_keeps_the_fields_and_compares_by_class():
    m = np.array([[1.0 + 0j]])
    sym, plain = SymDetRep(m, m, m), DetRep(m, m, m)
    assert repr(sym).startswith("SymDetRep(M0=array(")
    assert sym == SymDetRep(m, M1=m, M2=m)
    assert sym != plain and plain != sym


def test_defaults():
    assert TolerancePolicy() == TolerancePolicy(1e-9, 1e-8, 1e-6)
    assert repr(TolerancePolicy()) == (
        "TolerancePolicy(zero_tol=1e-09, rank_tol=1e-08, match_tol=1e-06)")
    assert TolerancePolicy(rank_tol=1e-7).match_tol == 1e-6


def test_post_init_validation():
    with pytest.raises(ValueError, match="0 < zero_tol <= rank_tol <= match_tol"):
        TolerancePolicy(1e-6, 1e-8, 1e-9)
    with pytest.raises(ValueError, match="0 < zero_tol"):
        TolerancePolicy(zero_tol=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        LinearForm(math.nan, 0, 0)
    with pytest.raises(ValueError, match="M0 must be square"):
        DetRep(np.ones((2, 3)), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="share one dimension"):
        DetRep(np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(ValueError, match="M1 is not symmetric"):
        SymDetRep(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_post_init_normalizes_the_fields():
    f = LinearForm(1, 2.5, np.float64(3))
    assert all(type(c) is complex for c in (f.c0, f.c1, f.c2))
    M = DetRep([[1, 2], [3, 4]], np.eye(2), np.eye(2))
    assert M.M0.dtype == complex and not M.M0.flags.writeable


def test_no_record_is_a_dataclass():
    import dataclasses
    for cls in (*VALUES, SymDetRep):
        assert not dataclasses.is_dataclass(cls)


# deep copies and pickle round trips
CLONES = {"deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}
# looser than the default, as a problem document may declare
_LOOSE = TolerancePolicy(zero_tol=1e-3, rank_tol=1e-3, match_tol=1e-3)


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_record_copies_and_pickles(cls, clone):
    rec = cls(**VALUES[cls])
    twin = clone(rec)
    assert type(twin) is cls and twin is not rec
    assert io.enc_value(twin) == io.enc_value(rec)


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
def test_a_pencil_copy_keeps_its_invariants(clone):
    # skew only within the loose zero_tol: a copy must not check it again
    nearly = SkewPencil(_J + 1e-5, 2 * _J, 3 * _J, policy=_LOOSE)
    m = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    for P in (_PENCIL, nearly, DetRep(m, _J, np.eye(2)), SymDetRep(m, np.eye(2), m)):
        Q = clone(P)
        assert type(Q) is type(P) and np.array_equal(Q.coeffs, P.coeffs)
        assert not Q.coeffs.flags.writeable
        names = ("A0", "A1", "A2") if isinstance(P, SkewPencil) else P._fields
        for name in names:
            assert getattr(Q, name).base is Q.coeffs
        if isinstance(P, SkewPencil):
            assert Q.half_deg == P.half_deg and Q.pfaffian() == P.pfaffian()
        else:
            assert Q.det_poly() == P.det_poly()


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
def test_a_point_and_a_polynomial_copy_as_they_are(clone):
    # normalized at the second coordinate under the loose policy only
    pt = ProjPoint(1e-5, 1, 2j, policy=_LOOSE)
    for p in (_PT, pt):
        q = clone(p)
        assert q == p and not q.coords.flags.writeable
    assert clone(pt).coords.tolist() == [1e-5, 1, 2j]
    f = HomPoly(3, {(1, 1, 1): 2 - 1j, (0, 0, 3): 0.5})
    g = clone(f)
    assert g == f and g.degree == 3 and not g.c.flags.writeable
