"""JSON encoding and decoding for every public value type.

Wire conventions: a complex scalar is ``[re, im]``; a linear form is a
list of three such pairs (coefficients of x0, x1, x2); a matrix is a
list of rows of pairs; a polynomial is ``{"degree": d, "terms": [...]}``
with terms in graded-lex order, which makes output byte-reproducible.
Decoders validate shapes and types and raise :class:`SchemaError` with a
path into the document; skew and symmetric matrices are re-validated on
load by the constructors of the types that hold them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import SchemaError, SkewSymmetryViolation
from .pencil import KernelBasis, SkewPencil
from .poly import HomPoly, LinearForm, ProjPoint
from .tolerances import DEFAULT_POLICY, TolerancePolicy

if TYPE_CHECKING:  # annotations only; importing jsonio loads none of these layers
    from .canonical import CanonicalReport, StructureReport
    from .incidence import PairClassification
    from .quartic import (CubicCoeffs, PolarTriangle, ScorzaRelation, SymDetRep,
                          ThetaIdentification)
    from .transforms import BundleCheckReport, TransformRecord

# -- encoding -------------------------------------------------------------------

def enc_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _enc_pairs(a) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def enc_vector(v) -> list:
    return _enc_pairs(v)


def enc_matrix(m) -> list:
    return _enc_pairs(m)


def enc_linear_form(f: LinearForm) -> list:
    return [enc_complex(f.c0), enc_complex(f.c1), enc_complex(f.c2)]


def enc_poly(p: HomPoly) -> dict:
    return {"degree": p.degree,
            "terms": [{"exp": list(e), "coeff": enc_complex(v)}
                      for e, v in p.sorted_terms()]}


def enc_point(pt: ProjPoint) -> list:
    return enc_vector(pt.coords)


def enc_pencil(P: SkewPencil) -> dict:
    return {"d": P.half_deg, **dict(zip(("A0", "A1", "A2"), enc_matrix(P.coeffs)))}


def enc_kernel(kb: KernelBasis) -> dict:
    return {"point": enc_point(kb.point),
            "vectors": [enc_vector(kb.v1), enc_vector(kb.v2)],
            "residual": kb.residual}


def enc_cubic_coeffs(w: CubicCoeffs) -> dict:
    from .quartic import CUBIC_FIELDS
    out = {}
    for name in CUBIC_FIELDS:
        v = getattr(w, name)
        out[name] = enc_linear_form(v) if isinstance(v, LinearForm) else enc_complex(v)
    return out


def enc_record(rec: TransformRecord) -> dict:
    out = {"kind": rec.kind,
           "lambda": enc_point(rec.lam) if rec.lam is not None else None,
           "mu": enc_point(rec.mu) if rec.mu is not None else None,
           "v": enc_vector(rec.v) if rec.v is not None else None,
           "u": enc_vector(rec.u) if rec.u is not None else None,
           "rho": enc_complex(rec.rho) if rec.rho is not None else None,
           "k_value": enc_complex(rec.k_value) if rec.k_value is not None else None,
           "gamma_before": enc_matrix(rec.gamma_before),
           "gamma_after": enc_matrix(rec.gamma_after)}
    if rec.conint_data is not None:
        out["conint_data"] = {
            "points": [enc_point(p) for p in rec.conint_data["points"]],
            "vectors": [enc_vector(v) for v in rec.conint_data["vectors"]],
            "rhos": [enc_complex(r) for r in rec.conint_data["rhos"]],
            "Gamma": enc_matrix(rec.conint_data["Gamma"]),
        }
    else:
        out["conint_data"] = None
    return out


def enc_canonical_report(rep: CanonicalReport) -> dict:
    return {"roots": [enc_complex(r) for r in rep.roots],
            "basis_change": enc_matrix(rep.basis_change),
            "pencil": enc_pencil(rep.pencil),
            "residual": rep.residual}


def enc_structure(sr: StructureReport) -> dict:
    return {"is_decomposable_form": sr.is_decomposable_form,
            "is_symmetric_blocks": sr.is_symmetric_blocks,
            "free_parameter_count": sr.free_parameter_count}


def enc_classification(pc: PairClassification) -> dict:
    out = {"kind": pc.kind, "kappa": enc_matrix(pc.kappa),
           "special_vectors": None}
    if pc.special_vectors is not None:
        out["special_vectors"] = [enc_vector(v) for v in pc.special_vectors]
    return out


def enc_triangle(tri: PolarTriangle) -> dict:
    return {"lines": [enc_linear_form(g) for g in tri.lines],
            "vertices": [enc_point(p) for p in tri.vertices],
            "residual": tri.residual}


def enc_relation(rel: ScorzaRelation) -> dict:
    return {"related": rel.related, "residuals": list(rel.residuals)}


def enc_theta(t: ThetaIdentification) -> dict:
    return {"index": t.index,
            "evidence": [{"point": enc_point(row["point"]),
                          "vertices": [enc_point(p) for p in row["vertices"]],
                          "residuals": {str(k): (v if math.isfinite(v) else None)
                                        for k, v in row["residuals"].items()}}
                         for row in t.evidence]}


def enc_bundle_report(rep: BundleCheckReport) -> dict:
    return {"identity_residual": rep.identity_residual,
            "zero_patterns": dict(rep.zero_patterns),
            "transport_angle": rep.transport_angle,
            "parameter_independence": rep.parameter_independence}


# -- decoding -------------------------------------------------------------------

def _fail(msg: str, path: str):
    raise SchemaError(msg, path)


# JSON true and false are Python ints, so both checks exclude bool.
def _is_int(obj: Any) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def _is_number(obj: Any) -> bool:
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _is_pair(obj: Any) -> bool:
    return (isinstance(obj, (list, tuple)) and len(obj) == 2
            and _is_number(obj[0]) and _is_number(obj[1]))


def dec_complex(obj: Any, path: str = "$") -> complex:
    if not _is_pair(obj):
        _fail("expected a [re, im] pair", path)
    try:
        return complex(obj[0], obj[1])
    except OverflowError:
        _fail("number out of double range", path)


_NUMBER_TYPES = {int, float}  # exact types: a JSON true or false is a bool


def _pairs(obj: list, ndim: int) -> np.ndarray | None:
    """``obj``, a well-formed nesting of ``[re, im]`` pairs, as a complex
    array with ``ndim`` axes, converted in one step; ``None`` for anything
    else, which the caller walks entry by entry to name the fault.

    The float pairs are reinterpreted through a complex view, so every
    component keeps its bits (a ``-0.0`` real part included).
    """
    try:
        a = np.array(obj, dtype=object)
    except ValueError:
        return None
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or not set(map(type, a.flat)) <= _NUMBER_TYPES:
        return None
    try:
        return a.astype(float).view(complex)[..., 0]
    except OverflowError:
        return None


def dec_vector(obj: Any, path: str = "$") -> np.ndarray:
    if not isinstance(obj, list):
        _fail("expected a list of [re, im] pairs", path)
    v = _pairs(obj, 1)
    if v is not None:
        return v
    return np.array([dec_complex(z, f"{path}[{i}]") for i, z in enumerate(obj)],
                    dtype=complex)


def dec_matrix(obj: Any, path: str = "$") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        _fail("expected a nonempty list of rows", path)
    if all(isinstance(r, list) for r in obj):
        m = _pairs(obj, 2)
        if m is not None:
            return m
    rows = [dec_vector(r, f"{path}[{i}]") for i, r in enumerate(obj)]
    if len({len(r) for r in rows}) != 1:
        _fail("ragged matrix", path)
    return np.array(rows)


def dec_linear_form(obj: Any, path: str = "$") -> LinearForm:
    v = dec_vector(obj, path)
    if v.shape != (3,):
        _fail("a linear form needs exactly three coefficient pairs", path)
    return LinearForm(*v)


def dec_point(obj: Any, path: str = "$",
              policy: TolerancePolicy = DEFAULT_POLICY) -> ProjPoint:
    v = dec_vector(obj, path)
    if v.shape != (3,):
        _fail("a projective point needs three coordinates", path)
    try:
        return ProjPoint(*v, policy=policy)
    except ValueError as exc:
        _fail(str(exc), path)


# a polynomial holds (degree + 1)^2 coefficients, however few its terms
MAX_POLY_DEGREE = 1000


def dec_poly(obj: Any, path: str = "$") -> HomPoly:
    if not isinstance(obj, dict) or "degree" not in obj or "terms" not in obj:
        _fail("expected {degree, terms}", path)
    if not (_is_int(obj["degree"]) and obj["degree"] <= MAX_POLY_DEGREE):
        _fail(f"degree must be an integer of at most {MAX_POLY_DEGREE}", f"{path}.degree")
    if not isinstance(obj["terms"], list):
        _fail("terms must be a list", f"{path}.terms")
    terms = {}
    for i, t in enumerate(obj["terms"]):
        tp = f"{path}.terms[{i}]"
        if not isinstance(t, dict) or "exp" not in t or "coeff" not in t:
            _fail("expected {exp, coeff}", tp)
        exp = t["exp"]
        if not (isinstance(exp, list) and len(exp) == 3
                and all(_is_int(e) and e >= 0 for e in exp)):
            _fail("exp must be three nonnegative integers", tp)
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + dec_complex(t["coeff"], tp)
    try:
        return HomPoly(obj["degree"], terms)
    except ValueError as exc:
        _fail(str(exc), path)


def _matrices(obj: dict, path: str, names: tuple[str, ...]) -> list[np.ndarray]:
    """The matrices stored under ``names`` in ``obj``, each required."""
    for name in names:
        if name not in obj:
            _fail(f"missing {name}", path)
    return [dec_matrix(obj[name], f"{path}.{name}") for name in names]


def dec_pencil(obj: Any, path: str = "$",
               policy: TolerancePolicy = DEFAULT_POLICY) -> SkewPencil:
    if not isinstance(obj, dict):
        _fail("expected a pencil object", path)
    mats = _matrices(obj, path, ("A0", "A1", "A2"))
    try:
        P = SkewPencil(*mats, policy=policy)
    except SkewSymmetryViolation as exc:
        raise SkewSymmetryViolation(str(exc), path) from None
    except ValueError as exc:
        _fail(str(exc), path)
    if "d" in obj:
        if not _is_int(obj["d"]):
            _fail("d must be an integer", f"{path}.d")
        if obj["d"] != P.half_deg:
            _fail(f"declared d={obj['d']} but matrices are {P.dim}x{P.dim}", path)
    return P


def dec_detrep(obj: Any, path: str = "$") -> SymDetRep:
    from .quartic import SymDetRep
    if not isinstance(obj, dict):
        _fail("expected a representation object", path)
    mats = _matrices(obj, path, ("M0", "M1", "M2"))
    try:
        return SymDetRep(*mats)
    except ValueError as exc:
        _fail(str(exc), path)


def dec_cubic_coeffs(obj: Any, path: str = "$") -> CubicCoeffs:
    from .quartic import CUBIC_FIELDS, CubicCoeffs
    if not isinstance(obj, dict):
        _fail("expected an object of cubic coefficients", path)
    vals = {}
    for name in CUBIC_FIELDS:
        if name not in obj:
            _fail(f"missing {name}", path)
        entry = obj[name]
        p = f"{path}.{name}"
        if _is_pair(entry):
            vals[name] = dec_complex(entry, p)
        else:
            vals[name] = dec_linear_form(entry, p)
    return CubicCoeffs(**vals)


def dec_record(obj: Any, path: str = "$",
               policy: TolerancePolicy = DEFAULT_POLICY) -> TransformRecord:
    from .transforms import TransformRecord
    if not isinstance(obj, dict) or obj.get("kind") not in ("I", "II", "CONINT"):
        _fail("expected a record with kind I, II or CONINT", path)
    def point(o, p):
        return dec_point(o, p, policy)
    def opt(key, f):
        return f(obj[key], f"{path}.{key}") if obj.get(key) is not None else None
    conint_data = None
    if obj.get("conint_data") is not None:
        cd, cp = obj["conint_data"], f"{path}.conint_data"
        if not isinstance(cd, dict):
            _fail("expected an object", cp)
        def each(key, f):
            items = cd.get(key, [])
            if not isinstance(items, list):
                _fail("expected a list", f"{cp}.{key}")
            return [f(x, f"{cp}.{key}[{i}]") for i, x in enumerate(items)]
        conint_data = {
            "points": each("points", point),
            "vectors": each("vectors", dec_vector),
            "rhos": each("rhos", dec_complex),
            "Gamma": _matrices(cd, cp, ("Gamma",))[0],
        }
    gamma_before, gamma_after = _matrices(obj, path, ("gamma_before", "gamma_after"))
    return TransformRecord(
        kind=obj["kind"],
        lam=opt("lambda", point),
        mu=opt("mu", point),
        v=opt("v", dec_vector),
        u=opt("u", dec_vector),
        rho=opt("rho", dec_complex),
        k_value=opt("k_value", dec_complex),
        conint_data=conint_data,
        gamma_before=gamma_before,
        gamma_after=gamma_after,
    )
