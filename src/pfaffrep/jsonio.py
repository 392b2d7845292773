"""JSON encoding and decoding for every public value type.

Wire conventions: a complex scalar is ``[re, im]``; a linear form is a
list of three such pairs (coefficients of x0, x1, x2); a matrix is a
list of rows of pairs; a polynomial is ``{"degree": d, "terms": [...]}``
with terms in graded-lex order, which makes output byte-reproducible.

Outputs are encoded by one rule, :func:`enc_value`: a numpy scalar is the
Python scalar it holds; ``None``, booleans, integers and strings pass
through; a float passes through unless it is not finite, which reads
``null``; a complex number is a pair, an array or a linear form nested
pairs, and a point, polynomial or pencil has its own wire form; a
record is the object of its fields (``lam`` is written ``lambda``); a
dict gets string keys and a list or tuple is encoded entry by entry.

Decoders validate shapes and types and raise :class:`SchemaError` with a
path into the document.  Every wire object with named fields (a pencil, a
representation, a record and its CONINT data, the cubic coefficients and
a CLI payload) is declared through :func:`dec_fields`, the one rule for
presence, defaults, lists and paths.  Skew and symmetric matrices are
re-validated on load by the constructors of the types that hold them.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import SchemaError, SkewSymmetryViolation
from .pencil import SkewPencil
from .poly import HomPoly, LinearForm, ProjPoint
from .tolerances import DEFAULT_POLICY, Record, TolerancePolicy

if TYPE_CHECKING:  # annotations only; importing jsonio loads none of these layers
    from .quartic import CubicCoeffs, SymDetRep
    from .transforms import TransformRecord

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


def enc_poly(p: HomPoly) -> dict:
    return {"degree": p.degree,
            "terms": [{"exp": list(e), "coeff": enc_complex(v)}
                      for e, v in p.sorted_terms()]}


def enc_point(pt: ProjPoint) -> list:
    return enc_vector(pt.coords)


def enc_pencil(P: SkewPencil) -> dict:
    return {"d": P.half_deg, **dict(zip(("A0", "A1", "A2"), enc_matrix(P.coeffs)))}


def enc_value(x) -> Any:
    """``x``, any output of a library call, as a JSON value (see the module notes)."""
    return _enc(x)


def _enc(x) -> Any:
    if isinstance(x, np.generic):
        x = x.item()
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, complex):
        return enc_complex(x)
    if isinstance(x, np.ndarray):
        return _enc_pairs(x)
    if isinstance(x, LinearForm):
        return _enc_pairs(x.coeffs)
    if isinstance(x, ProjPoint):
        return enc_point(x)
    if isinstance(x, HomPoly):
        return enc_poly(x)
    if isinstance(x, SkewPencil):
        return enc_pencil(x)
    if isinstance(x, Record):
        # ``lam`` stands for the keyword ``lambda``, its name on the wire
        return {("lambda" if f == "lam" else f): _enc(getattr(x, f)) for f in x._fields}
    if isinstance(x, dict):
        return {str(k): _enc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_enc(v) for v in x]
    raise TypeError(f"no JSON encoding for {type(x).__name__}")


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


def dec_fields(spec: str, obj: Any, path: str = "$",
               policy: TolerancePolicy = DEFAULT_POLICY) -> list:
    """The fields of the object ``obj`` that ``spec`` declares, decoded in order.

    One word per field: ``name:kind``, or ``kind`` alone when the name is
    the kind.  A kind is ``int`` (a nonnegative JSON integer) or the suffix
    of a decoder here (``pencil`` means :func:`dec_pencil`); ``kind[]`` is a
    list of them.  A field is required unless it ends in ``=default``, a
    JSON literal; where the default is ``null`` an explicit ``null`` reads
    as absent, and any other value goes to the field's decoder.  A missing
    field is reported at its own path, ``path.name``.
    """
    if not isinstance(obj, dict):
        _fail("expected an object", path)
    values = []
    for word in spec.split():
        word, has_default, default = word.partition("=")
        name, _, kind = word.partition(":")
        if name in obj and not (default == "null" and obj[name] is None):
            values.append(_dec_kind(kind or name, obj[name], f"{path}.{name}", policy))
        elif has_default:
            values.append(json.loads(default))
        else:
            _fail(f"missing {name}", f"{path}.{name}")
    return values


# the decoders that take the document's tolerance policy
_POLICY_KINDS = ("pencil", "point", "record", "conint")


def _dec_kind(kind: str, obj: Any, path: str, policy: TolerancePolicy) -> Any:
    if kind.endswith("[]"):
        if not isinstance(obj, list):
            _fail("expected a list", path)
        return [_dec_kind(kind[:-2], x, f"{path}[{i}]", policy) for i, x in enumerate(obj)]
    if kind == "int":
        if not (_is_int(obj) and obj >= 0):
            _fail("expected a nonnegative integer", path)
        return obj
    # looked up per call, so a decoder rebound in this module (as tracing does) is used
    dec = globals()[f"dec_{kind}"]
    return dec(obj, path, policy) if kind in _POLICY_KINDS else dec(obj, path)


def dec_pencil(obj: Any, path: str = "$",
               policy: TolerancePolicy = DEFAULT_POLICY) -> SkewPencil:
    *mats, d = dec_fields("A0:matrix A1:matrix A2:matrix d:int=null", obj, path, policy)
    try:
        P = SkewPencil(*mats, policy=policy)
    except SkewSymmetryViolation as exc:
        raise SkewSymmetryViolation(str(exc), path) from None
    except ValueError as exc:
        _fail(str(exc), path)
    if d is not None and d != P.half_deg:
        _fail(f"declared d={d} but matrices are {P.dim}x{P.dim}", path)
    return P


def dec_detrep(obj: Any, path: str = "$") -> SymDetRep:
    from .quartic import SymDetRep
    try:
        return SymDetRep(*dec_fields("M0:matrix M1:matrix M2:matrix", obj, path))
    except ValueError as exc:
        _fail(str(exc), path)


def dec_coeff(obj: Any, path: str = "$") -> complex | LinearForm:
    """A cubic coefficient: a ``[re, im]`` pair is a scalar, anything else a linear form."""
    return dec_complex(obj, path) if _is_pair(obj) else dec_linear_form(obj, path)


def dec_cubic_coeffs(obj: Any, path: str = "$") -> CubicCoeffs:
    from .quartic import CUBIC_FIELDS, CubicCoeffs
    return CubicCoeffs(*dec_fields(" ".join(f"{n}:coeff" for n in CUBIC_FIELDS), obj, path))


def dec_conint(obj: Any, path: str = "$",
               policy: TolerancePolicy = DEFAULT_POLICY) -> dict:
    """The ``conint_data`` of a CONINT record."""
    spec = "points:point[]=[] vectors:vector[]=[] rhos:complex[]=[] Gamma:matrix"
    return dict(zip(("points", "vectors", "rhos", "Gamma"), dec_fields(spec, obj, path, policy)))


def dec_record(obj: Any, path: str = "$",
               policy: TolerancePolicy = DEFAULT_POLICY) -> TransformRecord:
    from .transforms import TransformRecord
    if not isinstance(obj, dict) or obj.get("kind") not in ("I", "II", "CONINT"):
        _fail("expected a record with kind I, II or CONINT", path)
    return TransformRecord(obj["kind"], *dec_fields(
        "lambda:point=null mu:point=null v:vector=null u:vector=null rho:complex=null "
        "k_value:complex=null conint_data:conint=null gamma_before:matrix gamma_after:matrix",
        obj, path, policy))
