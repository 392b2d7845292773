"""Global tolerance policy for all numerical comparisons.

All arithmetic is complex double precision; every operation that decides
"is this zero / singular / equal" consults a :class:`TolerancePolicy`
rather than a hard-coded constant.  The three thresholds are ordered:
``zero_tol`` decides what is zero next to the largest entry, ``rank_tol``
drives rank decisions, ``match_tol`` accepts or rejects residuals.

Every rank, kernel and full-rank decision goes through :func:`null_space`,
which holds the one rank rule: a singular value counts as zero when it is
at most ``tol`` times the largest one (times 1 for the zero matrix).
Every generic choice comes from :func:`draws`: the bridge's from the
problem's seed, every other one from the fixed stream ``draws(0)``.

The module also holds :class:`Record`, the base of the policy and of the
library's other immutable value records, and :class:`Held`, the base of
the values built around one read-only array, which it copies and pickles.
"""

from __future__ import annotations

import math
import operator
import random

import numpy as np

_MISSING = object()


class Record:
    """Base of the library's immutable records.

    A subclass declares its fields as annotated names of its class body,
    in order; a class attribute of the same name is the field's default.
    Records are built by position or keyword, then ``__post_init__`` runs.
    repr, equality and hashing go by the field values, and no field can be
    assigned or deleted afterwards.  This is what ``@dataclass(frozen=True)``
    provides, without generating and compiling methods for every class.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if not names:
            return
        defaults = dict(cls._defaults)
        for name in names:
            value = cls.__dict__.get(name, _MISSING)
            if value is not _MISSING:
                defaults[name] = value
        cls._fields = cls._fields + names
        cls._defaults = defaults
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _arguments(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from a call that names some by keyword
        or leaves some to their defaults."""
        fields, cls = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        for name in fields[:len(args)]:
            if name in kwargs:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
        values = list(args)
        for name in fields[len(args):]:
            value = kwargs.pop(name, self._defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls}() missing required argument {name!r}")
            values.append(value)
        if kwargs:
            raise TypeError(f"{cls}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __repr__(self):
        body = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _same(self._values(), other._values())
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _same(a, b) -> bool:
    """Field equality; arrays, also in lists, tuples and dicts, by shape and value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and bool(np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in a))
    return a is b or bool(a == b)


class Held:
    """Base of the immutable values built around the read-only array named by
    ``_held``.  A copy or pickle is rebuilt from that array by ``_adopt`` alone:
    it keeps the views of it, and skips the constructor's policy-bound checks."""

    __slots__ = ()

    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and getattr(self, self._held).tolist() == getattr(other, self._held).tolist())

    def __hash__(self):
        return hash(tuple(getattr(self, self._held).ravel().tolist()))

    @classmethod
    def _from_held(cls, a: np.ndarray):
        a.setflags(write=False)  # a copied or unpickled array is a new one
        obj = object.__new__(cls)
        obj._adopt(a)
        return obj

    def _adopt(self, a: np.ndarray) -> None:
        object.__setattr__(self, self._held, a)

    def __reduce__(self):
        return self._from_held, (getattr(self, self._held),)


class TolerancePolicy(Record):
    zero_tol: float = 1e-9
    rank_tol: float = 1e-8
    match_tol: float = 1e-6

    def __post_init__(self):
        if not (0 < self.zero_tol <= self.rank_tol <= self.match_tol):
            raise ValueError(
                "tolerances must satisfy 0 < zero_tol <= rank_tol <= match_tol, "
                f"got {self.zero_tol}, {self.rank_tol}, {self.match_tol}"
            )


DEFAULT_POLICY = TolerancePolicy()

# Fixed tolerances that run reports declare for pfaffian invariance and bundle maps.
PF_TOL = 1e-7
BUNDLE_TOL = 1e-6
TRANSPORT_ANGLE_TOL = 1e-5
# The bridge's fixed relative thresholds: the decrease a step must make; the rank
# of the null spaces that factor an off-pattern block and find a kernel vector's point.
BRIDGE_STEP_TOL = 1e-3
BRIDGE_FIT_TOL = 1e-6


def require_finite_array(a: np.ndarray) -> None:
    """Reject an array with a NaN or infinite entry before it propagates."""
    if not np.isfinite(a).all():
        raise ValueError("array contains non-finite entries")


def null_space(M: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel rows and singular values of ``M`` from one full SVD.

    A singular value counts as zero when it is at most ``tol * s_max``,
    with ``s_max = 1`` for the zero matrix; the rows ``x`` of the result
    are orthonormal and span ``{x : M x = 0}`` at that rank.
    """
    _, s, vh = np.linalg.svd(M)
    smax = float(s[0]) if s[0] > 0 else 1.0
    rank = int(np.count_nonzero(s > tol * smax))
    return vh[rank:].conj(), s


def draws(seed: int):
    """The one seeded source of generic data: ``draw(*shape)`` returns a
    complex array of that shape whose real and imaginary parts are
    independent standard normals, taken in order from one standard-library
    ``random.Random`` stream seeded with ``seed``, so
    ``draws(s)(4)[:2] == draws(s)(2)``.
    """
    gauss = random.Random(operator.index(seed)).gauss

    def draw(*shape: int) -> np.ndarray:
        n = math.prod(shape)
        values = [complex(gauss(0.0, 1.0), gauss(0.0, 1.0)) for _ in range(n)]
        return np.array(values, dtype=complex).reshape(shape)

    return draw
