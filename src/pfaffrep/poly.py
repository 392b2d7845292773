"""Homogeneous trivariate polynomials, linear forms and projective points.

Scalars are complex doubles throughout.  A :class:`HomPoly` of degree d
is one dense array ``c`` of shape ``(d+1, d+1)``: ``c[i, j]`` is the
coefficient of ``x0^(d-i-j) x1^i x2^j``, zero where ``i + j > d``.  Its
operations are array expressions that never drop a coefficient; only
``terms``, which serialization, equality and hashing read, leaves out the
coefficients at or below ``zero_tol`` times the largest one.  Serialization
uses graded-lex order (descending lexicographic on the exponent triples),
which fixes byte-exact JSON output.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import PreconditionError
from .tolerances import DEFAULT_POLICY, Held, Record, TolerancePolicy, require_finite_array

Triple = tuple[int, int, int]


class LinearForm(Record):
    """A linear form ``c0*x0 + c1*x1 + c2*x2``."""

    c0: complex
    c1: complex
    c2: complex

    def __post_init__(self):
        c = np.array([self.c0, self.c1, self.c2], dtype=complex)
        require_finite_array(c)
        for name, z in zip(("c0", "c1", "c2"), c.tolist()):
            object.__setattr__(self, name, z)

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2], dtype=complex)

    def __call__(self, pt) -> complex:
        x = _coords(pt)
        return complex(self.c0 * x[0] + self.c1 * x[1] + self.c2 * x[2])

    def is_zero(self, scale: float = 1.0, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
        """Whether the coefficients sum in modulus to at most ``zero_tol * scale``,
        ``scale`` being the size of a genuine form of the same origin."""
        return bool(abs(self.c0) + abs(self.c1) + abs(self.c2) <= policy.zero_tol * scale)

    def as_poly(self) -> "HomPoly":
        return HomPoly(1, {(1, 0, 0): self.c0, (0, 1, 0): self.c1, (0, 0, 1): self.c2})

    def scaled(self, s: complex) -> "LinearForm":
        return LinearForm(s * self.c0, s * self.c1, s * self.c2)

    @staticmethod
    def zero() -> "LinearForm":
        return LinearForm(0, 0, 0)


class HomPoly(Held):
    """Homogeneous polynomial in ``x0, x1, x2`` of a fixed degree; the
    terms ``{(a, b, c): coeff}`` are summed into the read-only array ``c``."""

    __slots__ = ("degree", "c")
    _held = "c"

    def __new__(cls, degree: int, terms: Mapping[Triple, complex] | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        c = np.zeros((degree + 1, degree + 1), dtype=complex)
        for exp, coeff in (terms or {}).items():
            a, b, e = exp
            if a < 0 or b < 0 or e < 0 or a + b + e != degree:
                raise ValueError(f"exponent {exp} does not have total degree {degree}")
            c[b, e] += complex(coeff)
        return _hold(c)

    @staticmethod
    def from_array(c) -> "HomPoly":
        """The polynomial with coefficient array ``c``, read where ``i + j <= d``."""
        c = np.asarray(c, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or not c.size:
            raise ValueError(f"expected a square coefficient array, got shape {c.shape}")
        return _hold(np.where(_x0_exponents(len(c) - 1) >= 0, c, 0))

    def _adopt(self, c: np.ndarray) -> None:
        object.__setattr__(self, "degree", len(c) - 1)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("HomPoly is immutable")

    # -- inspection -----------------------------------------------------------

    @property
    def terms(self) -> dict[Triple, complex]:
        """The coefficients above ``zero_tol`` times the largest one, by exponent."""
        mag, d = np.abs(self.c), self.degree
        i, j = np.nonzero(mag > DEFAULT_POLICY.zero_tol * mag.max())
        return dict(zip(zip((d - i - j).tolist(), i.tolist(), j.tolist()), self.c[i, j].tolist()))

    def sorted_terms(self) -> list[tuple[Triple, complex]]:
        """Terms in graded-lex order (descending on the exponent triple)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def coeff(self, exp: Triple) -> complex:
        a, b, e = exp
        return complex(self.c[b, e]) if min(exp) >= 0 and a + b + e == self.degree else 0j

    def is_zero(self) -> bool:
        """Whether every coefficient is exactly zero."""
        return not self.c.any()

    def max_coeff(self) -> float:
        return float(np.abs(self.c).max())

    def __repr__(self):
        parts = [f"({v:.6g})*x0^{a} x1^{b} x2^{c}" for (a, b, c), v in self.sorted_terms()]
        return " + ".join(parts) or f"HomPoly({self.degree}, 0)"

    def __eq__(self, other):
        return (isinstance(other, HomPoly) and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degree")
        return _hold(self.c + other.c)

    def __neg__(self) -> "HomPoly":
        return _hold(-self.c)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, HomPoly):
            return self.scaled(other)
        # a 2-D convolution: copies of other.c shifted by each entry of self.c
        n = other.degree + 1
        out = np.zeros((self.degree + n, self.degree + n), dtype=complex)
        for i, j in np.argwhere(self.c).tolist():
            out[i:i + n, j:j + n] += self.c[i, j] * other.c
        return _hold(out)

    __rmul__ = __mul__

    def scaled(self, s: complex) -> "HomPoly":
        return _hold(complex(s) * self.c)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(degree: int) -> "HomPoly":
        return HomPoly(degree)

    @staticmethod
    def constant(value: complex) -> "HomPoly":
        return HomPoly(0, {(0, 0, 0): value})

    @staticmethod
    def monomial(exp: Triple, coeff: complex = 1.0) -> "HomPoly":
        return HomPoly(sum(exp), {tuple(exp): coeff})

    # -- calculus and evaluation ----------------------------------------------

    def partial(self, k: int) -> "HomPoly":
        """Partial derivative along axis ``k`` (0, 1 or 2).

        Differentiating a degree-0 polynomial returns the zero polynomial
        of degree 0.
        """
        if k not in (0, 1, 2):
            raise IndexError(f"axis must be 0, 1 or 2, got {k}")
        d = self.degree
        if d == 0:
            return HomPoly.zero(0)
        if k == 0:
            return _hold(self.c[:d, :d] * _x0_exponents(d)[:d, :d])
        ramp = np.arange(1, d + 1)
        return _hold(self.c[1:, :d] * ramp[:, None] if k == 1 else self.c[:d, 1:] * ramp)

    def gradient(self) -> list["HomPoly"]:
        return [self.partial(k) for k in range(3)]

    def __call__(self, pt) -> complex:
        pw = _coords(pt)[:, None] ** np.arange(self.degree + 1)
        x0_pow = pw[0][np.maximum(_x0_exponents(self.degree), 0)]
        return complex(pw[1] @ (self.c * x0_pow) @ pw[2])

    def restrict_line(self, base, direction) -> np.ndarray:
        """Coefficients (ascending in t) of ``p(base + t*direction)``."""
        b, v = _coords(base), _coords(direction)
        d = self.degree
        # pw[k, e]: coefficients of (b_k + t v_k)^e
        pw = np.zeros((3, d + 1, d + 1), dtype=complex)
        pw[:, 0, 0] = 1
        for e in range(d):
            pw[:, e + 1] = pw[:, e] * b[:, None]
            pw[:, e + 1, 1:] += pw[:, e, :-1] * v[:, None]
        out = np.zeros(d + 1, dtype=complex)
        for i, j in np.argwhere(self.c).tolist():
            prod = np.convolve(np.convolve(pw[0, d - i - j], pw[1, i]), pw[2, j])
            out += self.c[i, j] * prod[:d + 1]
        return out


def _hold(c: np.ndarray) -> HomPoly:
    """The polynomial holding ``c``, a new triangular array, checked finite."""
    require_finite_array(c)
    return HomPoly._from_held(c)


def _x0_exponents(d: int) -> np.ndarray:
    """The exponent ``d - i - j`` of ``x0`` at each entry; negative off the triangle."""
    return d - np.add.outer(np.arange(d + 1), np.arange(d + 1))


def _coords(pt) -> np.ndarray:
    if isinstance(pt, ProjPoint):
        return pt.coords
    a = np.asarray(pt, dtype=complex)
    if a.shape != (3,):
        raise ValueError(f"expected a coordinate triple, got shape {a.shape}")
    return a


class ProjPoint(Held):
    """A point of the projective plane, held in normalized form.

    The first coordinate whose modulus exceeds the zero tolerance times
    the largest modulus is scaled to one, so equality and hashing are plain
    coordinate-wise comparison, and a point equals its JSON round trip.
    """

    __slots__ = ("coords",)
    _held = "coords"

    def __init__(self, x0: complex, x1: complex, x2: complex,
                 policy: TolerancePolicy = DEFAULT_POLICY):
        raw = np.array([x0, x1, x2], dtype=complex)
        require_finite_array(raw)
        mag = np.abs(raw)
        if not mag.any():
            raise ValueError("all coordinates are zero")
        pivot = raw[np.argmax(mag > policy.zero_tol * mag.max())]
        # z / z can miss one by an ulp, so coordinates whose pivot is that close
        # to one (but not one, which divides exactly) are already normalized
        coords = raw if 0 < abs(pivot - 1) <= 8 * np.finfo(float).eps else raw / pivot
        coords.setflags(write=False)
        self._adopt(coords)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    def in_chart(self, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
        """Whether ``|x0|`` exceeds ``zero_tol`` times the largest coordinate."""
        return bool(abs(self.coords[0]) > policy.zero_tol * np.max(np.abs(self.coords)))

    def affine(self, policy: TolerancePolicy = DEFAULT_POLICY) -> tuple[complex, complex]:
        """Affine coordinates in the chart ``x0 = 1``; the point must be :meth:`in_chart`."""
        if not self.in_chart(policy):
            raise PreconditionError("point lies on the line x0 = 0")
        return (complex(self.coords[1] / self.coords[0]),
                complex(self.coords[2] / self.coords[0]))

    def close_to(self, other: "ProjPoint", policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
        return bool(np.all(np.abs(self.coords - other.coords) <= policy.match_tol))

    def __repr__(self):
        return f"ProjPoint({self.coords[0]:.6g}, {self.coords[1]:.6g}, {self.coords[2]:.6g})"


# -- free operations ----------------------------------------------------------

def univariate_roots(coeffs: Iterable[complex],
                     policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Roots of ``sum c_j t^j`` via companion-matrix eigenvalues.

    Leading coefficients at or below ``zero_tol`` relative to the largest
    one are trimmed (those roots escaped to infinity).
    """
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size == 0:
        return np.array([], dtype=complex)
    scale = np.max(np.abs(c))
    if scale == 0:
        raise PreconditionError("polynomial is identically zero")
    cut = len(c)
    while cut > 0 and abs(c[cut - 1]) <= policy.zero_tol * scale:
        cut -= 1
    if cut <= 1:
        return np.array([], dtype=complex)
    return np.roots(c[:cut][::-1])


def close_pair(roots, policy: TolerancePolicy = DEFAULT_POLICY):
    """The first two ``roots`` at most ``sep = rank_tol * max |r|`` apart, and ``sep``;
    ``None`` when every two are farther apart (two zero roots are not)."""
    r = np.asarray(roots, dtype=complex)
    sep = policy.rank_tol * float(np.max(np.abs(r), initial=0.0))
    i, j = np.nonzero(np.triu(np.abs(r[:, None] - r) <= sep, 1))
    return (r[i[0]], r[j[0]], sep) if len(i) else None


def equal_up_to_scale(p: HomPoly, q: HomPoly,
                      policy: TolerancePolicy = DEFAULT_POLICY) -> complex | None:
    """Constant ``c`` with ``q = c * p`` coefficient-wise, or ``None``.

    The residual is measured relative to the dominant coefficient.  Two
    zero polynomials compare equal with ``c = 1``.
    """
    if p.degree != q.degree:
        raise PreconditionError("polynomials must have the same degree")
    if p.is_zero() or q.is_zero():
        return 1.0 + 0j if p.is_zero() and q.is_zero() else None
    dom = np.argmax(np.abs(p.c))
    c = complex(q.c.flat[dom] / p.c.flat[dom])
    scale = max(q.max_coeff(), abs(c) * p.max_coeff())
    return c if np.abs(q.c - c * p.c).max() <= policy.match_tol * scale else None


def relative_deviation(target: HomPoly, other: HomPoly, scale: complex | None = 1.0) -> float:
    """Largest coefficient of ``target - scale * other`` relative to ``target``'s.

    ``scale`` is ``None`` when no scale matches the two (as
    :func:`equal_up_to_scale` reports it); the deviation is then infinite.
    """
    if scale is None:
        return float("inf")
    return (target - other.scaled(scale)).max_coeff() / max(target.max_coeff(), 1e-300)
