"""Homogeneous trivariate polynomials, linear forms and projective points.

Scalars are complex doubles throughout.  A :class:`HomPoly` stores its
terms sparsely, keyed by the exponent triple ``(a, b, c)`` of
``x0^a x1^b x2^c``; construction prunes coefficients at or below the
zero tolerance, so two equal polynomials have identical term maps.
Serialization uses graded-lex order (descending lexicographic on the
exponent triples, all of equal total degree), which fixes byte-exact
JSON output.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import NumericalError, PreconditionError, RepeatedRoots
from .tolerances import DEFAULT_POLICY, Record, TolerancePolicy, require_finite

Triple = tuple[int, int, int]


class LinearForm(Record):
    """A linear form ``c0*x0 + c1*x1 + c2*x2``."""

    c0: complex
    c1: complex
    c2: complex

    def __post_init__(self):
        require_finite(self.c0, self.c1, self.c2)
        for name in ("c0", "c1", "c2"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2], dtype=complex)

    def __call__(self, pt) -> complex:
        x = _coords(pt)
        return complex(self.c0 * x[0] + self.c1 * x[1] + self.c2 * x[2])

    def is_zero(self, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
        return abs(self.c0) + abs(self.c1) + abs(self.c2) <= policy.zero_tol

    def as_poly(self, policy: TolerancePolicy = DEFAULT_POLICY) -> "HomPoly":
        return HomPoly(1, {(1, 0, 0): self.c0, (0, 1, 0): self.c1, (0, 0, 1): self.c2},
                       policy=policy)

    def scaled(self, s: complex) -> "LinearForm":
        return LinearForm(s * self.c0, s * self.c1, s * self.c2)

    @staticmethod
    def zero() -> "LinearForm":
        return LinearForm(0, 0, 0)


class HomPoly:
    """Homogeneous polynomial in ``x0, x1, x2`` of a fixed degree."""

    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, terms: Mapping[Triple, complex] | None = None,
                 policy: TolerancePolicy = DEFAULT_POLICY):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Triple, complex] = {}
        for exp, coeff in (terms or {}).items():
            a, b, c = exp
            if a < 0 or b < 0 or c < 0 or a + b + c != degree:
                raise ValueError(f"exponent {exp} does not have total degree {degree}")
            coeff = complex(coeff)
            require_finite(coeff)
            if abs(coeff) > policy.zero_tol:
                clean[(int(a), int(b), int(c))] = clean.get((a, b, c), 0) + coeff
        clean = {e: v for e, v in clean.items() if abs(v) > policy.zero_tol}
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HomPoly is immutable")

    # -- inspection -----------------------------------------------------------

    @property
    def terms(self) -> dict[Triple, complex]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Triple, complex]]:
        """Terms in graded-lex order (descending on the exponent triple)."""
        return sorted(self._terms.items(), key=lambda t: t[0], reverse=True)

    def coeff(self, exp: Triple) -> complex:
        return self._terms.get(tuple(exp), 0j)

    def is_zero(self) -> bool:
        return not self._terms

    def max_coeff(self) -> float:
        return max((abs(v) for v in self._terms.values()), default=0.0)

    def __repr__(self):
        if self.is_zero():
            return f"HomPoly({self.degree}, 0)"
        parts = [f"({v:.6g})*x0^{a} x1^{b} x2^{c}" for (a, b, c), v in self.sorted_terms()]
        return " + ".join(parts)

    def __eq__(self, other):
        return (isinstance(other, HomPoly) and self.degree == other.degree
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self._terms.items())))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous polynomials of different degree")
        merged = dict(self._terms)
        for e, v in other._terms.items():
            merged[e] = merged.get(e, 0) + v
        return HomPoly(self.degree, merged)

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.degree, {e: -v for e, v in self._terms.items()})

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HomPoly):
            out: dict[Triple, complex] = {}
            for (a1, b1, c1), v1 in self._terms.items():
                for (a2, b2, c2), v2 in other._terms.items():
                    e = (a1 + a2, b1 + b2, c1 + c2)
                    out[e] = out.get(e, 0) + v1 * v2
            return HomPoly(self.degree + other.degree, out)
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, s: complex) -> "HomPoly":
        s = complex(s)
        return HomPoly(self.degree, {e: s * v for e, v in self._terms.items()})

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(degree: int) -> "HomPoly":
        return HomPoly(degree, {})

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
        if self.degree == 0:
            return HomPoly.zero(0)
        out: dict[Triple, complex] = {}
        for exp, v in self._terms.items():
            if exp[k] == 0:
                continue
            new = list(exp)
            new[k] -= 1
            out[tuple(new)] = v * exp[k]
        return HomPoly(self.degree - 1, out)

    def gradient(self) -> list["HomPoly"]:
        return [self.partial(k) for k in range(3)]

    def __call__(self, pt) -> complex:
        x = _coords(pt)
        total = 0j
        for (a, b, c), v in self._terms.items():
            total += v * x[0] ** a * x[1] ** b * x[2] ** c
        return complex(total)

    def restrict_line(self, base, direction) -> np.ndarray:
        """Coefficients (ascending in t) of ``p(base + t*direction)``."""
        b = _coords(base)
        d = _coords(direction)
        out = np.zeros(self.degree + 1, dtype=complex)
        for (a, bb, c), v in self._terms.items():
            factor = np.array([1.0 + 0j])
            for exp, k in ((a, 0), (bb, 1), (c, 2)):
                lin = np.array([b[k], d[k]])
                for _ in range(exp):
                    factor = np.convolve(factor, lin)
            out[: len(factor)] += v * factor
        return out

    def x0_zero_coeffs(self) -> np.ndarray:
        """Coefficients (ascending in t) of ``p(0, t, 1)``."""
        out = np.zeros(self.degree + 1, dtype=complex)
        for (a, b, c), v in self._terms.items():
            if a == 0:
                out[b] += v
        return out


def _coords(pt) -> np.ndarray:
    if isinstance(pt, ProjPoint):
        return pt.coords
    a = np.asarray(pt, dtype=complex)
    if a.shape != (3,):
        raise ValueError(f"expected a coordinate triple, got shape {a.shape}")
    return a


class ProjPoint:
    """A point of the projective plane, held in normalized form.

    The first coordinate whose modulus exceeds the zero tolerance is
    scaled to one, so equality is plain coordinate-wise comparison.
    """

    __slots__ = ("coords",)

    def __init__(self, x0: complex, x1: complex, x2: complex,
                 policy: TolerancePolicy = DEFAULT_POLICY):
        raw = np.array([x0, x1, x2], dtype=complex)
        require_finite(*raw)
        pivot = None
        for z in raw:
            if abs(z) > policy.zero_tol:
                pivot = z
                break
        if pivot is None:
            raise ValueError("all coordinates below the zero tolerance")
        coords = raw / pivot
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def x0(self) -> complex:
        return complex(self.coords[0])

    @property
    def x1(self) -> complex:
        return complex(self.coords[1])

    @property
    def x2(self) -> complex:
        return complex(self.coords[2])

    def affine(self, policy: TolerancePolicy = DEFAULT_POLICY) -> tuple[complex, complex]:
        """Affine coordinates in the chart ``x0 = 1``."""
        if abs(self.coords[0]) <= policy.zero_tol:
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


def roots_on_line(p: HomPoly, policy: TolerancePolicy = DEFAULT_POLICY) -> list[complex]:
    """Roots ``t`` of ``p(0, t, 1)``, checked distinct and re-verified.

    Raises :class:`RepeatedRoots` when two roots fall within the rank
    tolerance of each other, which signals that the curve meets the line
    ``x0 = 0`` non-transversally and a coordinate change is required.
    """
    c = p.x0_zero_coeffs()
    if np.all(np.abs(c) == 0):
        raise PreconditionError("restriction of p to x0 = 0 is identically zero")
    roots = univariate_roots(c, policy)
    scale = float(np.max(np.abs(c)))
    sep = policy.rank_tol * max(1.0, float(np.max(np.abs(roots))) if roots.size else 1.0)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < sep:
                raise RepeatedRoots(
                    f"roots {roots[i]:.6g} and {roots[j]:.6g} closer than {sep:.2g}")
    for r in roots:
        bound = scale * sum(abs(r) ** k for k in range(len(c)))
        if abs(np.polyval(c[::-1], r)) > policy.match_tol * bound:
            raise NumericalError(f"root {r:.6g} fails the residual re-check")
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))


def equal_up_to_scale(p: HomPoly, q: HomPoly,
                      policy: TolerancePolicy = DEFAULT_POLICY) -> complex | None:
    """Constant ``c`` with ``q = c * p`` coefficient-wise, or ``None``.

    The residual is measured relative to the dominant coefficient.  Two
    zero polynomials compare equal with ``c = 1``.
    """
    if p.degree != q.degree:
        raise PreconditionError("polynomials must have the same degree")
    if p.is_zero():
        return 1.0 + 0j if q.is_zero() else None
    if q.is_zero():
        return None
    exp_dom = max(p.terms, key=lambda e: abs(p.coeff(e)))
    c = q.coeff(exp_dom) / p.coeff(exp_dom)
    diff = q - p.scaled(c)
    scale = max(q.max_coeff(), abs(c) * p.max_coeff())
    if diff.max_coeff() <= policy.match_tol * scale:
        return complex(c)
    return None
