"""Linear matrix pencils in the plane and their pfaffian calculus.

A pencil ``C(x) = x0*C0 + x1*C1 + x2*C2`` holds one read-only ``(3, n, n)``
stack ``coeffs``; ``A0..A2`` of a skew :class:`SkewPencil` and ``M0..M2`` of
a :class:`DetRep` are its views, and one base gives every pencil its values,
scale, entries and pairings ``x -> u^t C(x) v``.  The sign convention is
fixed by ``Pf [[0, 1], [-1, 0]] = +1`` and ``Pf(empty) = 1``; every identity
in this module (adjoint, derivative expansion, scaling law) is stated and
tested relative to that choice.

One engine computes every pfaffian and determinant.  Numeric pfaffians
come from pivoted skew (Parlett-Reid) elimination, O(n^3) per matrix and
vectorized over a stack of matrices.  A symbolic pfaffian of degree d is
interpolated from its values on the (d+1)^2 grid ``(1, w^a, w^b)`` of
roots of unity ``w = exp(2 pi i/(d+1))`` by a two-sided inverse DFT,
O(d^5) in all; the pencil is first scaled by one common power of two,
which is exact and keeps the grid on the unit torus.  Pfaffian minors,
the adjoint and the determinant of a :class:`DetRep` use the same two
steps.  Two pencils' pfaffians are compared by their values at fixed
points (:func:`pf_deviation`), with no polynomial.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, RankDeficiency, SingularTransform, SkewSymmetryViolation
from .poly import HomPoly, LinearForm, ProjPoint
from .tolerances import (DEFAULT_POLICY, Held, Record, TolerancePolicy, draws, null_space,
                         require_finite_array)


def _as_square(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    require_finite_array(m)
    return m


def _as_stack(mats, names) -> np.ndarray:
    """The read-only ``(3, n, n)`` stack of three square matrices of one size."""
    mats = [_as_square(m, name) for m, name in zip(mats, names)]
    if not mats[0].shape == mats[1].shape == mats[2].shape:
        raise ValueError("coefficient matrices must share one dimension")
    C = np.stack(mats)
    C.setflags(write=False)
    return C


def _check_skew(m: np.ndarray, name: str, tol: float, scale: float) -> None:
    """``scale`` is the largest entry of the object ``m`` belongs to."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SkewSymmetryViolation(f"{name} must be square, got shape {m.shape}")
    if not m.size:
        return
    dev = np.abs(m + m.T)
    if dev.max() > tol * scale:
        k, l = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise SkewSymmetryViolation(
            f"{name}[{k},{l}] deviates from skew-symmetry by {dev.max():.3g}")


class _LinearPencil(Held):
    """What every pencil does with its ``(3, n, n)`` stack ``coeffs``."""

    __slots__ = ()
    _held = "coeffs"

    def __call__(self, pt) -> np.ndarray:
        x = pt.coords if isinstance(pt, ProjPoint) else np.asarray(pt, dtype=complex)
        C = self.coeffs
        return x[0] * C[0] + x[1] * C[1] + x[2] * C[2]

    def scale(self) -> float:
        """The largest modulus of a coefficient entry."""
        return float(np.max(np.abs(self.coeffs)))

    def entry(self, i: int, j: int) -> LinearForm:
        return LinearForm(*self.coeffs[:, i, j])

    def pairing(self, u: np.ndarray, v: np.ndarray) -> LinearForm:
        """The linear form ``x -> u^t C(x) v``."""
        return LinearForm(*(u @ Ck @ v for Ck in self.coeffs))


class SkewPencil(_LinearPencil):
    """Linear pencil of skew-symmetric matrices.

    The coefficient of ``x1`` plays the role of ``sigma2``, the
    coefficient of ``x2`` is ``-sigma1`` and the coefficient of ``x0``
    is the affine constant part ``gamma``, matching the affine chart
    ``x0 = 1`` used by the elementary transformations.
    """

    __slots__ = ("half_deg", "coeffs", "A0", "A1", "A2", "_pf")

    def __init__(self, A0, A1, A2, policy: TolerancePolicy = DEFAULT_POLICY):
        names = ("A0", "A1", "A2")
        C = _as_stack((A0, A1, A2), names)
        n = C.shape[1]
        if n % 2 or n == 0:
            raise ValueError(f"dimension must be even and positive, got {n}")
        self._adopt(C)
        scale = self.scale()
        for m, name in zip(C, names):
            _check_skew(m, name, policy.zero_tol, scale)

    def _adopt(self, C: np.ndarray) -> None:
        for name, value in (("half_deg", C.shape[1] // 2), ("coeffs", C),
                            *zip(("A0", "A1", "A2"), C), ("_pf", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SkewPencil is immutable")

    @property
    def dim(self) -> int:
        return 2 * self.half_deg

    @property
    def gamma(self) -> np.ndarray:
        return self.A0

    @property
    def sigma1(self) -> np.ndarray:
        return -self.A2

    @property
    def sigma2(self) -> np.ndarray:
        return self.A1

    def with_gamma(self, new_A0, policy: TolerancePolicy = DEFAULT_POLICY) -> "SkewPencil":
        """Same ``x1``/``x2`` parts, new constant part."""
        return SkewPencil(new_A0, self.A1, self.A2, policy=policy)

    def pfaffian(self) -> HomPoly:
        """Symbolic pfaffian, a homogeneous polynomial of degree ``half_deg``."""
        if self._pf is None:
            object.__setattr__(self, "_pf", _grid_poly(_pf_stack, self.coeffs, self.half_deg))
        return self._pf


class DetRep(_LinearPencil, Record):
    """A d-by-d matrix of linear forms (no symmetry imposed)."""

    __slots__ = ("coeffs",)  # held beside the fields, which are its views
    __hash__ = Record.__hash__  # unhashable, as a record of arrays is

    M0: np.ndarray
    M1: np.ndarray
    M2: np.ndarray

    def __post_init__(self):
        self._adopt(_as_stack(self._values(), self._fields))

    def _adopt(self, C: np.ndarray) -> None:
        object.__setattr__(self, "coeffs", C)
        self.__dict__.update(zip(self._fields, C))

    @property
    def size(self) -> int:
        return self.M0.shape[0]

    def det_poly(self) -> HomPoly:
        """Symbolic determinant, interpolated from numeric determinants."""
        return _grid_poly(np.linalg.det, self.coeffs, self.size)


class KernelBasis(Record):
    """Orthonormal basis of the two-dimensional kernel at a curve point.

    ``vectors`` has the two basis vectors as columns; ``residual`` is the
    largest ratio ``|A(pt) v| / sigma_max``.
    """

    point: ProjPoint
    vectors: np.ndarray
    residual: float

    @property
    def v1(self) -> np.ndarray:
        return self.vectors[:, 0]

    @property
    def v2(self) -> np.ndarray:
        return self.vectors[:, 1]


# -- pfaffian engine -------------------------------------------------------------

def _pf_stack(A: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack ``(m, n, n)`` of skew matrices.

    Pivoted Parlett-Reid elimination (M. Wimmer, "Algorithm 923", ACM
    TOMS 38(4), 2012), vectorized over the stack: each step moves the
    largest entry below the diagonal of the first column to position
    ``(1, 0)``, multiplies the pfaffian by the pivot ``B[0, 1]`` and
    eliminates the first two rows and columns by a skew rank-2 update.
    Both triangles are read, so the input must be skew.
    """
    B = np.asarray(A, dtype=complex)
    m, n = B.shape[0], B.shape[-1]
    if n % 2:
        return np.zeros(m, dtype=complex)
    pf = np.ones(m, dtype=complex)
    stack = np.arange(m)[:, None, None]
    while B.shape[-1]:
        r = B.shape[-1]
        p = 1 + np.argmax(np.abs(B[:, 1:, 0]), axis=1)
        perm = np.broadcast_to(np.arange(r), (m, r)).copy()
        perm[:, 1], perm[np.arange(m), p] = p, 1
        B = B[stack, perm[:, :, None], perm[:, None, :]]
        pivot = B[:, 0, 1]
        pf *= np.where(p == 1, pivot, -pivot)
        # an exactly zero pivot has just made pf zero; dividing by one
        # instead is a divide-by-zero guard that keeps the update finite
        tau = B[:, 0, 2:] / np.where(pivot == 0, 1, pivot)[:, None]
        col = B[:, 2:, 1]
        B = (B[:, 2:, 2:] + tau[:, :, None] * col[:, None, :]
             - col[:, :, None] * tau[:, None, :])
    return pf


def _grid_poly(fn, C: np.ndarray, deg: int) -> HomPoly:
    """Coefficients of the degree-``deg`` form ``fn(x0 C[0] + x1 C[1] + x2 C[2])``.

    ``fn`` maps a stack of matrices to a vector of values; ``C`` is a
    ``(3, n, n)`` coefficient stack.  The form is evaluated on the
    ``(deg+1)^2`` grid ``(1, w^a, w^b)`` with ``w = exp(2 pi i/(deg+1))``,
    one stack for the whole grid, and the coefficient of
    ``x0^(deg-i-j) x1^i x2^j`` is entry ``(i, j)`` of the two-sided inverse
    DFT ``F @ vals @ F.T`` (rounding noise where ``i + j > deg``).  The
    stack is scaled by one common power of two ``g``, which is exact and
    keeps every grid point on the unit torus, so small coefficients are not
    swamped; the result is scaled back by ``g^-deg``.  Forms of degree at
    most one are read off their values at the coordinate points: ``C``.
    """
    if deg <= 1:
        vals = fn(C)
        return HomPoly.from_array([[vals[0]]] if deg == 0 else
                                  [[vals[0], vals[2]], [vals[1], 0]])
    N = deg + 1
    e = int(np.frexp(float(np.max(np.abs(C))))[1])
    k = np.arange(N)
    w = np.exp(2j * np.pi * (np.outer(k, k) % N) / N)
    z = w[1]
    grid = np.ldexp(1.0, -e) * (C[0] + z[:, None, None, None] * C[1]
                                + z[None, :, None, None] * C[2])
    vals = fn(grid.reshape(N * N, *C.shape[1:])).reshape(N, N)
    F = w.conj() / N
    return HomPoly.from_array((F @ vals @ F.T) * np.ldexp(1.0, e * deg))


def pfaffian_numeric(A) -> complex:
    """Pfaffian of a constant skew matrix.

    Raises :class:`SkewSymmetryViolation` when ``A`` is not square or
    not skew, since the elimination reads both triangles.
    """
    A = np.asarray(A, dtype=complex)
    _check_skew(A, "A", DEFAULT_POLICY.zero_tol, float(np.max(np.abs(A), initial=0.0)))
    return complex(_pf_stack(A[None])[0])


def pf_deviation(P: SkewPencil, Q: SkewPencil, scale: complex = 1.0) -> float:
    """How far ``Pf Q`` is from ``scale * Pf P``: ``max |Pf Q(x) - scale Pf P(x)|``
    over ``max |scale Pf P(x)|``, the larger of its values on two sets of four
    fixed points: ``y = draws(0)(4, 3)`` as drawn, and sized by both pencils,
    ``x_k = y_k / s_k`` with ``s_k`` the largest entry of ``A_k`` in either.

    Each pencil is evaluated at the eight points as ``P(x)`` does and takes one
    elimination of its stack.  Why both sets: README, "Command line".
    """
    s = np.maximum(np.max(np.abs(P.coeffs), axis=(1, 2)), np.max(np.abs(Q.coeffs), axis=(1, 2)))
    y = draws(0)(4, 3)
    # shape (3, 8, 1, 1), so that P(x) is the stack of the pencil's eight values
    x = np.concatenate([y, y / np.where(s > 0, s, 1.0)]).T[:, :, None, None]
    want = (scale * _pf_stack(P(x))).reshape(2, 4)
    dev = np.max(np.abs(_pf_stack(Q(x)).reshape(2, 4) - want), axis=1)
    return float(np.max(dev / np.maximum(np.max(np.abs(want), axis=1), 1e-300)))


# -- derived operations ---------------------------------------------------------

def pfaffian_minor(P: SkewPencil, i: int, j: int) -> HomPoly:
    """Pfaffian of the pencil with rows and columns ``i`` and ``j`` removed.

    Indices are zero-based.  All minors of a 2x2 pencil are the constant
    one, by the convention ``Pf(empty) = 1``.
    """
    n = P.dim
    if not (0 <= i < n and 0 <= j < n):
        raise PreconditionError(f"indices ({i}, {j}) out of range for dimension {n}")
    if i == j:
        raise PreconditionError("minor indices must differ")
    keep = [k for k in range(n) if k not in (i, j)]
    return _grid_poly(_pf_stack, P.coeffs[np.ix_(range(3), keep, keep)], P.half_deg - 1)


def pfaffian_adjoint_at(P: SkewPencil, pt) -> np.ndarray:
    """Skew matrix of signed minors of ``A(pt)``.

    Entry ``(i, j)`` for ``i < j`` is ``(-1)^(i+j) Pf^{ij}`` in one-based
    index parity, which makes ``adj(pt) @ A(pt) = Pf A(pt) * Id`` hold.
    The minors are computed directly, one stack of all of them, so the
    identity also holds where ``A(pt)`` is singular.
    """
    A = P(pt)
    n = P.dim
    iu, ju = np.triu_indices(n, 1)
    keep = np.array([[k for k in range(n) if k not in (i, j)] for i, j in zip(iu, ju)],
                    dtype=int).reshape(len(iu), n - 2)
    minors = _pf_stack(A[keep[:, :, None], keep[:, None, :]])
    adj = np.zeros((n, n), dtype=complex)
    adj[iu, ju] = np.where((iu + ju) % 2, -minors, minors)
    adj[ju, iu] = -adj[iu, ju]
    return adj


def kernel_at(P: SkewPencil, pt: ProjPoint,
              policy: TolerancePolicy = DEFAULT_POLICY) -> KernelBasis:
    """Orthonormal basis of the kernel of ``A(pt)``, which must be 2-dimensional.

    Raises :class:`RankDeficiency` when the numerical corank differs from
    two: corank zero means the point is off the curve, corank above two
    signals a singular curve point or a defective representation.  The
    basis is gauged so each vector's largest-modulus entry is real and
    positive, giving a reproducible representative.
    """
    A = P(pt)
    rows, s = null_space(A, policy.rank_tol)
    if len(rows) != 2:
        raise RankDeficiency(
            f"kernel at {pt} has corank {len(rows)}, expected 2", corank=len(rows))
    vecs = _gauge(rows).T
    residual = float(np.max(np.abs(A @ vecs)) / (float(s[0]) or 1.0))
    vecs.setflags(write=False)
    return KernelBasis(point=pt, vectors=vecs, residual=residual)


def _gauge(rows: np.ndarray) -> np.ndarray:
    """Scale each row in place so its largest-modulus entry is real and positive."""
    for row in rows:
        phase = row[int(np.argmax(np.abs(row)))]
        row *= np.conj(phase) / abs(phase)
    return rows


def congruence(P: SkewPencil, X: np.ndarray,
               policy: TolerancePolicy = DEFAULT_POLICY) -> SkewPencil:
    """The pencil ``X A X^t``; its pfaffian is ``det X`` times the old one.
    ``X`` is singular when ``sigma_min(X) <= zero_tol * sigma_max(X)``."""
    X = _as_square(X, "X")
    if X.shape[0] != P.dim:
        raise ValueError("transform dimension mismatch")
    if len(null_space(X, policy.zero_tol)[0]):
        raise SingularTransform("congruence matrix is numerically singular")
    return SkewPencil(*(X @ P.coeffs @ X.T), policy=policy)


def decomposable_from(M: DetRep, policy: TolerancePolicy = DEFAULT_POLICY) -> SkewPencil:
    """The block pencil ``[[0, M], [-M^t, 0]]`` of a determinantal representation."""
    d = M.size
    A = np.zeros((3, 2 * d, 2 * d), dtype=complex)
    A[:, :d, d:] = M.coeffs
    A[:, d:, :d] = -M.coeffs.transpose(0, 2, 1)
    return SkewPencil(*A, policy=policy)


def wedge_to_matrix(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rank-at-most-2 skew matrix with entries ``u_i v_j - u_j v_i``."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return np.outer(u, v) - np.outer(v, u)
