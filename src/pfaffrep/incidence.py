"""Geometry read off a representation: lines, tangents, point pairing.

Pairs of curve points are coupled through the parameter-independent
constant ``K`` of the kernel vectors, read with no seed at one fixed
direction; its vanishing pattern over the two kernel planes classifies
the pair as inadmissible (all of K vanishes), semiadmissible (rank one)
or admissible (invertible), and in the admissible case gives a one-to-one
correspondence between kernel directions at the two points.

Affine formulas live in the chart ``x0 = 1``; operations reject points
too close to the line ``x0 = 0``.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateDenominator, NoAdmissiblePartner, PreconditionError,
                     RankDeficiency, RepeatedRoots, SamePoint, SpanFailure, VectorNotInKernel)
from .pencil import KernelBasis, SkewPencil, kernel_at, pfaffian_numeric
from .poly import HomPoly, LinearForm, ProjPoint, close_pair, univariate_roots
from .tolerances import DEFAULT_POLICY, Record, TolerancePolicy, draws, null_space


class CurvePoint(Record):
    pt: ProjPoint
    curve_residual: float


def curve_point(F: HomPoly, pt: ProjPoint,
                policy: TolerancePolicy = DEFAULT_POLICY) -> CurvePoint:
    """A point checked to lie on ``F = 0``; ``curve_residual`` is ``|F(pt)|`` over its bound."""
    res = abs(F(pt))
    bound = F.max_coeff() * max(1.0, float(np.max(np.abs(pt.coords)))) ** F.degree
    if res > policy.match_tol * bound:
        raise PreconditionError(f"point {pt} is off the curve (residual {res:.3g})")
    return CurvePoint(pt=pt, curve_residual=res / bound if bound else 0.0)


def sample_curve_points(F: HomPoly, count: int, seed: int = 0,
                        policy: TolerancePolicy = DEFAULT_POLICY) -> list[CurvePoint]:
    """Sample points of ``F = 0`` by intersecting with random lines.

    Lines pass through a fixed (seeded) interior point; roots along each
    line give curve points.  Points not :meth:`ProjPoint.in_chart` are
    discarded, so the affine-chart operations apply.
    """
    draw = draws(seed)
    center = draw(3)
    out: list[CurvePoint] = []
    attempts = 0
    while len(out) < count and attempts < 40 * (count + 1):
        attempts += 1
        direction = draw(3)
        coeffs = F.restrict_line(center, direction)
        for t in univariate_roots(coeffs, policy):
            pt = ProjPoint(*(center + t * direction), policy=policy)
            if not pt.in_chart(policy):
                continue
            try:
                out.append(curve_point(F, pt, policy))
            except PreconditionError:
                continue
            if len(out) >= count:
                break
    if len(out) < count:
        raise PreconditionError(f"could not sample {count} curve points")
    return out


def line_points(P: SkewPencil, base, direction,
                policy: TolerancePolicy = DEFAULT_POLICY) -> list[tuple[complex, np.ndarray]]:
    """The ``(t, K)`` where ``base + t * direction`` meets ``Pf P = 0``, sorted by (real,
    imaginary) part, ``K`` the :func:`pencil.kernel_at` basis there: with ``B + t M`` the
    pencil on the line, each ``t`` is a double eigenvalue of ``-M^-1 B`` (``det = Pf^2``).
    A singular ``M`` or a point without a 2-dimensional kernel raise :class:`SpanFailure`,
    two points within the separation of :func:`poly.close_pair` :class:`RepeatedRoots`."""
    base, direction = np.asarray(base, dtype=complex), np.asarray(direction, dtype=complex)
    B, M = P(base), P(direction)
    if len(null_space(M, policy.rank_tol)[0]):
        raise SpanFailure(f"the line's direction {ProjPoint(*direction)} lies on the curve")
    w = np.linalg.eigvals(-np.linalg.solve(M, B))
    left, ts = list(range(len(w))), []
    while left:
        i = left.pop()
        j = left.pop(int(np.argmin(np.abs(w[left] - w[i]))))
        ts.append(complex(w[i] + w[j]) / 2)
    if (close := close_pair(ts, policy)) is not None:
        raise RepeatedRoots("points t = {:.6g} and {:.6g} closer than {:.2g}".format(*close))
    out = []
    for t in sorted(ts, key=lambda t: (t.real, t.imag)):
        pt = ProjPoint(*(base + t * direction), policy=policy)
        try:
            out.append((t, kernel_at(P, pt, policy).vectors))
        except RankDeficiency as exc:
            raise SpanFailure(f"no kernel plane at t = {t:.6g}: {exc}") from None
    return out


def line_through(P: SkewPencil, lam: ProjPoint, v: np.ndarray,
                 mu: ProjPoint, u: np.ndarray,
                 policy: TolerancePolicy = DEFAULT_POLICY) -> LinearForm:
    """The linear form ``x -> u^t A(x) v`` for kernel vectors at two points.

    If nonzero it vanishes at both points, hence cuts out the line
    through them; with ``lam == mu`` and independent vectors it is the
    tangent line at that point.  The zero form is a meaningful outcome
    (the vectors are then an inadmissible pair) and is returned, not
    raised.
    """
    _require_kernel(P, lam, v, policy)
    _require_kernel(P, mu, u, policy)
    return P.pairing(u, v)


def tangent_line(P: SkewPencil, lam: ProjPoint,
                 policy: TolerancePolicy = DEFAULT_POLICY) -> LinearForm:
    """Tangent line at a curve point, from the two kernel directions there."""
    kb = kernel_at(P, lam, policy)
    return line_through(P, lam, kb.v2, lam, kb.v1, policy)


def _require_kernel(P: SkewPencil, pt, v: np.ndarray, policy: TolerancePolicy) -> None:
    """The kernel-membership rule ``|A(pt) v| <= rank_tol |A(pt)| |v|``."""
    A = P(pt)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise VectorNotInKernel("zero vector")
    res = float(np.linalg.norm(A @ v)) / (np.linalg.norm(A, 2) * nv)
    if res > policy.rank_tol:
        raise VectorNotInKernel(f"vector fails A(pt) v = 0 at {pt} (residual {res:.3g})")


def k_constant(P: SkewPencil, lam: ProjPoint, v: np.ndarray,
               mu: ProjPoint, u: np.ndarray, t1: complex | None = None,
               t2: complex | None = None, policy: TolerancePolicy = DEFAULT_POLICY,
               check_kernels: bool = True) -> complex:
    """The coupling constant of kernel vectors at two distinct points.

    ``K = v^t (t1 sigma1 + t2 sigma2) u / (t1 (l1-m1) + t2 (l2-m2))`` in
    the affine chart; the value does not depend on ``(t1, t2)`` as long
    as the denominator stays away from zero, as ``v^t sigma_i u = K (l_i -
    m_i)`` for i = 1, 2.  The default ``t = conj(lambda - mu)`` makes the
    denominator ``|lambda - mu|^2`` and K the least-squares solution.
    """
    if lam.close_to(mu, policy):
        raise SamePoint("the two points coincide")
    if check_kernels:
        _require_kernel(P, lam, v, policy)
        _require_kernel(P, mu, u, policy)
    l1, l2 = lam.affine(policy)
    m1, m2 = mu.affine(policy)
    if t1 is None and t2 is None:
        t1, t2 = (l1 - m1).conjugate(), (l2 - m2).conjugate()
    den = t1 * (l1 - m1) + t2 * (l2 - m2)
    scale = max(abs(t1), abs(t2)) * max(abs(l1 - m1), abs(l2 - m2), policy.zero_tol)
    if abs(den) <= policy.rank_tol * scale:
        raise DegenerateDenominator(
            f"direction ({t1:.3g}, {t2:.3g}) annihilates the point difference")
    num = v @ (t1 * P.sigma1 + t2 * P.sigma2) @ u
    return complex(num / den)


def _operator_scale(P: SkewPencil) -> float:
    """``max(|sigma1|_2, |sigma2|_2)``, the size of the pencil's non-constant part."""
    return max(np.linalg.norm(P.sigma1, 2), np.linalg.norm(P.sigma2, 2))


def _admissibility_scale(P: SkewPencil, lam: ProjPoint, mu: ProjPoint,
                         policy: TolerancePolicy) -> float:
    """The size of a genuine K between unit kernel vectors at ``lam`` and ``mu``."""
    l1, l2 = lam.affine(policy)
    m1, m2 = mu.affine(policy)
    return _operator_scale(P) / max(abs(l1 - m1), abs(l2 - m2), policy.zero_tol)


_KINDS = ("inadmissible", "semiadmissible", "admissible")


class PairClassification(Record):
    kind: str
    kappa: np.ndarray
    basis_lambda: KernelBasis
    basis_mu: KernelBasis
    special_vectors: tuple[np.ndarray, np.ndarray] | None

    def partner_direction(self, v_coeffs: np.ndarray) -> np.ndarray:
        """For an admissible pair: the kernel direction at mu coupled to
        ``v = basis_lambda.vectors @ v_coeffs`` by ``K(v, u) = 0``."""
        if self.kind != "admissible":
            raise PreconditionError("partner directions need an admissible pair")
        row = np.asarray(v_coeffs, dtype=complex) @ self.kappa
        u_coeffs = np.array([row[1], -row[0]])
        u_coeffs /= np.linalg.norm(u_coeffs)
        return self.basis_mu.vectors @ u_coeffs


def classify_pair(P: SkewPencil, lam: ProjPoint, mu: ProjPoint,
                  policy: TolerancePolicy = DEFAULT_POLICY) -> PairClassification:
    """Classify a distinct pair of curve points by the rank of K over the kernels.

    The 2x2 matrix ``kappa[i][j] = K(b_i, c_j)`` over orthonormal kernel
    bases has numerical rank 0, 1 or 2; for rank 1 the two null
    directions (``y kappa = 0`` and ``kappa x = 0``, plain transpose
    since K is bilinear) give the unique special vector pair.
    """
    if lam.close_to(mu, policy):
        raise SamePoint("classification needs two distinct points")
    kb_l = kernel_at(P, lam, policy)
    kb_m = kernel_at(P, mu, policy)
    kappa = np.array([[k_constant(P, lam, b, mu, c, policy=policy, check_kernels=False)
                       for c in (kb_m.v1, kb_m.v2)] for b in (kb_l.v1, kb_l.v2)])
    x_rows, sv = null_space(kappa, policy.rank_tol)
    special = None
    if sv[0] <= policy.rank_tol * _admissibility_scale(P, lam, mu, policy):
        kind = "inadmissible"
    elif len(x_rows) == 1:
        kind = "semiadmissible"
        y = null_space(kappa.T, policy.rank_tol)[0][-1]
        special = (kb_l.vectors @ y, kb_m.vectors @ x_rows[0])
    else:
        kind = "admissible"
    kappa.setflags(write=False)
    return PairClassification(kind=kind, kappa=kappa, basis_lambda=kb_l,
                              basis_mu=kb_m, special_vectors=special)


def partner_points(P: SkewPencil, lam: ProjPoint, v: np.ndarray, u: np.ndarray,
                   policy: TolerancePolicy = DEFAULT_POLICY) -> list[CurvePoint]:
    """The point ``mu`` on the curve, if any, with ``u`` in the kernel there, coupled to ``v``.

    A partner sits on the line ``mu_i(s) = lam_i - s * (v^t sigma_i u)`` (the step
    divided by its largest entry, so ``s`` does not depend on the pencil's scale),
    where ``A(mu) u = A(lam) u + s A(direction) u`` is linear in ``s``: its
    least-squares ``s`` is the only candidate besides ``lam`` itself (``s = 0``).
    The point is checked against ``A(mu) u = 0``; an empty list is a legitimate
    outcome.  Its ``curve_residual`` is ``|Pf A(mu)| / sigma_max(A(mu))^d``, at
    most the kernel residual, since the singular values of a skew matrix pair up.
    """
    _require_kernel(P, lam, v, policy)
    q1 = complex(v @ P.sigma1 @ u)
    q2 = complex(v @ P.sigma2 @ u)
    nv = float(np.linalg.norm(v) * np.linalg.norm(u))
    qmax = max(abs(q1), abs(q2))
    if qmax <= policy.rank_tol * _operator_scale(P) * nv:
        raise NoAdmissiblePartner("the coupling of v and u vanishes identically")
    l1, l2 = lam.affine(policy)
    base = np.array([1.0, l1, l2], dtype=complex)
    direction = np.array([0.0, -q1, -q2], dtype=complex) / qmax
    s = np.linalg.lstsq((P(direction) @ u)[:, None], -(P(base) @ u), rcond=None)[0][0]
    if abs(s) <= policy.rank_tol * max(1.0, abs(l1), abs(l2)):
        return []  # s = 0 reproduces lam itself
    pt = ProjPoint(*(base + s * direction), policy=policy)
    try:
        _require_kernel(P, pt, u, policy)
    except VectorNotInKernel:
        return []
    A = P(pt)
    return [CurvePoint(pt=pt, curve_residual=abs(pfaffian_numeric(A))
                       / np.linalg.norm(A, 2) ** P.half_deg)]
