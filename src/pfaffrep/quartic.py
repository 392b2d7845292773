"""Plane-quartic pipeline: polar cubics, the 8x8 Aronhold pfaffian, the
Scorza covariant, polar triangles and theta-characteristic identification.

A ternary cubic is carried around by its ten coefficients in the
normalization

    w000 x^3 + w111 y^3 + w222 z^3 + 6 w012 xyz + 3 w001 x^2 y
    + 3 w002 x^2 z + 3 w011 x y^2 + 3 w022 x z^2 + 3 w112 y^2 z
    + 3 w122 y z^2.

The polar cubic of a quartic F at a moving point has coefficients linear
in that point, so the same container holds either scalars (one cubic) or
linear forms (a pencil of cubics).  The pfaffian of the fixed 8x8 skew
arrangement of those coefficients vanishes exactly on sums of three
cubes; applied to the polar coefficients of F it produces the Scorza
quartic of F.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (CorankNotOne, DegenerateHessian, InconsistentPolarData,
                     MultipleMatches, NoMatch, NotAProductOfLines, NotOnBaseLocus,
                     PreconditionError, TangencyCheckFailed)
from .pencil import DetRep, SkewPencil, _gauge, pfaffian_numeric
from .poly import HomPoly, LinearForm, ProjPoint, close_pair, equal_up_to_scale, univariate_roots
from .tolerances import DEFAULT_POLICY, Record, TolerancePolicy, draws, null_space

CUBIC_FIELDS = ("w000", "w111", "w222", "w012", "w001",
                "w002", "w011", "w022", "w112", "w122")

_MONOMIAL = {
    "w000": ((3, 0, 0), 1), "w111": ((0, 3, 0), 1), "w222": ((0, 0, 3), 1),
    "w012": ((1, 1, 1), 6), "w001": ((2, 1, 0), 3), "w002": ((2, 0, 1), 3),
    "w011": ((1, 2, 0), 3), "w022": ((1, 0, 2), 3), "w112": ((0, 2, 1), 3),
    "w122": ((0, 1, 2), 3),
}


class CubicCoeffs(Record):
    """The ten cubic coefficients; entries are scalars or linear forms."""

    w000: complex | LinearForm
    w111: complex | LinearForm
    w222: complex | LinearForm
    w012: complex | LinearForm
    w001: complex | LinearForm
    w002: complex | LinearForm
    w011: complex | LinearForm
    w022: complex | LinearForm
    w112: complex | LinearForm
    w122: complex | LinearForm

    def values(self) -> list[complex | LinearForm]:
        return [getattr(self, n) for n in CUBIC_FIELDS]

    def is_pencil(self) -> bool:
        return any(isinstance(v, LinearForm) for v in self.values())

    def as_poly(self) -> HomPoly:
        """The cubic itself (scalar entries only)."""
        if self.is_pencil():
            raise PreconditionError("pencil-valued coefficients do not define one cubic")
        return HomPoly(3, {exp: mult * complex(getattr(self, name))
                           for name, (exp, mult) in _MONOMIAL.items()})

    def flatten(self) -> np.ndarray:
        """30-vector of the three linear coefficients of each entry."""
        if not all(isinstance(v, LinearForm) for v in self.values()):
            raise PreconditionError("flatten needs linear-form entries")
        return np.concatenate([v.coeffs for v in self.values()])


def polar_cubic(F: HomPoly) -> CubicCoeffs:
    """Coefficients of the polar cubic of a quartic at a moving point.

    The polar at ``(x0, x1, x2)`` is ``x0 dF/dx + x1 dF/dy + x2 dF/dz``;
    each of the ten coefficients is a linear form in the moving point.
    """
    if F.degree != 4:
        raise ValueError("polar coefficients are built from a quartic")
    grads = [g.c for g in F.gradient()]
    return CubicCoeffs(**{name: LinearForm(*(complex(g[b, e]) / mult for g in grads))
                          for name, ((_, b, e), mult) in _MONOMIAL.items()})


def polar_cubic_at(F: HomPoly, pt: ProjPoint) -> HomPoly:
    """The polar cubic of ``F`` at one fixed point."""
    return HomPoly.from_array(sum(x * g.c for x, g in zip(pt.coords, F.gradient())))


_ARONHOLD_UPPER = {
    (0, 1): ("w222", 1), (0, 2): ("w122", -1), (0, 4): ("w112", 1),
    (0, 6): ("w022", 1), (0, 7): ("w012", -1),
    (1, 2): ("w022", 1), (1, 3): ("w122", 1), (1, 4): ("w012", -1),
    (1, 5): ("w022", -1), (1, 7): ("w002", 1),
    (2, 3): ("w112", -1), (2, 5): ("w012", 1), (2, 6): ("w002", -1),
    (3, 4): ("w111", -1), (3, 6): ("w012", -1), (3, 7): ("w011", 1),
    (4, 5): ("w011", -1), (4, 6): ("w001", 1),
    (5, 6): ("w002", 1), (5, 7): ("w001", -1),
    (6, 7): ("w000", 1),
}


def aronhold_matrix(w: CubicCoeffs) -> SkewPencil | np.ndarray:
    """The fixed 8x8 skew arrangement of the cubic coefficients.

    Linear-form entries give a pencil (whose pfaffian is a quartic in
    the moving point); scalar entries give a constant skew matrix.
    """
    A = np.zeros((3, 8, 8), dtype=complex)
    for (i, j), (name, sgn) in _ARONHOLD_UPPER.items():
        f = getattr(w, name)
        c = f.coeffs if isinstance(f, LinearForm) else np.array([f, 0, 0], dtype=complex)
        A[:, i, j], A[:, j, i] = sgn * c, -sgn * c
    return SkewPencil(*A) if w.is_pencil() else A[0]


def aronhold_invariant(w: CubicCoeffs) -> HomPoly | complex:
    """Pfaffian of the 8x8 arrangement; zero exactly on sums of three cubes."""
    ar = aronhold_matrix(w)
    return ar.pfaffian() if isinstance(ar, SkewPencil) else pfaffian_numeric(ar)


def scorza_map(F: HomPoly) -> HomPoly:
    """The covariant quartic: Aronhold pfaffian of the polar coefficients."""
    return aronhold_invariant(polar_cubic(F))


def integrate_polar(w: CubicCoeffs,
                    policy: TolerancePolicy = DEFAULT_POLICY) -> HomPoly:
    """Recover the quartic whose polar coefficients are ``w``.

    ``d_j F`` has coefficient ``a_j F_a`` at ``x^(a - e_j)``, so each partial
    that reaches ``x^a`` reads off ``F_a``.  The polar map sends ``x^a`` to
    equal entries ``a0! a1! a2! / 6``: the mean reading is the least-squares
    preimage, and ``match_tol`` times the data's norm bounds the orthogonal
    residual, so no scale of the data changes the verdict.
    """
    b = w.flatten()  # raises PreconditionError unless every entry is a linear form
    total, count = np.zeros((5, 5), dtype=complex), np.zeros((5, 5))
    for name, (exp, mult) in _MONOMIAL.items():
        for j, wj in enumerate(getattr(w, name).coeffs):
            i, k = exp[1] + (j == 1), exp[2] + (j == 2)  # x^a = x^exp x_j
            total[i, k] += mult * wj / (exp[j] + 1)
            count[i, k] += 1
    F = HomPoly.from_array(total / np.maximum(count, 1))
    resid = float(np.linalg.norm(polar_cubic(F).flatten() - b))
    if resid > policy.match_tol * float(np.linalg.norm(b)):
        raise InconsistentPolarData(f"no quartic preimage (residual {resid:.3g})")
    return F


def hessian_det(cubic: HomPoly) -> HomPoly:
    """Determinant of the 3x3 matrix of second partials (again a cubic)."""
    H = [[cubic.partial(i).partial(j) for j in range(3)] for i in range(3)]
    return (H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
            - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
            + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0]))


def factor_three_lines(c: HomPoly, policy: TolerancePolicy = DEFAULT_POLICY
                       ) -> tuple[LinearForm, LinearForm, LinearForm]:
    """Split a cubic that is a product of three distinct lines.

    At a point on exactly one of the lines, the gradient of ``l1 l2 l3`` is
    a multiple of that line's coefficients; so each of the three roots on a
    generic line gives one factor, and one Gauss-Newton step of the three
    against the cubic removes the rounding of the gradients.  The lines come
    from the fixed stream ``draws(0)``; the next is tried (up to 8) when
    roots nearly collide or the factors do not reproduce the cubic.  The
    returned forms are unit-norm; their product matches the input up to one
    scalar.
    """
    if c.degree != 3:
        raise ValueError("expected a cubic")
    if c.is_zero():
        raise NotAProductOfLines("the zero cubic has no line factors")
    draw = draws(0)
    last_reason = "no usable restriction lines"
    for _ in range(8):
        base, direction = draw(2, 3)
        roots = univariate_roots(c.restrict_line(base, direction), policy)
        if len(roots) != 3:
            last_reason = f"restriction has {len(roots)} finite roots"
            continue
        if close_pair(roots, policy) is not None:
            last_reason = "roots on a restriction line nearly collide"
            continue
        grads = np.array([[g(base + t * direction) for g in c.gradient()] for t in roots])
        lines = grads / np.linalg.norm(grads, axis=1, keepdims=True)
        forms = [LinearForm(*l).as_poly() for l in lines]
        prod = forms[0] * forms[1] * forms[2]
        scale = equal_up_to_scale(prod, c, policy)
        if scale is None:
            last_reason = "the lines at the roots do not reproduce the cubic"
            continue
        J = np.column_stack([(forms[k - 1] * forms[k - 2] * LinearForm(*e).as_poly()).c.ravel()
                             for k in range(3) for e in np.eye(3)])
        step = np.linalg.lstsq(J, (c.scaled(1 / scale) - prod).c.ravel(), rcond=None)[0]
        lines = lines + step.reshape(3, 3)
        lines /= np.linalg.norm(lines, axis=1, keepdims=True)
        pairs = np.cross(lines, np.roll(lines, 1, axis=0))  # every pair of the three
        if np.min(np.linalg.norm(pairs, axis=1)) <= policy.rank_tol:
            raise NotAProductOfLines("two factor lines coincide")
        return tuple(LinearForm(*l) for l in lines)
    raise NotAProductOfLines(last_reason)


def _cubes(G) -> np.ndarray:
    """The raveled coefficients of ``(G[k] . x)^3``, one column for each line ``G[k]``."""
    return np.stack([(p * p * p).c.ravel() for p in (LinearForm(*g).as_poly() for g in G)],
                    axis=1)


class PolarTriangle(Record):
    """Cube-scaled lines with ``polar = g1^3 + g2^3 + g3^3`` and their vertices.

    ``vertices[k]`` is the intersection of the two lines other than
    ``lines[k]``.
    """

    lines: tuple[LinearForm, LinearForm, LinearForm]
    vertices: tuple[ProjPoint, ProjPoint, ProjPoint]
    residual: float


def polar_triangle(F: HomPoly, lam: ProjPoint,
                   policy: TolerancePolicy = DEFAULT_POLICY) -> PolarTriangle:
    """Express the polar cubic at ``lam`` as a sum of three cubes.

    The three lines are found by factoring the Hessian determinant of
    the polar cubic; the cube weights come from a least-squares solve,
    and the principal cube root folds them into the lines.  One joint
    Gauss-Newton step on ``g1^3 + g2^3 + g3^3 = c3`` (the derivative in the
    coefficient ``j`` of ``g_k`` is ``3 g_k^2 x_j``) then removes the
    rounding of the factored Hessian.  Vertices are pairwise intersections
    of the refined lines.
    """
    c3 = polar_cubic_at(F, lam)
    if c3.is_zero():
        raise DegenerateHessian("polar cubic vanishes at the point")
    hd = hessian_det(c3)
    if hd.is_zero():
        raise DegenerateHessian("Hessian determinant vanishes identically")
    try:
        ells = factor_three_lines(hd, policy)
    except NotAProductOfLines as exc:
        raise DegenerateHessian(str(exc)) from exc
    b = c3.c.ravel()
    sol, *_ = np.linalg.lstsq(_cubes([ell.coeffs for ell in ells]), b, rcond=None)
    G = np.array([ell.coeffs * complex(ck) ** (1.0 / 3.0) for ck, ell in zip(sol, ells)])
    J = 3.0 * np.column_stack([(p * p * LinearForm(*e).as_poly()).c.ravel()
                               for p in (LinearForm(*g).as_poly() for g in G)
                               for e in np.eye(3)])
    G = G + np.linalg.lstsq(J, b - _cubes(G).sum(axis=1), rcond=None)[0].reshape(3, 3)
    residual = float(np.max(np.abs(_cubes(G).sum(axis=1) - b))) / c3.max_coeff()
    if residual > policy.match_tol:
        raise DegenerateHessian(f"three-cube fit fails (residual {residual:.3g})")
    gs = tuple(LinearForm(*g) for g in G)
    verts = []
    for k in range(3):
        others = [gs[i].coeffs for i in range(3) if i != k]
        verts.append(ProjPoint(*np.cross(others[0], others[1]), policy=policy))
    return PolarTriangle(lines=gs, vertices=tuple(verts), residual=float(residual))


class SymDetRep(DetRep):
    """A symmetric determinantal representation (all three matrices symmetric)."""

    def __post_init__(self):
        super().__post_init__()
        scale = self.scale()
        for name, m in zip(self._fields, self.coeffs):
            dev = float(np.max(np.abs(m - m.T)))
            if dev > DEFAULT_POLICY.zero_tol * scale:
                raise ValueError(f"{name} is not symmetric (deviation {dev:.3g})")


def corank_one_kernel(M: DetRep, pt: ProjPoint,
                      policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Unit kernel vector of ``M(pt)``, which must have corank exactly one."""
    rows, _ = null_space(M(pt), policy.rank_tol)
    if len(rows) != 1:
        raise CorankNotOne(f"corank {len(rows)} at {pt}, expected 1")
    return _gauge(rows)[0]


class ScorzaRelation(Record):
    related: bool
    residuals: tuple[float, float, float]


def scorza_related(M: SymDetRep, lam: ProjPoint, mu: ProjPoint,
                   policy: TolerancePolicy = DEFAULT_POLICY) -> ScorzaRelation:
    """Whether the kernel vectors at two points pair to zero in all of M.

    Tests ``v^t M_k u = 0`` for the three coefficient matrices; residuals
    are normalized by the representation-wide scale ``max_k |M_k|``, the
    right yardstick because kernel errors mix all three coefficients.
    """
    v = corank_one_kernel(M, lam, policy)
    u = corank_one_kernel(M, mu, policy)
    opscale = max(np.linalg.norm(Mk, 2) for Mk in M.coeffs)
    res = tuple(float(abs(q)) / opscale for q in M.pairing(v, u).coeffs)
    return ScorzaRelation(related=max(res) <= policy.match_tol, residuals=res)


class ThetaIdentification(Record):
    index: int
    evidence: list[dict]


def identify_theta(source: HomPoly | CubicCoeffs,
                   candidates: Sequence[SymDetRep],
                   samples: int = 3,
                   policy: TolerancePolicy = DEFAULT_POLICY,
                   det_match_tol: float | None = None) -> ThetaIdentification:
    """Pick the symmetric representation realizing the polar-triangle pairing.

    ``source`` is either the quartic F or the polar coefficients of its
    covariant quartic (from which F is recovered by integration).  For
    each sampled point of the covariant quartic, the polar triangle of F
    supplies three partner vertices; the unique candidate whose kernel
    pairing vanishes at every (point, vertex) pair wins.  A candidate
    whose matrix is not corank one at a required vertex cannot carry the
    pairing and is ruled out on that ground.

    ``det_match_tol`` loosens only the entry check that each candidate's
    determinant cuts out the covariant quartic; data printed to few
    decimals needs it far looser than the pairing tolerance.
    """
    if isinstance(source, CubicCoeffs):
        F = integrate_polar(source, policy)
        S = aronhold_invariant(source)
    else:
        F = source
        S = scorza_map(F)
    if samples < 3:
        raise PreconditionError("need at least 3 sample points")
    if not candidates:
        raise NoMatch("empty candidate list")
    det_policy = TolerancePolicy(policy.zero_tol, policy.rank_tol,
                                 max(det_match_tol or policy.match_tol, policy.match_tol))
    for idx, M in enumerate(candidates):
        if equal_up_to_scale(M.det_poly(), S, det_policy) is None:
            raise PreconditionError(
                f"candidate {idx} is not a determinantal representation of the covariant")
    from .incidence import sample_curve_points
    pts = sample_curve_points(S, 3 * samples, policy=policy)
    alive = set(range(len(candidates)))
    evidence: list[dict] = []
    used = 0
    for cp in pts:
        if used >= samples:
            break
        try:
            tri = polar_triangle(F, cp.pt, policy)
        except DegenerateHessian:
            continue
        used += 1
        row = {"point": cp.pt, "vertices": tri.vertices, "residuals": {}}
        for idx, M in enumerate(candidates):
            worst = 0.0
            ok = True
            for mu in tri.vertices:
                try:
                    rel = scorza_related(M, cp.pt, mu, policy)
                except CorankNotOne:
                    ok = False
                    worst = float("inf")
                    break
                worst = max(worst, max(rel.residuals))
                ok = ok and rel.related
            row["residuals"][idx] = worst
            if not ok:
                alive.discard(idx)
        evidence.append(row)
    if used < samples:
        raise PreconditionError(f"only {used} of {samples} samples produced triangles")
    if not alive:
        raise NoMatch("no candidate realizes the correspondence")
    if len(alive) > 1:
        raise MultipleMatches(f"candidates {sorted(alive)} all realize the correspondence")
    return ThetaIdentification(index=alive.pop(), evidence=evidence)


def bitangent_from_octad(M: SymDetRep, b_i: np.ndarray, b_j: np.ndarray,
                         policy: TolerancePolicy = DEFAULT_POLICY) -> LinearForm:
    """The bitangent ``x -> b_i^t M(x) b_j`` from two base points of the net.

    Both vectors must lie on all three quadrics of the net (membership is
    verified, not computed).  The resulting line is checked to touch the
    quartic ``det M = 0`` doubly: the restriction of the quartic to the
    line must have two double roots.  Root pairs are compared at the
    square root of ``match_tol`` since a double root splits like the
    square root of a coefficient perturbation.
    """
    b_i = np.asarray(b_i, dtype=complex)
    b_j = np.asarray(b_j, dtype=complex)
    opscale = max(np.linalg.norm(Mk, 2) for Mk in M.coeffs)
    for name, b in (("b_i", b_i), ("b_j", b_j)):
        nb = float(np.linalg.norm(b)) ** 2
        for k, r in enumerate(np.abs(M.pairing(b, b).coeffs)):
            if r > policy.match_tol * opscale * nb:
                raise NotOnBaseLocus(f"{name} fails quadric {k} (residual {r:.3g})")
    if len(null_space(np.column_stack([b_i, b_j]), policy.rank_tol)[0]):
        raise PreconditionError("the two base points must be distinct")
    ell = M.pairing(b_i, b_j)
    _check_double_tangency(M.det_poly(), ell, policy)
    return ell


def _check_double_tangency(quartic: HomPoly, ell: LinearForm, policy: TolerancePolicy) -> None:
    span = null_space(ell.coeffs.reshape(1, 3), policy.rank_tol)[0][-2:]
    mix = draws(0)(2, 2)
    base = mix[0, 0] * span[0] + mix[0, 1] * span[1]
    direction = mix[1, 0] * span[0] + mix[1, 1] * span[1]
    roots = univariate_roots(quartic.restrict_line(base, direction), policy)
    if len(roots) != 4:
        raise TangencyCheckFailed(
            f"restriction to the line has {len(roots)} finite roots, expected 4")
    r = list(roots)
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    gap = min(max(abs(r[a] - r[b]), abs(r[c] - r[d])) for (a, b), (c, d) in pairings)
    tol = np.sqrt(policy.match_tol) * (1.0 + max(abs(z) for z in r))
    if gap > tol:
        raise TangencyCheckFailed(f"roots do not form two double points (gap {gap:.3g})")
