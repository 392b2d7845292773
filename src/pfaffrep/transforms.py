"""Elementary transformations of pfaffian representations.

Every transformation replaces only the constant part ``gamma`` of the
pencil, by one update (:func:`_gamma_update`): ``gamma + X - X^t`` with
``X = (s1 W) Gamma^-1 (W^t s2)``, where the columns of ``W`` are kernel
vectors at the base points and ``Gamma^-1`` is a symmetric coupling
matrix.  Type I has ``W = [v, u]`` and ``Gamma^-1 = [[0, 1/K], [1/K, 0]]``,
type II has ``W = [v]`` and ``Gamma^-1 = [[2 rho]]``, and CONINT inverts a
coupling matrix of chosen constants (diagonal) and pairwise K values.
The bundle maps that intertwine a step with its pencil are likewise one
rank-one factor pair per base point (:func:`bundle_maps_check`).

Each returns the new pencil together with a :class:`TransformRecord`
that captures enough data to replay, verify and invert the step.  The
pfaffian of the pencil is preserved exactly; tests pin this coefficient-
wise.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from .errors import (NotAdmissible, PreconditionError, SampleOnExceptionalLine,
                     SingularGamma)
from .incidence import _admissibility_scale, _require_kernel, k_constant
from .pencil import SkewPencil, kernel_at
from .poly import ProjPoint, relative_deviation
from .tolerances import DEFAULT_POLICY, Record, TolerancePolicy, draws, null_space


class TransformRecord(Record):
    kind: str  # "I", "II" or "CONINT"
    lam: ProjPoint | None
    mu: ProjPoint | None
    v: np.ndarray | None
    u: np.ndarray | None
    rho: complex | None
    k_value: complex | None
    conint_data: dict | None
    gamma_before: np.ndarray
    gamma_after: np.ndarray


def _gamma_update(P: SkewPencil, W: np.ndarray, Ginv: np.ndarray) -> np.ndarray:
    """The constant-part change ``X - X^t``, ``X = (s1 W) Ginv (W^t s2)``, of
    every elementary step: ``W`` holds one kernel vector per base point as
    columns and ``Ginv`` is the symmetric inverse coupling matrix; a stack of
    ``W`` gives the stack of changes.  The grouping keeps the cost at O(n^2 m)
    for m base points."""
    X = (P.sigma1 @ W) @ Ginv @ (W.mT @ P.sigma2)
    return X - X.mT


def _step(P: SkewPencil, W: np.ndarray, Ginv: np.ndarray, policy: TolerancePolicy,
          **fields) -> tuple[SkewPencil, TransformRecord]:
    """The updated pencil and the record of the step with the given fields."""
    gamma = P.gamma + _gamma_update(P, W, Ginv)
    gamma_after = (gamma - gamma.T) / 2.0
    rec = TransformRecord(**fields, gamma_before=P.gamma, gamma_after=gamma_after)
    return P.with_gamma(gamma_after, policy), rec


def type1(P: SkewPencil, lam: ProjPoint, mu: ProjPoint, v: np.ndarray, u: np.ndarray,
          policy: TolerancePolicy = DEFAULT_POLICY) -> tuple[SkewPencil, TransformRecord]:
    """Two-point elementary transformation from an admissible vector pair.

    The update has ``W = [v, u]`` and ``Gamma^-1 = [[0, 1/K], [1/K, 0]]``,
    that is ``gamma - (1/K) (s1 u ^ s2 v) + (1/K) (s2 u ^ s1 v)`` with
    ``a ^ b = a b^t - b a^t`` and the seed-free K of :func:`k_constant`.
    Afterwards the kernel roles swap: ``u`` lies in the new kernel at ``lam``
    and ``v`` in the new kernel at ``mu``; the step with those roles undoes it.
    """
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    K = k_constant(P, lam, v, mu, u, policy=policy)
    ref = _admissibility_scale(P, lam, mu, policy) * np.linalg.norm(v) * np.linalg.norm(u)
    if abs(K) <= policy.rank_tol * ref:
        raise NotAdmissible(f"coupling constant {K:.3g} is numerically zero")
    Ginv = np.array([[0.0, 1.0 / K], [1.0 / K, 0.0]])
    return _step(P, np.column_stack([v, u]), Ginv, policy, kind="I", lam=lam, mu=mu,
                 v=v, u=u, rho=None, k_value=K, conint_data=None)


def type2(P: SkewPencil, lam: ProjPoint, v: np.ndarray, rho: complex,
          policy: TolerancePolicy = DEFAULT_POLICY) -> tuple[SkewPencil, TransformRecord]:
    """One-point elementary transformation: ``W = [v]``, ``Gamma^-1 = [[2 rho]]``,
    that is ``gamma + 2 rho (s2 v ^ s1 v)``.

    ``v`` stays in the new kernel at ``lam``; the same step with ``-rho``
    undoes it.
    """
    v = np.asarray(v, dtype=complex)
    rho = complex(rho)
    if rho == 0:
        raise PreconditionError("rho must be nonzero")
    _require_kernel(P, lam, v, policy)
    return _step(P, v[:, None], np.array([[2.0 * rho]]), policy, kind="II", lam=lam,
                 mu=None, v=v, u=None, rho=rho, k_value=None, conint_data=None)


def conint_rho_for_type2(rho_type2: complex) -> complex:
    """The single-point constant that makes the multi-point update equal
    a one-point step with constant ``rho_type2``."""
    return -1.0 / (2.0 * complex(rho_type2))


def conint(P: SkewPencil, points: Sequence[ProjPoint],
           vectors: Sequence[np.ndarray], rhos: Sequence[complex],
           policy: TolerancePolicy = DEFAULT_POLICY) -> tuple[SkewPencil, TransformRecord]:
    """Multi-point elementary transformation.

    Builds the symmetric m-by-m coupling matrix
    ``Gamma = -diag(rho) + K_off`` whose off-diagonal entries are the
    pairwise (seed-free) K values of the chosen kernel vectors; the update
    is ``gamma + s1 w Gamma^-1 w^t s2 - s2 w Gamma^-1 w^t s1`` for the
    matrix ``w`` of stacked kernel vectors.  The only existence
    condition is that ``Gamma`` is invertible.  With ``m = 1`` this is a
    one-point step with constant ``-1/(2 rho)``.

    The relative sign between the diagonal and the K entries is pinned
    by three machine checks: the pfaffian is preserved coefficient-wise,
    the rational congruence matrix ``Z = Id + w Gamma^-1 D(y)^-1 w^t
    (t1 s1 + t2 s2)`` has determinant one, and ``Z^t A_new Z = A_old``
    identically.  The opposite sign breaks all three.
    """
    m = len(points)
    if not (m == len(vectors) == len(rhos)):
        raise ValueError("points, vectors and rhos must have equal length")
    if m == 0:
        raise ValueError("at least one point is required")
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    for pt, v in zip(points, vecs):
        _require_kernel(P, pt, v, policy)
    Gamma = np.zeros((m, m), dtype=complex)
    for i in range(m):
        Gamma[i, i] = -complex(rhos[i])
        for j in range(i + 1, m):
            Gamma[i, j] = Gamma[j, i] = k_constant(P, points[i], vecs[i], points[j], vecs[j],
                                                   policy=policy, check_kernels=False)
    if len(null_space(Gamma, policy.rank_tol)[0]):
        raise SingularGamma("the coupling matrix is numerically singular")
    return _step(P, np.column_stack(vecs), np.linalg.inv(Gamma), policy, kind="CONINT",
                 lam=None, mu=None, v=None, u=None, rho=None, k_value=None,
                 conint_data={"points": list(points), "vectors": vecs,
                              "rhos": [complex(r) for r in rhos], "Gamma": Gamma})


def inverse_step(P_after: SkewPencil, record: TransformRecord,
                 policy: TolerancePolicy = DEFAULT_POLICY
                 ) -> tuple[SkewPencil, TransformRecord]:
    """Undo a recorded step by the inverse transformation of the same type."""
    if record.kind == "I":
        return type1(P_after, record.lam, record.mu, record.u, record.v, policy=policy)
    if record.kind == "II":
        return type2(P_after, record.lam, record.v, -record.rho, policy=policy)
    raise PreconditionError(f"no generic inverse for kind {record.kind!r}")


def apply_record(P: SkewPencil, record: TransformRecord,
                 policy: TolerancePolicy = DEFAULT_POLICY) -> SkewPencil:
    """Replay a recorded step onto ``P``.

    The record must start at ``P``: its starting gamma must match, and each
    (point, kernel vector) pair it holds must lie in a kernel of ``P``, which
    ties the record to the sigma parts as well.
    """
    if np.max(np.abs(P.gamma - record.gamma_before)) > policy.match_tol * P.scale():
        raise PreconditionError("record does not start at this pencil")
    pairs = [(record.lam, record.v), (record.mu, record.u)]
    if record.conint_data is not None:
        pairs += zip(record.conint_data["points"], record.conint_data["vectors"])
    for pt, vec in pairs:
        if pt is not None and vec is not None:
            _require_kernel(P, pt, vec, policy)
    return P.with_gamma(record.gamma_after, policy)


def verify_replay(P: SkewPencil, records: Sequence[TransformRecord],
                  policy: TolerancePolicy = DEFAULT_POLICY) -> list[float]:
    """Replay a sequence of records and return per-step pfaffian deviations.

    Each deviation is the coefficient-wise difference of the pfaffian
    before and after the step, relative to the dominant coefficient.
    """
    residuals = []
    pf0 = P.pfaffian()
    cur = P
    for rec in records:
        cur = apply_record(cur, rec, policy)
        residuals.append(relative_deviation(pf0, cur.pfaffian()))
    return residuals


# -- bundle-map instruments -----------------------------------------------------

class BundleCheckReport(Record):
    """Residuals of the rational bundle-map identities for one record;
    the two measured on curve samples are ``None`` without them."""

    identity_residual: float
    zero_patterns: dict
    transport_angle: float | None
    parameter_independence: float | None


def _factor_pair(P: SkewPencil, x: np.ndarray, base: tuple, t1: complex, t2: complex,
                 policy: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """The (right, left) factors at ``x`` of one base point, given as
    ``base = (affine p, label, a, b, c)``; see :func:`bundle_maps_check`."""
    (p1, p2), label, a, b, c = base
    den = t1 * (x[1] - p1 * x[0]) + t2 * (x[2] - p2 * x[0])
    scale = max(abs(t1), abs(t2)) * max(1.0, float(np.max(np.abs(x))))
    if abs(den) <= policy.rank_tol * scale:
        raise SampleOnExceptionalLine(f"sample lies on the exceptional line of {label}")
    ts = t1 * P.sigma1 + t2 * P.sigma2
    f = c * x[0] / den
    ident = np.eye(len(a), dtype=complex)
    return ident + f * np.outer(a, b @ ts), ident + f * np.outer(ts @ a, b)


def _subspace_sin(span_a: np.ndarray, span_b: np.ndarray) -> float:
    """Sine of the largest principal angle between two column spans."""
    qa, _ = np.linalg.qr(span_a)
    qb, _ = np.linalg.qr(span_b)
    resid = qa - qb @ (qb.conj().T @ qa)
    return float(np.linalg.norm(resid, 2))


def bundle_maps_check(P: SkewPencil, record: TransformRecord,
                      samples: Sequence[ProjPoint],
                      curve_samples: Sequence[ProjPoint] = (),
                      policy: TolerancePolicy = DEFAULT_POLICY) -> BundleCheckReport:
    """Verify the rational matrices that intertwine a step with its pencil.

    Each base point ``p`` of the step, with step vectors ``a, b`` and
    constant ``c``, gives one factor pair
    ``right = Id + c x0/den_p(x) a (b^t ts)`` and
    ``left = Id + c x0/den_p(x) (ts a) b^t``, where ``ts = t1 s1 + t2 s2``
    and ``den_p(x) = t1 (x1 - p1 x0) + t2 (x2 - p2 x0)``.  A two-point step
    has the pairs (S, T) at ``lam`` with ``(u, v, 1/K)`` and (P, R) at
    ``mu`` with ``(v, u, 1/K)``; a one-point step has the one pair
    (Q, Q^t^-1) at ``lam`` with ``(v, v, 2 rho)``.

    On ``samples`` the product of the left factors times ``A(x)`` equals
    ``A~(x)`` times the product of the right factors: ``R T A = A~ S P``
    and ``Q^t^-1 A = A~ Q``.  Each pair of a two-point step, evaluated at
    the other base point, annihilates its step vectors in the four named
    zero patterns.  On curve samples the right product carries the kernel
    of the old pencil into the kernel of the new one, and neither the
    right factors on old kernel vectors nor the left factors on new ones
    depend on the direction parameters.  Both direction pairs are the
    first four entries of the fixed stream ``draws(0)``.

    Raises :class:`PreconditionError` without samples, whose identity
    residual would check nothing, and :class:`SampleOnExceptionalLine` when
    a sample annihilates one of the rational denominators; the caller
    should resample.
    """
    if not samples:
        raise PreconditionError("need at least one sample point")
    if record.kind == "I":
        c = 1 / record.k_value
        bases = [(record.lam, "lambda", record.u, record.v, c),
                 (record.mu, "mu", record.v, record.u, c)]
        # what each pair annihilates at the other base point: (right a, b^t left)
        zero_names = [("S(mu) u", "v^t T(mu)"), ("P(lam) v", "u^t R(lam)")]
    elif record.kind == "II":
        bases = [(record.lam, "lambda", record.v, record.v, 2 * record.rho)]
        zero_names = []
    else:
        raise PreconditionError(
            f"bundle maps are defined for kinds I and II, not {record.kind!r}")
    after = apply_record(P, record, policy)
    t1, t2, t1b, t2b = draws(0)(4)
    pairs = [(pt.affine(policy), *rest) for pt, *rest in bases]

    def factors(x, tt1, tt2):
        return [_factor_pair(P, x, base, tt1, tt2, policy) for base in pairs]

    id_res = 0.0
    for pt in samples:
        lhs, rhs = P(pt), after(pt)
        for right, left in factors(pt.coords, t1, t2):
            lhs, rhs = left @ lhs, rhs @ right
        norm = max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2), 1e-300)
        id_res = max(id_res, float(np.linalg.norm(lhs - rhs, 2) / norm))

    zeros = {}
    for base, (other, *_), names in zip(pairs, reversed(bases), zero_names):
        right, left = _factor_pair(P, other.coords, base, t1, t2, policy)
        a, b = base[2], base[3]
        zeros[names[0]] = float(np.linalg.norm(right @ a)) / (np.linalg.norm(right, 2)
                                                              * np.linalg.norm(a))
        zeros[names[1]] = float(np.linalg.norm(b @ left)) / (np.linalg.norm(left, 2)
                                                             * np.linalg.norm(b))

    angles, changes = [], []
    for pt in curve_samples:
        fs, fs_b = factors(pt.coords, t1, t2), factors(pt.coords, t1b, t2b)
        eps = kernel_at(P, pt, policy).vectors
        eps_after = kernel_at(after, pt, policy).vectors
        right = reduce(np.matmul, [r for r, _ in fs])
        angles.append(_subspace_sin(right @ eps, eps_after))
        for (r, l), (r_b, l_b) in zip(fs, fs_b):
            for col in range(2):
                changes += [_rel_diff(r @ eps[:, col], r_b @ eps[:, col]),
                            _rel_diff(eps_after[:, col] @ l, eps_after[:, col] @ l_b)]
    return BundleCheckReport(identity_residual=id_res, zero_patterns=zeros,
                             transport_angle=max(angles, default=None),
                             parameter_independence=max(changes, default=None))


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-300))
