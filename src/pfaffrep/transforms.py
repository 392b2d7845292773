"""Elementary transformations of pfaffian representations.

All three transformation types replace only the constant part ``gamma``
of the pencil by a skew update built from kernel vectors:

* two-point update from an admissible vector pair (rank at most 4),
* one-point update from one kernel vector and a constant (rank at most 2),
* multi-point update through the inverse of a coupling matrix whose
  diagonal holds the chosen constants and whose off-diagonal entries are
  the pairwise K values.

Each returns the new pencil together with a :class:`TransformRecord`
that captures enough data to replay, verify and invert the step.  The
pfaffian of the pencil is preserved exactly; tests pin this coefficient-
wise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (NotAdmissible, PreconditionError,
                     SampleOnExceptionalLine, SingularGamma, VectorNotInKernel)
from .incidence import _admissibility_scale, _draw_direction, _require_kernel
from .pencil import SkewPencil, kernel_at, wedge_to_matrix
from .poly import ProjPoint, relative_deviation
from .tolerances import DEFAULT_POLICY, Record, TolerancePolicy, factory, null_space


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


def _skewify(m: np.ndarray) -> np.ndarray:
    return (m - m.T) / 2.0


def type1(P: SkewPencil, lam: ProjPoint, mu: ProjPoint,
          v: np.ndarray, u: np.ndarray, seed: int = 0,
          policy: TolerancePolicy = DEFAULT_POLICY) -> tuple[SkewPencil, TransformRecord]:
    """Two-point elementary transformation from an admissible vector pair.

    The update is
    ``gamma - (1/K) (s1 u ^ s2 v) + (1/K) (s2 u ^ s1 v)`` with
    ``a ^ b = a b^t - b a^t``.  Afterwards the kernel roles swap:
    ``u`` lies in the new kernel at ``lam`` and ``v`` in the new kernel
    at ``mu``, and repeating the step with those roles undoes it.
    """
    v = np.asarray(v, dtype=complex)
    u = np.asarray(u, dtype=complex)
    _require_kernel(P, lam, v, policy)
    _require_kernel(P, mu, u, policy)
    _, _, K = _draw_direction(P, lam, mu, v, u, seed, policy)
    ref = _admissibility_scale(P, lam, mu, policy) * np.linalg.norm(v) * np.linalg.norm(u)
    if abs(K) <= policy.rank_tol * ref:
        raise NotAdmissible(f"coupling constant {K:.3g} is numerically zero")
    s1, s2 = P.sigma1, P.sigma2
    update = (-wedge_to_matrix(s1 @ u, s2 @ v) + wedge_to_matrix(s2 @ u, s1 @ v)) / K
    gamma_after = _skewify(P.gamma + update)
    out = P.with_gamma(gamma_after, policy)
    rec = TransformRecord(kind="I", lam=lam, mu=mu, v=v, u=u, rho=None,
                          k_value=K, conint_data=None,
                          gamma_before=P.gamma, gamma_after=gamma_after)
    return out, rec


def type2(P: SkewPencil, lam: ProjPoint, v: np.ndarray, rho: complex,
          policy: TolerancePolicy = DEFAULT_POLICY) -> tuple[SkewPencil, TransformRecord]:
    """One-point elementary transformation: ``gamma + 2 rho (s2 v ^ s1 v)``.

    ``v`` stays in the new kernel at ``lam``; the same step with ``-rho``
    undoes it.
    """
    v = np.asarray(v, dtype=complex)
    rho = complex(rho)
    if rho == 0:
        raise PreconditionError("rho must be nonzero")
    _require_kernel(P, lam, v, policy)
    update = 2.0 * rho * wedge_to_matrix(P.sigma2 @ v, P.sigma1 @ v)
    gamma_after = _skewify(P.gamma + update)
    out = P.with_gamma(gamma_after, policy)
    rec = TransformRecord(kind="II", lam=lam, mu=None, v=v, u=None, rho=rho,
                          k_value=None, conint_data=None,
                          gamma_before=P.gamma, gamma_after=gamma_after)
    return out, rec


def conint_rho_for_type2(rho_type2: complex) -> complex:
    """The single-point constant that makes the multi-point update equal
    a one-point step with constant ``rho_type2``."""
    return -1.0 / (2.0 * complex(rho_type2))


def conint(P: SkewPencil, points: Sequence[ProjPoint],
           vectors: Sequence[np.ndarray], rhos: Sequence[complex],
           seed: int = 0,
           policy: TolerancePolicy = DEFAULT_POLICY) -> tuple[SkewPencil, TransformRecord]:
    """Multi-point elementary transformation.

    Builds the symmetric m-by-m coupling matrix
    ``Gamma = -diag(rho) + K_off`` whose off-diagonal entries are the
    pairwise K values of the chosen kernel vectors; the update is
    ``gamma + s1 w Gamma^-1 w^t s2 - s2 w Gamma^-1 w^t s1`` for the
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
            _, _, K = _draw_direction(P, points[i], points[j], vecs[i], vecs[j],
                                      seed + 101 * i + j, policy)
            Gamma[i, j] = Gamma[j, i] = K
    if len(null_space(Gamma, policy.rank_tol)[0]):
        raise SingularGamma("the coupling matrix is numerically singular")
    w = np.column_stack(vecs)
    Ginv = np.linalg.inv(Gamma)
    s1, s2 = P.sigma1, P.sigma2
    update = s1 @ w @ Ginv @ w.T @ s2 - s2 @ w @ Ginv @ w.T @ s1
    gamma_after = _skewify(P.gamma + update)
    out = P.with_gamma(gamma_after, policy)
    rec = TransformRecord(kind="CONINT", lam=None, mu=None, v=None, u=None,
                          rho=None, k_value=None,
                          conint_data={"points": list(points), "vectors": vecs,
                                       "rhos": [complex(r) for r in rhos],
                                       "Gamma": Gamma},
                          gamma_before=P.gamma, gamma_after=gamma_after)
    return out, rec


def inverse_step(P_after: SkewPencil, record: TransformRecord, seed: int = 0,
                 policy: TolerancePolicy = DEFAULT_POLICY
                 ) -> tuple[SkewPencil, TransformRecord]:
    """Undo a recorded step by the inverse transformation of the same type."""
    if record.kind == "I":
        return type1(P_after, record.lam, record.mu, record.u, record.v,
                     seed=seed, policy=policy)
    if record.kind == "II":
        return type2(P_after, record.lam, record.v, -record.rho, policy=policy)
    raise PreconditionError(f"no generic inverse for kind {record.kind!r}")


def apply_record(P: SkewPencil, record: TransformRecord,
                 policy: TolerancePolicy = DEFAULT_POLICY) -> SkewPencil:
    """Replay a recorded step onto ``P``, checking the recorded starting gamma."""
    scale = max(P.scale(), 1.0)
    if np.max(np.abs(P.gamma - record.gamma_before)) > policy.match_tol * scale:
        raise PreconditionError("record does not start at this pencil")
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
    """Residuals of the rational bundle-map identities for one record."""

    identity_residual: float
    zero_patterns: dict = factory(dict)
    transport_angle: float = 0.0
    parameter_independence: float = 0.0

    def ok(self, tol: float) -> bool:
        worst = max([self.identity_residual, self.transport_angle,
                     self.parameter_independence, *self.zero_patterns.values()])
        return worst <= tol


def _den(x: np.ndarray, pt_aff: tuple[complex, complex], t1: complex, t2: complex) -> complex:
    return t1 * (x[1] - pt_aff[0] * x[0]) + t2 * (x[2] - pt_aff[1] * x[0])


def _check_not_exceptional(x, aff, t1, t2, policy, label):
    den = _den(x, aff, t1, t2)
    scale = max(abs(t1), abs(t2)) * max(1.0, float(np.max(np.abs(x))))
    if abs(den) <= policy.rank_tol * scale:
        raise SampleOnExceptionalLine(f"sample lies on the exceptional line of {label}")
    return den


def _subspace_sin(span_a: np.ndarray, span_b: np.ndarray) -> float:
    """Sine of the largest principal angle between two column spans."""
    qa, _ = np.linalg.qr(span_a)
    qb, _ = np.linalg.qr(span_b)
    resid = qa - qb @ (qb.conj().T @ qa)
    return float(np.linalg.norm(resid, 2))


def bundle_maps_check(P: SkewPencil, record: TransformRecord,
                      samples: Sequence[ProjPoint],
                      curve_samples: Sequence[ProjPoint] = (),
                      seed: int = 0,
                      policy: TolerancePolicy = DEFAULT_POLICY) -> BundleCheckReport:
    """Verify the rational matrices that intertwine a step with its pencil.

    For a two-point step, matrices T, S, P, R built from the step data
    satisfy ``R(x) T(x) A(x) = A~(x) S(x) P(x)`` and vanish against the
    step vectors at the two base points in the four stated patterns; for
    a one-point step the single matrix Q satisfies
    ``Q^t(x)^{-1} A(x) = A-(x) Q(x)``.  On curve samples the maps carry
    the kernel of the old pencil into the kernel of the new one, and
    their action on kernel vectors does not depend on the direction
    parameters.

    Raises :class:`SampleOnExceptionalLine` when a sample annihilates
    one of the rational denominators; the caller should resample.
    """
    after = P.with_gamma(record.gamma_after, policy)
    rng = np.random.default_rng(seed)
    t1, t2 = (complex(z) for z in rng.standard_normal(2) + 1j * rng.standard_normal(2))
    t1b, t2b = (complex(z) for z in rng.standard_normal(2) + 1j * rng.standard_normal(2))
    s1, s2 = P.sigma1, P.sigma2
    n = P.dim
    ident = np.eye(n, dtype=complex)

    if record.kind == "I":
        lam_aff = record.lam.affine(policy)
        mu_aff = record.mu.affine(policy)
        v, u = record.v, record.u
        K = record.k_value

        def ts_mats(x, tt1, tt2):
            """T and S; their denominator vanishes on the lambda line only."""
            den_l = _check_not_exceptional(x, lam_aff, tt1, tt2, policy, "lambda")
            ts = tt1 * s1 + tt2 * s2
            T = ident + (x[0] / (K * den_l)) * np.outer(ts @ u, v)
            S = ident + (x[0] / (K * den_l)) * np.outer(u, v @ ts)
            return T, S

        def pr_mats(x, tt1, tt2):
            """P and R; their denominator vanishes on the mu line only."""
            den_m = _check_not_exceptional(x, mu_aff, tt1, tt2, policy, "mu")
            ts = tt1 * s1 + tt2 * s2
            Pm = ident + (x[0] / (K * den_m)) * np.outer(v, u @ ts)
            R = ident + (x[0] / (K * den_m)) * np.outer(ts @ v, u)
            return Pm, R

        def mats(x, tt1, tt2):
            return (*ts_mats(x, tt1, tt2), *pr_mats(x, tt1, tt2))

        id_res = 0.0
        for pt in samples:
            x = pt.coords
            T, S, Pm, R = mats(x, t1, t2)
            A = P(pt)
            At = after(pt)
            lhs = R @ T @ A
            rhs = At @ S @ Pm
            norm = max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2), 1e-300)
            id_res = max(id_res, float(np.linalg.norm(lhs - rhs, 2) / norm))

        T_mu, S_mu = ts_mats(record.mu.coords, t1, t2)
        Pm_lam, R_lam = pr_mats(record.lam.coords, t1, t2)
        nv = np.linalg.norm(v)
        nu = np.linalg.norm(u)
        zeros = {
            "P(lam) v": float(np.linalg.norm(Pm_lam @ v)) / (np.linalg.norm(Pm_lam, 2) * nv),
            "v^t T(mu)": float(np.linalg.norm(v @ T_mu)) / (np.linalg.norm(T_mu, 2) * nv),
            "u^t R(lam)": float(np.linalg.norm(u @ R_lam)) / (np.linalg.norm(R_lam, 2) * nu),
            "S(mu) u": float(np.linalg.norm(S_mu @ u)) / (np.linalg.norm(S_mu, 2) * nu),
        }

        angle = 0.0
        indep = 0.0
        for pt in curve_samples:
            x = pt.coords
            T, S, Pm, R = mats(x, t1, t2)
            Tb, Sb, Pmb, Rb = mats(x, t1b, t2b)
            kb = kernel_at(P, pt, policy)
            kb_after = kernel_at(after, pt, policy)
            mapped = S @ Pm @ kb.vectors
            angle = max(angle, _subspace_sin(mapped, kb_after.vectors))
            for col in range(2):
                eps = kb.vectors[:, col]
                for M, Mb in ((Pm, Pmb), (S, Sb)):
                    indep = max(indep, _rel_diff(M @ eps, Mb @ eps))
                epst = kb_after.vectors[:, col]
                for M, Mb in ((T, Tb), (R, Rb)):
                    indep = max(indep, _rel_diff(epst @ M, epst @ Mb))
        return BundleCheckReport(identity_residual=id_res, zero_patterns=zeros,
                                 transport_angle=angle,
                                 parameter_independence=indep)

    if record.kind == "II":
        lam_aff = record.lam.affine(policy)
        v, rho = record.v, record.rho

        def qmats(x, tt1, tt2):
            den_l = _check_not_exceptional(x, lam_aff, tt1, tt2, policy, "lambda")
            ts = tt1 * s1 + tt2 * s2
            Q = ident + (2 * rho * x[0] / den_l) * np.outer(v, v @ ts)
            Qti = ident + (2 * rho * x[0] / den_l) * np.outer(ts @ v, v)
            return Q, Qti

        id_res = 0.0
        for pt in samples:
            x = pt.coords
            Q, Qti = qmats(x, t1, t2)
            lhs = Qti @ P(pt)
            rhs = after(pt) @ Q
            norm = max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2), 1e-300)
            id_res = max(id_res, float(np.linalg.norm(lhs - rhs, 2) / norm))

        angle = 0.0
        indep = 0.0
        for pt in curve_samples:
            x = pt.coords
            Q, _ = qmats(x, t1, t2)
            Qb, _ = qmats(x, t1b, t2b)
            kb = kernel_at(P, pt, policy)
            kb_after = kernel_at(after, pt, policy)
            angle = max(angle, _subspace_sin(Q @ kb.vectors, kb_after.vectors))
            for col in range(2):
                eps = kb.vectors[:, col]
                indep = max(indep, _rel_diff(Q @ eps, Qb @ eps))
        return BundleCheckReport(identity_residual=id_res, zero_patterns={},
                                 transport_angle=angle,
                                 parameter_independence=indep)

    raise PreconditionError(f"bundle maps are defined for kinds I and II, not {record.kind!r}")


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-300))
