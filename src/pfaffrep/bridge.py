"""Driving a second-canonical-form pencil toward the decomposable shape.

A pencil in the second canonical form is decomposable exactly when the
two diagonal d-by-d blocks of its constant part vanish.  One-point
elementary transformations change those blocks by rank-2 wedges
``2 rho (s2 v ^ s1 v)`` whose block entries are
``v_n v_l (p_l - p_n)`` (bottom) and ``v_{d+n} v_{d+l} (p_l - p_n)``
(top), so linear combinations of such wedges span everything supported
on the two blocks.  No constructive selection rule with a convergence
guarantee exists; this module runs a greedy descent and reports
non-convergence as a first-class outcome.

Two candidate sources feed each greedy step:

* sampled moves: six kernel vectors at each point where ``ceil(32/d)``
  seeded lines through a seeded centre meet the curve, read off the current
  pencil by :func:`incidence.line_points` (a refused line is skipped);
* a structured move that rank-1 factors the current off-pattern blocks,
  reconstructs the kernel vector responsible (up to the sign ambiguity
  of a square root) and its base point from the null space of the
  columns ``C_k v``, and cancels it in one exact step.

A step scores all its candidates in one pass of :func:`transforms._gamma_update`
over the stack of their vectors, each at its least-squares constant.  Every
accepted move is an ordinary one-point transformation with its record, so the
pfaffian is preserved along the whole path.
"""

from __future__ import annotations

import numpy as np

from .canonical import (negligible, negligible_norm, off_pattern_blocks, off_pattern_norm,
                        validate_second_canonical)
from .errors import PreconditionError, RepeatedRoots, SpanFailure, VectorNotInKernel
from .incidence import _require_kernel, line_points
from .pencil import SkewPencil
from .poly import ProjPoint, close_pair
from .tolerances import (BRIDGE_FIT_TOL, BRIDGE_STEP_TOL, DEFAULT_POLICY, Record,
                         TolerancePolicy, draws, null_space)
from .transforms import TransformRecord, _gamma_update, type2

_CANDIDATE_POINTS = 32
_RHO_ONE = np.array([[2.0]])  # the inverse coupling of a one-point step with rho = 1
_MIXES = np.array([[1, 0, 1, 1, 1, 1], [0, 1, 1, -1, 1j, -1j]])  # b1, b2, b1 +/- b2, b1 +/- i b2


class BridgeResult(Record):
    records: list[TransformRecord]
    pencil: SkewPencil
    off_pattern_norm: float
    converged: bool
    history: list[float]


def _pattern(gamma: np.ndarray) -> np.ndarray:
    """The two off-pattern blocks side by side, of a constant part or each of a stack."""
    return np.concatenate(off_pattern_blocks(gamma, gamma.shape[-1] // 2), axis=-1)


def _best_step(P: SkewPencil, V: np.ndarray,
               policy: TolerancePolicy) -> tuple[int, complex, float] | None:
    """The row ``k`` of ``V`` whose one-point step, at the least-squares constant
    ``rho``, leaves the least off-pattern norm, as ``(k, rho, norm)``; the first
    row wins a tie.  A row whose step moves the pattern by at most ``zero_tol``
    of its norm is skipped; None when every row is."""
    G = _pattern(P.gamma)
    U = _pattern(_gamma_update(P, V[:, :, None], _RHO_ONE))
    nu = np.linalg.norm(U, axis=(1, 2))
    rho = -(U.conj() * G).sum(axis=(1, 2)) / np.where(nu > 0, nu ** 2, 1.0)
    new_off = np.linalg.norm(G + rho[:, None, None] * U, axis=(1, 2))
    moves = np.abs(rho) * nu > policy.zero_tol * np.linalg.norm(G)
    if not moves.any():
        return None
    k = int(np.argmin(np.where(moves, new_off, np.inf)))
    return k, complex(rho[k]), float(new_off[k])


def _rank1_from_block(block: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, complex] | None:
    """Factor ``block[n,l] = c * b_n b_l (p_l - p_n)`` into (unit b, c).

    Needs dimension at least 3 to complete the diagonal of the symmetric
    rank-1 matrix ``c b b^t``; returns None when the data does not fit.
    The entries of ``ps`` are pairwise apart, as checked on entry.
    """
    d = len(ps)
    if d < 3:
        return None
    scale = float(np.max(np.abs(block)))
    if scale == 0:
        return None
    H = np.zeros((d, d), dtype=complex)
    for n in range(d):
        for l in range(d):
            if n != l:
                H[n, l] = block[n, l] / (ps[l] - ps[n])
    hscale = float(np.max(np.abs(H)))
    for n in range(d):
        others = [l for l in range(d) if l != n]
        best = None
        for i, l in enumerate(others):
            for m in others[i + 1:]:
                if abs(H[l, m]) > BRIDGE_STEP_TOL * hscale:
                    cand = H[n, l] * H[n, m] / H[l, m]
                    if best is None or abs(cand) > abs(best):
                        best = cand
        H[n, n] = best if best is not None else 0.0
    col = int(np.argmax(np.linalg.norm(H, axis=0)))
    b = H[:, col]
    nb = np.linalg.norm(b)
    if nb <= BRIDGE_FIT_TOL * hscale:
        return None
    b = b / nb
    B = np.outer(b, b)
    c = np.vdot(B, H) / np.vdot(B, B)
    if np.linalg.norm(H - c * B) > 0.5 * np.linalg.norm(H):
        return None
    return b, complex(c)


def _point_for_vector(P: SkewPencil, v: np.ndarray,
                      policy: TolerancePolicy) -> ProjPoint | None:
    """The point (if any) at which ``v`` lies in the kernel of the pencil."""
    kernel, s = null_space((P.coeffs @ v).T, BRIDGE_FIT_TOL)
    if s[0] == 0 or not len(kernel):
        return None
    pt = ProjPoint(*kernel[-1], policy=policy)
    if not pt.in_chart(policy):
        return None
    try:
        _require_kernel(P, pt, v, policy)
    except VectorNotInKernel:
        return None
    return pt


def _structured_candidates(P: SkewPencil, ps: np.ndarray,
                           policy: TolerancePolicy) -> list[tuple[ProjPoint, np.ndarray]]:
    d = P.half_deg
    top, bot = off_pattern_blocks(P.gamma, d)
    fit_top = _rank1_from_block(top, ps)
    fit_bot = _rank1_from_block(bot, ps)
    trials: list[np.ndarray] = []
    if fit_top and fit_bot:
        b, cb = fit_top
        a, ca = fit_bot
        if abs(ca) > 0:
            r = np.sqrt(cb / ca)
            trials.append(np.concatenate([a, r * b]))
            trials.append(np.concatenate([a, -r * b]))
    elif fit_bot and negligible(top, P, policy):
        a, _ = fit_bot
        trials.append(np.concatenate([a, np.zeros(d, dtype=complex)]))
    elif fit_top and negligible(bot, P, policy):
        b, _ = fit_top
        trials.append(np.concatenate([np.zeros(d, dtype=complex), b]))
    points = [_point_for_vector(P, v, policy) for v in trials]
    return [(pt, v) for pt, v in zip(points, trials) if pt is not None]


def bridge_to_decomposable(P: SkewPencil, budget: int = 50, seed: int = 0,
                           policy: TolerancePolicy = DEFAULT_POLICY) -> BridgeResult:
    """Greedy sequence of one-point steps toward the decomposable pattern.

    Accepts a candidate step only when it shrinks the off-pattern norm
    by the relative factor ``BRIDGE_STEP_TOL``, so the recorded norm
    history is strictly decreasing.  Stops successfully once the norm falls
    to :func:`canonical.negligible_norm`; returns ``converged=False`` with
    the final norm when the budget runs out or no candidate improves.
    """
    d = P.half_deg
    ps = validate_second_canonical(P, policy)
    if close_pair(ps, policy) is not None:
        raise PreconditionError("diagonal entries must be pairwise distinct")
    target = negligible_norm(P, policy)
    cur = P
    records: list[TransformRecord] = []
    off = off_pattern_norm(cur.gamma, d)
    history = [off]
    while off > target and len(records) < budget:
        candidates = _structured_candidates(cur, ps, policy)
        center, *lines = draws(seed + 977 * len(records))(1 - (-_CANDIDATE_POINTS // d), 3)
        for direction in lines:
            try:
                found = line_points(cur, center, direction, policy)
            except (RepeatedRoots, SpanFailure):
                continue  # a refused line is skipped, not redrawn
            for t, K in found:
                pt = ProjPoint(*(center + t * direction), policy=policy)
                if pt.in_chart(policy):
                    candidates += [(pt, v) for v in (K @ _MIXES).T]
        best = _best_step(cur, np.reshape([v for _, v in candidates], (-1, 2 * d)), policy)
        if best is None or best[2] > (1.0 - BRIDGE_STEP_TOL) * off:
            break
        cur, rec = type2(cur, *candidates[best[0]], best[1], policy)
        records.append(rec)
        off = off_pattern_norm(cur.gamma, d)
        history.append(off)

    return BridgeResult(records=records, pencil=cur, off_pattern_norm=off,
                        converged=off <= target, history=history)
