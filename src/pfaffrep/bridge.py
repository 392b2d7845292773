"""Driving a second-canonical-form pencil toward the decomposable shape.

A pencil in the second canonical form is decomposable exactly when the
two diagonal d-by-d blocks of its constant part vanish.  A one-point step
``gamma + 2 rho (s2 v ^ s1 v)`` with ``v = (a; b)`` changes those blocks by
``2 rho (b ^ D b)`` (top) and ``2 rho (a ^ D a)`` (bottom), ``D = diag(ps)``,
so linear combinations of such wedges span everything supported on the two
blocks.  No constructive selection rule with a convergence guarantee exists;
this module runs a greedy descent and reports non-convergence as a
first-class outcome.

Two candidate sources feed each greedy step:

* sampled moves: six kernel vectors at each point where ``ceil(32/d)``
  seeded lines through a seeded centre meet the curve, read off the current
  pencil by :func:`incidence.line_points` (a refused line is skipped);
* a structured move: each off-pattern block factors as ``c (b ^ D b)`` by two
  null spaces, the factors join into the kernel vector whose step cancels
  both blocks (up to the sign of a square root), and the null space of the
  columns ``C_k v`` gives its base point.

Lines and base points live in sized coordinates, where every ``A_k`` has
largest entry one, and a step needs no affine chart, so scaling one
coordinate changes no decision.  A step scores all its candidates in one pass
of :func:`transforms._gamma_update`, each at its least-squares constant.
Every accepted move is an ordinary one-point transformation with its record,
so the pfaffian is preserved along the whole path.
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


def _sizes(P: SkewPencil) -> np.ndarray:
    """``max|A_k|`` for k = 0, 1, 2; sized coordinates ``y`` are ``x = y / sizes``."""
    return np.max(np.abs(P.coeffs), axis=(1, 2))


def _wedge_factor(block: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, complex] | None:
    """Factor ``block = c (b ^ D b)``, ``D = diag(ps)``, into (unit b, c), or None.

    The kernel rows ``k`` of such a block are those with ``k b = k D b = 0``, so
    ``b`` spans the kernel of their stack with the rows ``k D``.  ``D`` enters
    centred and normalised, which leaves that kernel alone but keeps both halves
    of the stack one size.  None when the block has no kernel (d < 3), when that
    kernel is not one line, or when ``c (b ^ D b)`` misses the block by more than
    half its norm.  The entries of ``ps`` are pairwise apart, as checked on entry.
    """
    kernel = null_space(block, BRIDGE_FIT_TOL)[0]
    if not len(kernel):
        return None
    shift = ps - ps.mean()
    line = null_space(np.vstack([kernel, kernel * (shift / np.max(np.abs(shift)))]),
                      BRIDGE_FIT_TOL)[0]
    if len(line) != 1:
        return None
    b = line[0]
    W = np.outer(b, shift * b)  # b ^ D b, centred so that no large p_l cancels
    W = W - W.T
    c = np.vdot(W, block) / np.vdot(W, W)
    if np.linalg.norm(block - c * W) > 0.5 * np.linalg.norm(block):
        return None
    return b, complex(c)


def _point_for_vector(P: SkewPencil, v: np.ndarray, sizes: np.ndarray,
                      policy: TolerancePolicy) -> ProjPoint | None:
    """The point (if any) where ``v`` is a kernel vector, solved for in sized coordinates."""
    kernel, s = null_space((P.coeffs @ v).T / sizes, BRIDGE_FIT_TOL)
    if s[0] == 0 or not len(kernel):
        return None
    pt = ProjPoint(*(kernel[-1] / sizes), policy=policy)
    try:
        _require_kernel(P, pt, v, policy)
    except VectorNotInKernel:
        return None
    return pt


def _structured_candidates(P: SkewPencil, ps: np.ndarray, sizes: np.ndarray,
                           policy: TolerancePolicy) -> list[tuple[ProjPoint, np.ndarray]]:
    """The kernel vectors ``v = (sqrt(c_bot) a, +-sqrt(c_top) b)`` with their points,
    whose steps cancel the blocks ``c_top (b ^ D b)`` and ``c_bot (a ^ D a)`` together
    (``c = 0`` for a negligible block); none when another block does not factor."""
    fits = [(np.zeros(len(ps)), 0j) if negligible(block, P, policy) else _wedge_factor(block, ps)
            for block in off_pattern_blocks(P.gamma, P.half_deg)]
    if any(fit is None for fit in fits):
        return []
    (b, c_top), (a, c_bot) = fits
    trials = [np.concatenate([np.sqrt(c_bot) * a, sign * np.sqrt(c_top) * b]) for sign in (1, -1)]
    points = [_point_for_vector(P, v, sizes, policy) for v in trials]
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
        sizes = _sizes(cur)
        candidates = _structured_candidates(cur, ps, sizes, policy)
        center, *lines = draws(seed + 977 * len(records))(1 - (-_CANDIDATE_POINTS // d), 3) / sizes
        for direction in lines:
            try:
                found = line_points(cur, center, direction, policy)
            except (RepeatedRoots, SpanFailure):
                continue  # a refused line is skipped, not redrawn
            candidates += [(ProjPoint(*(center + t * direction), policy=policy), v)
                           for t, K in found for v in (K @ _MIXES).T]
        best = _best_step(cur, np.reshape([v for _, v in candidates], (-1, 2 * d)), policy)
        if best is None or best[2] > (1.0 - BRIDGE_STEP_TOL) * off:
            break
        cur, rec = type2(cur, *candidates[best[0]], best[1], policy)
        records.append(rec)
        off = off_pattern_norm(cur.gamma, d)
        history.append(off)

    return BridgeResult(records=records, pencil=cur, off_pattern_norm=off,
                        converged=off <= target, history=history)
