"""Canonical forms of pfaffian representations.

The first canonical form makes the ``x1`` coefficient block-diagonal
with 2x2 blocks ``[[0, 1], [-1, 0]]`` and the ``x2`` coefficient
block-diagonal with blocks ``[[0, -p_i], [p_i, 0]]``, one block per
intersection point ``(0, p_i, 1)`` of the curve with the line
``x0 = 0``.  The second canonical form regroups those blocks into
``A1 = [[0, Id], [-Id, 0]]`` and ``A2 = [[0, -D], [D, 0]]`` with
``D = diag(p_1 .. p_d)``, the shape that contains every decomposable
representation ``[[0, M], [-M^t, 0]]`` verbatim.
"""

from __future__ import annotations

import numpy as np

from .errors import NotInCanonicalForm, NotUnimodular, SpanFailure
from .incidence import line_points
from .pencil import SkewPencil, congruence
from .tolerances import DEFAULT_POLICY, Record, TolerancePolicy, null_space


class CanonicalReport(Record):
    roots: list[complex]
    basis_change: np.ndarray
    pencil: SkewPencil
    residual: float


class StructureReport(Record):
    is_decomposable_form: bool
    is_symmetric_blocks: bool
    free_parameter_count: int


def _canonical_shape(ps, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """A1 and A2 of a canonical form: root ``ps[i]``'s block on ``rows[i], cols[i]``."""
    n = 2 * len(ps)
    J, D = np.zeros((2, n, n), dtype=complex)
    J[rows, cols], J[cols, rows] = 1.0, -1.0
    D[rows, cols], D[cols, rows] = -np.asarray(ps), ps
    return J, D


def _shape_residual(P: SkewPencil, ps, rows, cols) -> float:
    """Deviation of A1 and A2 from the canonical shape, A2's relative to the roots."""
    J, D = _canonical_shape(ps, rows, cols)
    scale = max(1.0, *(abs(p) for p in ps))
    return max(float(np.max(np.abs(P.A1 - J))), float(np.max(np.abs(P.A2 - D))) / scale)


def to_canonical(P: SkewPencil, policy: TolerancePolicy = DEFAULT_POLICY) -> CanonicalReport:
    """Congruence to the first canonical form.

    Requires the curve ``Pf A = 0`` to meet ``x0 = 0`` in ``half_deg`` distinct
    points ``(0, p_i, 1)``, read with their kernels by :func:`incidence.line_points`.
    Each kernel basis ``K`` becomes ``K K[[i, j]]^-1``, rows ``i < j`` holding its
    largest 2x2 minor, which depends on the kernel plane alone; scaled so the A1
    block is ``[[0, 1], [-1, 0]]``, and by powers of two to a like size, its two
    vectors are that root's rows of the basis change.
    """
    d, roots, rows = P.half_deg, [], []
    for p, K in line_points(P, (0, 0, 1), (0, 1, 0), policy):
        k0, k1 = K.T
        if abs(k0 @ P.A1 @ k1) <= policy.rank_tol * np.max(np.abs(P.A1)):
            raise SpanFailure(f"A1 pairing degenerates on the kernel at root {p:.6g}")
        minors = np.triu(np.abs(np.outer(k0, k1) - np.outer(k1, k0)), 1)
        i, j = np.unravel_index(np.argmax(minors), minors.shape)
        u, v = (K @ np.linalg.inv(K[[i, j]])).T
        pairing = u @ P.A1 @ v
        pow2 = np.ldexp(1.0, -round(np.log2(abs(pairing)) / 2))
        roots.append(p)
        rows += [pow2 * u, v / (pow2 * pairing)]
    B = np.array(rows)
    if len(null_space(B, policy.rank_tol)[0]):
        raise SpanFailure("union of point kernels does not span the full space")
    out = congruence(P, B, policy)
    residual = _shape_residual(out, roots, 2 * np.arange(d), 2 * np.arange(d) + 1)
    B.setflags(write=False)
    return CanonicalReport(roots=roots, basis_change=B, pencil=out, residual=residual)


def validate_canonical(P: SkewPencil, policy: TolerancePolicy = DEFAULT_POLICY
                       ) -> list[complex]:
    """Check the first canonical block pattern; returns the roots read off A2."""
    pairs = 2 * np.arange(P.half_deg)
    roots = [complex(P.A2[i + 1, i]) for i in pairs]
    if _shape_residual(P, roots, pairs, pairs + 1) > policy.match_tol:
        raise NotInCanonicalForm("pencil is not in the first canonical form")
    return roots


def second_canonical_transform(d: int) -> np.ndarray:
    """The fixed basis change from the first to the second canonical form.

    Row ``i`` (0-based, i < d) is ``e_{2i} - e_{2i+1}``; row ``d+i`` is
    ``e_{2i+1}``.  Its determinant is ``(-1)^{d(d-1)/2}``.
    """
    Q, i = np.zeros((2 * d, 2 * d), dtype=complex), np.arange(d)
    Q[i, 2 * i], Q[i, 2 * i + 1], Q[d + i, 2 * i + 1] = 1.0, -1.0, 1.0
    return Q


def to_second_canonical(P: SkewPencil,
                        policy: TolerancePolicy = DEFAULT_POLICY) -> SkewPencil:
    """Regroup a first-canonical-form pencil into the second canonical form.

    The output has ``A1 = [[0, Id], [-Id, 0]]`` and
    ``A2 = [[0, -D], [D, 0]]`` with the same roots on the diagonal of
    ``D``.  The pfaffian picks up the factor ``det Q = (-1)^{d(d-1)/2}``,
    which is one only for ``d = 0, 1 (mod 4)``.
    """
    validate_canonical(P, policy)
    Q = second_canonical_transform(P.half_deg)
    out = congruence(P, Q, policy)
    validate_second_canonical(out, policy)
    return out


def validate_second_canonical(P: SkewPencil,
                              policy: TolerancePolicy = DEFAULT_POLICY
                              ) -> np.ndarray:
    """Check the second canonical block pattern; returns ``diag(D)``."""
    d = P.half_deg
    ps = np.diag(-P.A2[:d, d:]).copy()
    if _shape_residual(P, ps, np.arange(d), np.arange(d, 2 * d)) > policy.match_tol:
        raise NotInCanonicalForm("pencil is not in the second canonical form")
    return ps


def gauge_action(P: SkewPencil, R_blocks: list[np.ndarray],
                 policy: TolerancePolicy = DEFAULT_POLICY) -> SkewPencil:
    """Block-diagonal congruence by 2x2 blocks of determinant one.

    This is the full stabilizer of the first canonical form: A1 and A2
    are unchanged and the constant part transforms blockwise by
    ``R_i * block_ij * R_j^t``.
    """
    d = P.half_deg
    if len(R_blocks) != d:
        raise ValueError(f"need {d} gauge blocks, got {len(R_blocks)}")
    validate_canonical(P, policy)
    X = np.zeros((2 * d, 2 * d), dtype=complex)
    for i, R in enumerate(R_blocks):
        R = np.asarray(R, dtype=complex)
        if R.shape != (2, 2):
            raise ValueError("gauge blocks must be 2x2")
        if abs(np.linalg.det(R) - 1.0) > policy.match_tol:
            raise NotUnimodular(f"gauge block {i} has determinant {np.linalg.det(R):.6g}")
        X[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = R
    return congruence(P, X, policy)


def off_pattern_blocks(gamma: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The two diagonal d-by-d blocks that vanish on decomposable pencils (of
    each constant part of a stack)."""
    return gamma[..., :d, :d], gamma[..., d:, d:]


def off_pattern_norm(gamma: np.ndarray, d: int) -> float:
    top, bot = off_pattern_blocks(gamma, d)
    return float(np.sqrt(np.linalg.norm(top, "fro") ** 2
                         + np.linalg.norm(bot, "fro") ** 2))


def negligible_norm(P: SkewPencil, policy: TolerancePolicy) -> float:
    """The Frobenius norm up to which a block of ``P``'s constant part counts as
    zero, relative to that part's own largest entry, which scales with ``x0``."""
    return 0.1 * policy.match_tol * float(np.max(np.abs(P.A0)))


def negligible(block: np.ndarray, P: SkewPencil, policy: TolerancePolicy) -> bool:
    """Whether the Frobenius norm of ``block`` is within :func:`negligible_norm`."""
    return float(np.linalg.norm(block)) <= negligible_norm(P, policy)


def structure_report(P: SkewPencil,
                     policy: TolerancePolicy = DEFAULT_POLICY) -> StructureReport:
    """Classify a second-canonical-form pencil by the shape of its constant part.

    Decomposable means the two diagonal d-by-d blocks of A0 have a joint
    Frobenius norm within :func:`negligible_norm`, where the bridge stops; the
    symmetric-block refinement also requires the off-diagonal block to be
    symmetric, the shape of symmetric determinantal representations.  The
    free parameter count ``3/2 d (d-3)`` counts the moduli left after the
    pfaffian constraints and the block gauge; it is meaningful for ``d >= 3``.
    """
    d = P.half_deg
    validate_second_canonical(P, policy)
    decomposable = off_pattern_norm(P.A0, d) <= negligible_norm(P, policy)
    C = P.A0[:d, d:]
    symmetric = decomposable and negligible(C - C.T, P, policy)
    return StructureReport(
        is_decomposable_form=decomposable,
        is_symmetric_blocks=symmetric,
        free_parameter_count=3 * d * (d - 3) // 2,
    )
