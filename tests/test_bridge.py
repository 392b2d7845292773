import numpy as np
import pytest

from pfaffrep import (DEFAULT_POLICY, DetRep, PreconditionError, SkewPencil,
                      bridge_to_decomposable, decomposable_from, kernel_at, line_points,
                      off_pattern_norm, sample_curve_points, structure_report, type2)
from pfaffrep.bridge import _MIXES, _best_step, _wedge_factor
from conftest import bench_problems, random_skew
from oracles import best_step_one_by_one


def decomposable_d4(rng, symmetric=False):
    d = 4
    D = np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if symmetric:
        C = C + C.T
    return decomposable_from(DetRep(C, np.eye(d), -D))


def test_already_decomposable_returns_empty(rng):
    P = decomposable_d4(rng)
    res = bridge_to_decomposable(P)
    assert res.converged and not res.records
    assert res.off_pattern_norm == 0.0


def test_planted_step_is_undone(rng):
    P = decomposable_d4(rng)
    F = P.pfaffian()
    pt = sample_curve_points(F, 1, seed=5)[0].pt
    kb = kernel_at(P, pt)
    planted, _ = type2(P, pt, kb.v1 + 0.4 * kb.v2, 0.8 - 0.45j)
    assert off_pattern_norm(planted.gamma, 4) > 0.1

    res = bridge_to_decomposable(planted, budget=50, seed=1)
    assert res.converged
    assert res.off_pattern_norm <= 1e-6
    assert structure_report(res.pencil).is_decomposable_form
    # the whole path preserves the pfaffian
    assert (res.pencil.pfaffian() - F).max_coeff() <= 1e-7 * F.max_coeff()
    # history is strictly decreasing at accepted steps
    assert all(b < a for a, b in zip(res.history, res.history[1:]))


def test_random_d2_descent_is_monotone(rng):
    d = 2
    ps = np.array([0.9, -1.3 + 0.2j])
    A1 = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    A2 = np.block([[np.zeros((d, d)), -np.diag(ps)], [np.diag(ps), np.zeros((d, d))]])
    P = SkewPencil(random_skew(rng, 2 * d), A1, A2)
    res = bridge_to_decomposable(P, budget=50, seed=2)
    assert all(b < a for a, b in zip(res.history, res.history[1:]))
    assert (res.pencil.pfaffian() - P.pfaffian()).max_coeff() <= 1e-7 * P.pfaffian().max_coeff()
    if res.converged:
        assert structure_report(res.pencil).is_decomposable_form
    else:
        assert res.off_pattern_norm > 0


def test_budget_zero_reports_not_converged(rng):
    P = decomposable_d4(rng)
    pt = sample_curve_points(P.pfaffian(), 1, seed=9)[0].pt
    planted, _ = type2(P, pt, kernel_at(P, pt).v1, 1.0)
    res = bridge_to_decomposable(planted, budget=0)
    assert not res.converged
    assert res.off_pattern_norm > 0
    assert not res.records


def test_structure_and_bridge_agree_on_decomposable():
    # roots 1, 2, 3 and skew diagonal blocks of A0 whose largest entry is
    # ``off``: 5e-7 is within match_tol * scale, but the blocks' Frobenius
    # norm is not within a tenth of it, where the bridge stops
    Z, I, D = np.zeros((3, 3)), np.eye(3), np.diag([1.0, 2.0, 3.0])
    K = np.array([[0, 1, -0.5], [-1, 0, 0.25], [0.5, -0.25, 0]])
    C = np.array([[0.3, -1.1, 0.2], [0.7, 0.4, -0.9], [1.2, 0.5, -0.6]])
    for off, decomposable in ((5e-7, False), (1e-9, True)):
        P = SkewPencil(np.block([[off * K, C], [-C.T, -off * K]]),
                       np.block([[Z, I], [-I, Z]]), np.block([[Z, -D], [D, Z]]))
        assert structure_report(P).is_decomposable_form is decomposable
        assert bridge_to_decomposable(P, budget=0).converged is decomposable


def test_repeated_diagonal_rejected(rng):
    d = 2
    ps = np.array([0.9, 0.9])
    A1 = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    A2 = np.block([[np.zeros((d, d)), -np.diag(ps)], [np.diag(ps), np.zeros((d, d))]])
    P = SkewPencil(random_skew(rng, 2 * d), A1, A2)
    with pytest.raises(PreconditionError):
        bridge_to_decomposable(P)


@pytest.mark.parametrize("c", [1e-12, 1e-4, 1.0, 1e12])
@pytest.mark.parametrize("axis", [0, 2])
@pytest.mark.parametrize("d", [2, 3])
def test_planted_step_converges_at_every_scale_of_x0_and_x2(d, axis, c):
    """``x_k -> c x_k`` sends ``A_k`` to ``c A_k`` and, for k = 0 and 2, keeps the
    second canonical form.  The bridge draws its lines and solves for its points
    in sized coordinates, needs no affine chart, and skips a candidate by a rule
    relative to the off-pattern norm, so the scale changes no decision."""
    A = bench_problems().planted_bridge(np.random.default_rng(0), d, 1)
    A[axis] = c * A[axis]
    res = bridge_to_decomposable(SkewPencil(*A), budget=30)
    assert res.converged and res.records
    assert all(b < a for a, b in zip(res.history, res.history[1:]))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_wedge_factor_recovers_the_planted_wedge(d):
    """A block ``c (b ^ D b)`` gives back ``c b b^t`` (``b`` and ``c`` are fixed up to
    ``b -> s b, c -> c / s^2``), also with the roots far from 0 or of any size."""
    rng = np.random.default_rng(200 + d)
    p, b = (rng.standard_normal((d, 2)) @ [1, 1j] for _ in range(2))
    c = complex(rng.standard_normal(2) @ [1, 1j])
    want = c * np.outer(b, b)
    for shift in (0.0, 1e6):
        for size in (1e-6, 1.0, 1e6):
            ps = size * (p + shift)
            block = c * (np.outer(b, ps * b) - np.outer(ps * b, b))
            bf, cf = _wedge_factor(block, ps)
            assert np.linalg.norm(cf * np.outer(bf, bf) - want) <= 1e-8 * np.linalg.norm(want)
    assert _wedge_factor(np.zeros((d, d)), p) is None


def test_wedge_factor_needs_three_roots():
    ps, b = np.array([0.9, -1.3 + 0.2j]), np.array([0.6, 1.1j])
    assert _wedge_factor(np.outer(b, ps * b) - np.outer(ps * b, b), ps) is None


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batched_scoring_matches_one_by_one(d):
    """The bridge's one-pass scoring of a step's candidates picks the oracle's
    candidate, or one as good to 1e-12, with the oracle's constant for it."""
    rng = np.random.default_rng(100 + d)
    ps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    Z, I = np.zeros((d, d)), np.eye(d)
    P = SkewPencil(random_skew(rng, 2 * d), np.block([[Z, I], [-I, Z]]),
                   np.block([[Z, -np.diag(ps)], [np.diag(ps), Z]]))
    center = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rows = [np.zeros(2 * d)]  # a vector that moves nothing is skipped
    for _ in range(4):
        direction = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rows += [v for _, K in line_points(P, center, direction) for v in (K @ _MIXES).T]
    V = np.array(rows)
    k, rho, new_off = _best_step(P, V, DEFAULT_POLICY)
    ko, _, off_o = best_step_one_by_one(P, V, DEFAULT_POLICY.zero_tol)
    assert k == ko or abs(new_off - off_o) <= 1e-12 * off_o
    _, rho_k, off_k = best_step_one_by_one(P, V[k:k + 1], DEFAULT_POLICY.zero_tol)
    assert abs(rho - rho_k) <= 1e-12 * abs(rho_k)
    assert abs(new_off - off_k) <= 1e-12 * off_k
    assert _best_step(P, V[:1], DEFAULT_POLICY) is None
    assert _best_step(P, V[:0], DEFAULT_POLICY) is None
