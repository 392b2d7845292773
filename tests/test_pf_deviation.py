"""Pfaffian invariance and scaling at fixed points (``pencil.pf_deviation``).

A corruption of a transform's or a canonical form's constant part by
``1e-6 |A0|`` fails the CLI's ``pf_invariance`` and ``pf_scaling`` at every
scale of every coordinate from ``1e-6`` to ``1e6``, and the uncorrupted
outputs pass: the points sized by both pencils see it where the constant
part is small, and the points as drawn where a step made it large.  On
chains of elementary steps the point rule passes and fails where the
coefficient-wise rule on both pfaffian polynomials does."""

import numpy as np
import pytest

from pfaffrep import (DEFAULT_POLICY, ProjPoint, SkewPencil, classify_pair, congruence, conint,
                      kernel_at, pf_deviation, sample_curve_points, to_canonical, type1, type2)
from pfaffrep.canonical import CanonicalReport
from pfaffrep.cli import _pf_invariance, _pf_scaling, dispatch, parse_problem
from pfaffrep.jsonio import dec_fields
from pfaffrep.tolerances import PF_TOL
from conftest import bench_problems, random_pencil, random_skew
from oracles import pf_coeff_deviation

# (axis, c): the change of coordinates x_axis -> c x_axis, c = 1 once
AXIS_SCALES = [(0, 1.0)] + [(axis, c) for axis in range(3) for c in (1e-6, 1e6)]


def _corrupted(P: SkewPencil, seed: int = 5) -> SkewPencil:
    """``P`` with ``1e-6 |A0| R`` added to its constant part, ``R`` a seeded skew matrix."""
    R = random_skew(np.random.default_rng(seed), P.dim)
    return P.with_gamma(P.A0 + 1e-6 * np.max(np.abs(P.A0)) * R)


def test_pf_deviation_is_the_relative_deviation_of_pfaffian_values(rng):
    P = random_pencil(rng, 6)
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert pf_deviation(P, P) == 0.0
    assert pf_deviation(P, congruence(P, X), np.linalg.det(X)) <= 1e-12
    assert pf_deviation(P, congruence(P, X)) > 1e-3
    assert pf_deviation(P, SkewPencil(*(2.0 * P.coeffs))) == pytest.approx(2 ** 3 - 1)
    cone = SkewPencil(P.A0, P.A1, 0 * P.A2)  # no coefficient sizes x2: it stays as drawn
    assert pf_deviation(cone, cone) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corrupted_outputs_fail_at_every_axis_scale(seed):
    base = random_pencil(np.random.default_rng(seed), 8)
    lam = sample_curve_points(base.pfaffian(), 1, seed=3)[0].pt
    v = kernel_at(base, lam).v1
    for axis, c in AXIS_SCALES:
        D = np.ones(3)
        D[axis] = c
        P = SkewPencil(*(ck * Ak for ck, Ak in zip(D, base.coeffs)))
        a = {"pencil": P, "policy": DEFAULT_POLICY}
        out, _ = type2(P, ProjPoint(*(lam.coords / D)), v, 0.5 - 0.25j)
        report = to_canonical(P)
        for bad in (False, True):
            Q = _corrupted(out) if bad else out
            C = _corrupted(report.pencil) if bad else report.pencil
            checks = {**_pf_invariance(a, {"pencil": Q}),
                      **_pf_scaling(a, {"report": CanonicalReport(
                          report.roots, report.basis_change, C, report.residual)})}
            assert [r["ok"] for r in checks.values()] == [not bad] * 2, (axis, c, checks)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corrupting_a_large_step_fails_at_the_points_as_drawn(seed):
    """A type-II step with rho = 100 leaves a constant part far larger than the
    input's.  The points sized by it weight ``x0`` down, so only the points as
    drawn see a corruption of ``1e-6`` of the input's constant part."""
    P = random_pencil(np.random.default_rng(seed), 8)
    lam = sample_curve_points(P.pfaffian(), 1, seed=3)[0].pt
    Q, _ = type2(P, lam, kernel_at(P, lam).v1, 100.0)
    R = random_skew(np.random.default_rng(5), P.dim)
    assert pf_deviation(P, Q) <= PF_TOL
    assert pf_deviation(P, Q.with_gamma(Q.A0 + 1e-6 * np.max(np.abs(P.A0)) * R)) > PF_TOL


def _chain(P: SkewPencil, seed: int) -> list[SkewPencil]:
    """The pencils after a type-I, a type-II and a two-point CONINT step from ``P``."""
    pts = [cp.pt for cp in sample_curve_points(P.pfaffian(), 2, seed=seed)]
    pc = classify_pair(P, *pts)
    P1, _ = type1(P, *pts, pc.basis_lambda.v1, pc.basis_mu.v1)
    P2, _ = type2(P1, pts[0], pc.basis_mu.v1, 0.7 + 0.2j)  # in P1's kernel at lambda
    pts = [cp.pt for cp in sample_curve_points(P2.pfaffian(), 2, seed=seed + 1)]
    P3, _ = conint(P2, pts, [kernel_at(P2, pt).v1 for pt in pts], [0.3 - 0.1j, -1.2])
    return [P1, P2, P3]


@pytest.mark.parametrize("d", [4, 6, 8])
def test_point_rule_agrees_with_the_coefficient_rule_on_chains(d):
    for seed in range(3):
        P = random_pencil(np.random.default_rng(100 * d + seed), 2 * d)
        for Q in _chain(P, seed):
            for R in (Q, _corrupted(Q)):
                points, coeffs = pf_deviation(P, R), pf_coeff_deviation(P, R)
                assert (points <= PF_TOL) == (coeffs <= PF_TOL) == (R is Q), (points, coeffs)


def test_a_weakly_coupled_step_reads_its_evaluation_loss():
    """The benchmark's ``pair_probe`` seed 10 at ``1e-3``: a d = 6 type-I step
    whose coupling is shrunk a thousandfold leaves a constant part 834 times
    the input's.  At the points as drawn, rounding the output's value to
    doubles moves its pfaffian by about ``PF_TOL``, so ``type1`` exits 3 on
    it (1.24e-7; 2.7e-8 for the exact pfaffian of the stored output), where
    the coefficient-wise rule read 5.7e-8 (README, "Command line")."""
    doc = bench_problems().pair_probe(10)[3]["doc"]
    P, lam, mu, v, u = dec_fields("pencil lambda:point mu:point v:vector u:vector", doc["payload"],
                                  "$.payload", DEFAULT_POLICY)
    Q, _ = type1(P, lam, mu, v, u)
    assert pf_coeff_deviation(P, Q) <= PF_TOL < pf_deviation(P, Q)
    assert not dispatch(parse_problem(doc))["residuals"]["pf_invariance"]["ok"]
