import numpy as np
import pytest

from pfaffrep import (DegenerateDenominator, DetRep, NoAdmissiblePartner,
                      ProjPoint, RepeatedRoots, SamePoint, SpanFailure, VectorNotInKernel,
                      classify_pair, curve_point, decomposable_from, k_constant, kernel_at,
                      line_points, line_through, partner_points, sample_curve_points,
                      tangent_line, univariate_roots)
from conftest import random_pencil
from oracles import partner_direction
from test_poly import match_multiset


@pytest.fixture
def pencil_and_points(rng):
    P = random_pencil(rng, 6)
    pts = sample_curve_points(P.pfaffian(), 4, seed=17)
    return P, [p.pt for p in pts]


def test_sampled_points_lie_on_curve(pencil_and_points):
    P, pts = pencil_and_points
    F = P.pfaffian()
    for pt in pts:
        cp = curve_point(F, pt)
        assert cp.curve_residual <= 1e-6 * F.max_coeff()


def test_tangent_matches_gradient(pencil_and_points):
    P, pts = pencil_and_points
    F = P.pfaffian()
    ell = tangent_line(P, pts[0])
    grad = np.array([F.partial(k)(pts[0]) for k in range(3)])
    cos = abs(np.vdot(ell.coeffs, grad)) / (np.linalg.norm(ell.coeffs) * np.linalg.norm(grad))
    assert cos >= 1 - 1e-6


def test_line_through_vanishes_at_both_points(pencil_and_points):
    P, pts = pencil_and_points
    lam, mu = pts[0], pts[1]
    v = kernel_at(P, lam).v1
    u = kernel_at(P, mu).v1
    ell = line_through(P, lam, v, mu, u)
    if not ell.is_zero():
        scale = np.max(np.abs(ell.coeffs))
        assert abs(ell(lam)) <= 1e-6 * scale
        assert abs(ell(mu)) <= 1e-6 * scale


def test_line_through_inadmissible_pair_is_zero(rng):
    # same-block vectors of a decomposable pencil pair to the zero form
    M = DetRep(*(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3)))
    P = decomposable_from(M)
    pts = sample_curve_points(P.pfaffian(), 2, seed=3)
    lam, mu = pts[0].pt, pts[1].pt
    v = np.concatenate([_left_kernel(M(lam)), np.zeros(3)])
    u = np.concatenate([_left_kernel(M(mu)), np.zeros(3)])
    ell = line_through(P, lam, v, mu, u)
    assert ell.is_zero()


def _left_kernel(Mx):
    _, _, vh = np.linalg.svd(Mx.T)
    return vh[-1].conj()


def _right_kernel(Mx):
    _, _, vh = np.linalg.svd(Mx)
    return vh[-1].conj()


def test_line_through_rejects_non_kernel_vector(pencil_and_points):
    P, pts = pencil_and_points
    with pytest.raises(VectorNotInKernel):
        line_through(P, pts[0], np.ones(6), pts[1], np.ones(6))


def test_k_constant_parameter_independence(pencil_and_points, rng):
    P, pts = pencil_and_points
    lam, mu = pts[0], pts[1]
    v = kernel_at(P, lam).v1
    u = kernel_at(P, mu).v1
    vals = []
    for _ in range(4):
        t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vals.append(k_constant(P, lam, v, mu, u, t[0], t[1]))
    for K in vals[1:]:
        assert abs(K - vals[0]) <= 1e-8 * (1 + abs(vals[0]))


def test_k_constant_same_point_rejected(pencil_and_points):
    P, pts = pencil_and_points
    v = kernel_at(P, pts[0]).v1
    with pytest.raises(SamePoint):
        k_constant(P, pts[0], v, pts[0], v, 1.0, 0.0)


def test_k_constant_degenerate_direction(pencil_and_points):
    P, pts = pencil_and_points
    lam, mu = pts[0], pts[1]
    v = kernel_at(P, lam).v1
    u = kernel_at(P, mu).v1
    l1, l2 = lam.affine()
    m1, m2 = mu.affine()
    # direction orthogonal to the point difference
    t1, t2 = (l2 - m2), -(l1 - m1)
    with pytest.raises(DegenerateDenominator):
        k_constant(P, lam, v, mu, u, t1, t2)


def test_k_block_pattern_on_decomposable(rng):
    # same-block vectors pair to zero identically; cross-block pairs are the
    # generically admissible ones
    M = DetRep(*(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3)))
    P = decomposable_from(M)
    pts = sample_curve_points(P.pfaffian(), 2, seed=8)
    lam, mu = pts[0].pt, pts[1].pt
    v_same = np.concatenate([_left_kernel(M(lam)), np.zeros(3)])
    u_same = np.concatenate([_left_kernel(M(mu)), np.zeros(3)])
    K_same = k_constant(P, lam, v_same, mu, u_same, 0.9, 0.4j)
    assert abs(K_same) <= 1e-10 * P.scale()
    u_cross = np.concatenate([np.zeros(3), _right_kernel(M(mu))])
    K_cross = k_constant(P, lam, v_same, mu, u_cross, 0.9, 0.4j)
    assert abs(K_cross) > 1e-6 * P.scale()


def test_classify_generic_pair_admissible(pencil_and_points):
    P, pts = pencil_and_points
    pc = classify_pair(P, pts[0], pts[1])
    assert pc.kind == "admissible"
    # the coupled direction pairs to zero against its source vector
    v = pc.basis_lambda.v1
    u = partner_direction(pc, np.array([1.0, 0.0]))
    K = k_constant(P, pts[0], v, pts[1], u, 1.1, 0.3)
    ref = max(np.linalg.norm(P.sigma1, 2), np.linalg.norm(P.sigma2, 2))
    assert abs(K) <= 1e-8 * ref


def test_classify_symmetry_under_swap(pencil_and_points):
    P, pts = pencil_and_points
    a = classify_pair(P, pts[0], pts[1])
    b = classify_pair(P, pts[1], pts[0])
    assert a.kind == b.kind
    # kappa transposes (bases are reproducible, so entries match exactly)
    assert np.allclose(a.kappa, b.kappa.T, atol=1e-8 * np.max(np.abs(a.kappa)))


def test_classify_decomposable_kappa_pattern(rng):
    M = DetRep(*(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3)))
    P = decomposable_from(M)
    pts = sample_curve_points(P.pfaffian(), 2, seed=12)
    pc = classify_pair(P, pts[0].pt, pts[1].pt)
    # block kernels pair to a kappa with one zero entry per row/column pattern:
    # [v;0] couples only to [0;u], so kappa is invertible but anti-diagonalish
    assert pc.kind == "admissible"
    # cross-block coupling: the special structure shows as exact zeros of
    # K between same-block vectors; verified directly
    v_same = np.concatenate([_left_kernel(M(pts[0].pt)), np.zeros(3)])
    u_same = np.concatenate([_left_kernel(M(pts[1].pt)), np.zeros(3)])
    K = k_constant(P, pts[0].pt, v_same, pts[1].pt, u_same, 0.7, 1.1)
    assert abs(K) <= 1e-10 * P.scale()


def test_classify_same_point_rejected(pencil_and_points):
    P, pts = pencil_and_points
    with pytest.raises(SamePoint):
        classify_pair(P, pts[0], pts[0])


def test_partner_points_plant_and_recover(pencil_and_points):
    P, pts = pencil_and_points
    lam, mu = pts[0], pts[1]
    v = kernel_at(P, lam).v1
    u = kernel_at(P, mu).v1
    partners = partner_points(P, lam, v, u)
    assert any(pp.pt.close_to(mu) for pp in partners)


def test_partner_points_is_the_planted_point_alone(rng):
    # A(mu) u is linear in s on the partner line, so s = 0 (lam) aside there is
    # at most one partner: the mu whose kernel u was taken from
    for trial in range(20):
        P = random_pencil(rng, 6)
        pts = sample_curve_points(P.pfaffian(), 2, seed=trial)
        lam, mu = pts[0].pt, pts[1].pt
        v = kernel_at(P, lam).v1
        u = kernel_at(P, mu).v1
        assert [pp.pt.close_to(mu) for pp in partner_points(P, lam, v, u)] == [True]


def test_partner_points_of_a_vector_at_lambda_is_empty(pencil_and_points):
    P, pts = pencil_and_points
    kb = kernel_at(P, pts[0])
    assert partner_points(P, pts[0], kb.v1, kb.v2) == []


def test_partner_points_degenerate_direction_raises(rng):
    M = DetRep(*(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3)))
    P = decomposable_from(M)
    pts = sample_curve_points(P.pfaffian(), 2, seed=2)
    lam = pts[0].pt
    v = np.concatenate([_left_kernel(M(lam)), np.zeros(3)])
    u_same = np.concatenate([_left_kernel(M(pts[1].pt)), np.zeros(3)])
    # same-block vectors have identically zero coupling: no line to intersect
    with pytest.raises(NoAdmissiblePartner):
        partner_points(P, lam, v, u_same)


# -- worked example: the published symmetric representation ----------------------

def test_embedded_printed_vectors_have_vanishing_coupling(m_theta, theta_lambda,
                                                          printed_kernel_vectors):
    from pfaffrep import TolerancePolicy, decomposable_from
    P8 = decomposable_from(m_theta)
    v8 = np.concatenate([printed_kernel_vectors["lambda"], np.zeros(4)])
    u8 = np.concatenate([np.zeros(4), printed_kernel_vectors["mu1"]])
    # three-decimal vectors sit in the kernels only to about 5e-4
    policy = TolerancePolicy(zero_tol=1e-9, rank_tol=5e-3, match_tol=5e-3)
    K = k_constant(P8, theta_lambda, v8, ProjPoint(1, 0, 0), u8, 0.8, 0.3j, policy)
    # the cross-block coupling vanishes because the kernel pairing does;
    # compare against the coupling of an unrelated direction at the same
    # geometry to show the contrast
    # the sampled point is a root to machine precision: its kernel takes the
    # default policy, since the loose one can merge small singular values
    kb = kernel_at(P8, sample_curve_points(P8.pfaffian(), 1, seed=21, policy=policy)[0].pt)
    ref = abs(k_constant(P8, theta_lambda, v8, kb.point, kb.v2, 0.8, 0.3j, policy,
                         check_kernels=False))
    assert abs(K) <= 0.05 * max(ref, 1.0)


def test_scorza_related_pair_is_inadmissible_in_the_block_pencil(m_theta, theta_lambda):
    # for a symmetric representation both cross pairings of a related pair
    # vanish, so the pair of points is inadmissible for the block pencil
    from pfaffrep import TolerancePolicy, decomposable_from
    P8 = decomposable_from(m_theta)
    policy = TolerancePolicy(zero_tol=1e-9, rank_tol=1e-3, match_tol=1e-3)
    pc = classify_pair(P8, theta_lambda, ProjPoint(1, 0, 0), policy=policy)
    assert pc.kind == "inadmissible"
    rnd = sample_curve_points(P8.pfaffian(), 1, seed=21, policy=policy)[0].pt
    assert classify_pair(P8, theta_lambda, rnd, policy=policy).kind == "admissible"


def test_tangent_of_block_pencil_matches_gradient(m_theta, theta_lambda):
    from pfaffrep import decomposable_from, univariate_roots
    P8 = decomposable_from(m_theta)
    S = P8.pfaffian()
    # the published point is off this pencil's own curve by the printing
    # noise; slide it back onto the curve along the x2 axis first
    coeffs = S.restrict_line(theta_lambda.coords, np.array([0, 0, 1.0]))
    t = min(univariate_roots(coeffs), key=abs)
    lam = ProjPoint(*(theta_lambda.coords + t * np.array([0, 0, 1.0])))
    ell = tangent_line(P8, lam)
    grad = np.array([S.partial(k)(lam) for k in range(3)])
    cos = abs(np.vdot(ell.coeffs, grad)) / (np.linalg.norm(ell.coeffs)
                                            * np.linalg.norm(grad))
    assert cos >= 1 - 1e-6


def _random_line(rng):
    return rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_line_points_are_the_roots_of_the_restricted_pfaffian(rng, d):
    P = random_pencil(rng, 2 * d)
    base, direction = _random_line(rng)
    ts = [t for t, _ in line_points(P, base, direction)]
    expected = univariate_roots(P.pfaffian().restrict_line(base, direction))
    assert len(ts) == len(expected) == d
    match_multiset(ts, expected, 1e-8 * max(1.0, float(np.max(np.abs(expected)))))
    assert ts == sorted(ts, key=lambda t: (t.real, t.imag))


@pytest.mark.parametrize("d", [4, 8, 12, 16])
def test_line_point_kernels_are_orthonormal_kernel_bases(rng, d):
    P = random_pencil(rng, 2 * d)
    base, direction = _random_line(rng)
    found = line_points(P, base, direction)
    assert len(found) == d
    for t, K in found:
        A = P(base + t * direction)
        assert K.shape == (2 * d, 2)
        assert np.abs(K.conj().T @ K - np.eye(2)).max() <= 1e-12
        assert np.linalg.norm(A @ K, 2) <= 1e-12 * np.linalg.norm(A, 2)


def test_a_tangent_line_is_refused(rng):
    # M = x0 C0 + x1 I - x2 J with a Jordan block of J at 0.5: the line x0 = 0
    # touches the curve det M = 0 at the smooth point (0, 0.5, 1)
    J = np.diag([0.5, 0.5, -1.0 + 0.4j, 2.0])
    J[0, 1] = 1.0
    C0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    P = decomposable_from(DetRep(C0, np.eye(4), -J))
    assert kernel_at(P, ProjPoint(0, 0.5, 1)).vectors.shape == (8, 2)
    with pytest.raises(RepeatedRoots):
        line_points(P, (0, 0, 1), (0, 1, 0))


def test_a_direction_on_the_curve_is_refused(rng):
    P = random_pencil(rng, 6)
    base, direction = _random_line(rng)
    t, _ = line_points(P, base, direction)[0]
    with pytest.raises(SpanFailure, match="lies on the curve"):
        line_points(P, base, base + t * direction)
