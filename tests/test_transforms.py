import numpy as np
import pytest

from pfaffrep import (DetRep, NotAdmissible, PreconditionError, ProjPoint,
                      SampleOnExceptionalLine, SkewPencil, VectorNotInKernel, apply_record,
                      bundle_maps_check, classify_pair, conint, conint_rho_for_type2,
                      decomposable_from, inverse_step, kernel_at, sample_curve_points, type1,
                      type2, verify_replay)
from pfaffrep.tolerances import draws
from conftest import random_pencil
from test_incidence import _left_kernel, _right_kernel


def admissible_data(P, seed=17):
    pts = sample_curve_points(P.pfaffian(), 2, seed=seed)
    lam, mu = pts[0].pt, pts[1].pt
    pc = classify_pair(P, lam, mu)
    assert pc.kind == "admissible"
    return lam, mu, pc.basis_lambda.v1, pc.basis_mu.v1


def pf_dev(P, Q):
    pf = P.pfaffian()
    return (Q.pfaffian() - pf).max_coeff() / pf.max_coeff()


def test_type1_preserves_pfaffian(rng):
    for trial in range(20):
        P = random_pencil(rng, 6)
        lam, mu, v, u = admissible_data(P, seed=trial)
        out, _ = type1(P, lam, mu, v, u)
        assert pf_dev(P, out) <= 1e-7


def test_type1_kernel_swap(rng):
    P = random_pencil(rng, 8)
    lam, mu, v, u = admissible_data(P)
    out, _ = type1(P, lam, mu, v, u)
    Al, Am = out(lam), out(mu)
    assert np.linalg.norm(Al @ u) <= 1e-8 * np.linalg.norm(Al, 2)
    assert np.linalg.norm(Am @ v) <= 1e-8 * np.linalg.norm(Am, 2)


def test_type1_round_trip(rng):
    P = random_pencil(rng, 6)
    lam, mu, v, u = admissible_data(P)
    out, rec = type1(P, lam, mu, v, u)
    back, _ = inverse_step(out, rec)
    assert np.max(np.abs(back.gamma - P.gamma)) <= 1e-7 * np.max(np.abs(P.gamma))


def test_type1_update_rank_at_most_four(rng):
    P = random_pencil(rng, 8)
    lam, mu, v, u = admissible_data(P)
    out, _ = type1(P, lam, mu, v, u)
    diff = out.gamma - P.gamma
    assert np.max(np.abs(diff + diff.T)) <= 1e-10 * np.max(np.abs(diff))
    s = np.linalg.svd(diff, compute_uv=False)
    assert s[4] <= 1e-10 * s[0]


def test_type1_rejects_inadmissible(rng):
    M = DetRep(*(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3)))
    P = decomposable_from(M)
    pts = sample_curve_points(P.pfaffian(), 2, seed=5)
    lam, mu = pts[0].pt, pts[1].pt
    v = np.concatenate([_left_kernel(M(lam)), np.zeros(3)])
    u = np.concatenate([_left_kernel(M(mu)), np.zeros(3)])
    with pytest.raises(NotAdmissible):
        type1(P, lam, mu, v, u)


def test_type1_decomposable_block_shift(rng):
    # cross-block admissible array: the update sits in the off-diagonal blocks
    M = DetRep(*(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3)))
    P = decomposable_from(M)
    pts = sample_curve_points(P.pfaffian(), 2, seed=5)
    lam, mu = pts[0].pt, pts[1].pt
    v = np.concatenate([_left_kernel(M(lam)), np.zeros(3)])
    u = np.concatenate([np.zeros(3), _right_kernel(M(mu))])
    out, _ = type1(P, lam, mu, v, u)
    assert pf_dev(P, out) <= 1e-7
    diff = out.gamma - P.gamma
    assert np.max(np.abs(diff[:3, :3])) <= 1e-10 * max(np.max(np.abs(diff)), 1e-300)
    assert np.max(np.abs(diff[3:, 3:])) <= 1e-10 * max(np.max(np.abs(diff)), 1e-300)
    # kernel membership swaps at the two base points
    assert np.linalg.norm(out(lam) @ u) <= 1e-8 * np.linalg.norm(out(lam), 2)
    assert np.linalg.norm(out(mu) @ v) <= 1e-8 * np.linalg.norm(out(mu), 2)


def test_type2_preserves_pfaffian(rng):
    for trial in range(20):
        P = random_pencil(rng, 6)
        pt = sample_curve_points(P.pfaffian(), 1, seed=trial)[0].pt
        v = kernel_at(P, pt).v1
        out, _ = type2(P, pt, v, 0.3 + 0.7j)
        assert pf_dev(P, out) <= 1e-7


def test_type2_round_trip_and_kernel_fix(rng):
    P = random_pencil(rng, 8)
    pt = sample_curve_points(P.pfaffian(), 1, seed=23)[0].pt
    v = kernel_at(P, pt).v1
    rho = -1.2 + 0.4j
    out, rec = type2(P, pt, v, rho)
    assert np.linalg.norm(out(pt) @ v) <= 1e-8 * np.linalg.norm(out(pt), 2)
    back, _ = type2(out, pt, v, -rho)
    assert np.max(np.abs(back.gamma - P.gamma)) <= 1e-9 * max(np.max(np.abs(P.gamma)), 1.0)


def test_type2_update_rank_two(rng):
    P = random_pencil(rng, 6)
    pt = sample_curve_points(P.pfaffian(), 1, seed=2)[0].pt
    v = kernel_at(P, pt).v1
    out, _ = type2(P, pt, v, 1.0)
    s = np.linalg.svd(out.gamma - P.gamma, compute_uv=False)
    assert s[2] <= 1e-10 * s[0]
    assert s[1] > 1e-8 * s[0]


def test_conint_single_point_matches_type2(rng):
    P = random_pencil(rng, 6)
    pt = sample_curve_points(P.pfaffian(), 1, seed=3)[0].pt
    v = kernel_at(P, pt).v1
    rho = 0.6 - 0.2j
    a, _ = type2(P, pt, v, rho)
    b, _ = conint(P, [pt], [v], [conint_rho_for_type2(rho)])
    assert np.max(np.abs(a.gamma - b.gamma)) <= 1e-9 * max(np.max(np.abs(a.gamma)), 1.0)


def test_conint_decoupled_pair_composes_type2(rng):
    # same-block vectors of a decomposable pencil have zero mutual coupling,
    # so the two-point step equals two independent one-point steps
    M = DetRep(*(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3)))
    P = decomposable_from(M)
    pts = sample_curve_points(P.pfaffian(), 2, seed=6)
    lam, mu = pts[0].pt, pts[1].pt
    w1 = np.concatenate([_left_kernel(M(lam)), np.zeros(3)])
    w2 = np.concatenate([_left_kernel(M(mu)), np.zeros(3)])
    r1, r2 = 0.8 + 0.3j, -0.5 + 1.1j
    combined, _ = conint(P, [lam, mu], [w1, w2], [r1, r2])
    # the constant map between the two conventions is an involution
    step1, _ = type2(P, lam, w1, conint_rho_for_type2(r1))
    step2, _ = type2(step1, mu, w2, conint_rho_for_type2(r2))
    assert np.max(np.abs(combined.gamma - step2.gamma)) <= 1e-8 * np.max(np.abs(combined.gamma))


def test_conint_two_points_without_diagonal_matches_type1(rng):
    # type I is the two-point update with Gamma = [[0, K], [K, 0]]
    P = random_pencil(rng, 8)
    lam, mu, v, u = admissible_data(P)
    _, rec1 = type1(P, lam, mu, v, u)
    _, rec = conint(P, [lam, mu], [v, u], [0, 0])
    delta = rec1.gamma_after - rec.gamma_after
    assert np.max(np.abs(delta)) <= 1e-12 * np.max(np.abs(rec1.gamma_after))


def test_conint_preserves_pfaffian_m2_m3(rng):
    for m in (2, 3):
        for trial in range(5):
            P = random_pencil(rng, 6)
            pts = [p.pt for p in sample_curve_points(P.pfaffian(), m, seed=trial + 31 * m)]
            vecs = [kernel_at(P, pt).v1 for pt in pts]
            rhos = [complex(*np.random.default_rng(trial + k).standard_normal(2))
                    for k in range(m)]
            out, _ = conint(P, pts, vecs, rhos)
            assert pf_dev(P, out) <= 1e-7


def test_replay_sequence(rng):
    P = random_pencil(rng, 6)
    lam, mu, v, u = admissible_data(P)
    P1, rec1 = type1(P, lam, mu, v, u)
    P2, rec2 = type2(P1, lam, u, 0.4)  # u is in the new kernel at lam
    devs = verify_replay(P, [rec1, rec2])
    assert max(devs) <= 1e-7
    replayed = apply_record(apply_record(P, rec1), rec2)
    assert np.max(np.abs(replayed.gamma - P2.gamma)) == 0


def _type2_record(P):
    pt = sample_curve_points(P.pfaffian(), 1, seed=7)[0].pt
    return type2(P, pt, kernel_at(P, pt).v1, 0.9 - 0.1j)[1]


def test_replay_rejects_a_record_of_other_sigma_parts():
    # same constant part, other sigma parts: only the record's kernel vector tells
    rng = np.random.default_rng(2)
    Q, R = random_pencil(rng, 6), random_pencil(rng, 6)
    rec = _type2_record(Q)
    with pytest.raises(VectorNotInKernel):
        verify_replay(SkewPencil(Q.A0, R.A1, R.A2), [rec])


def test_bundle_maps_reject_a_record_of_another_pencil():
    rng = np.random.default_rng(2)
    Q, R = random_pencil(rng, 6), random_pencil(rng, 6)
    samples = [ProjPoint(1, 0.3, -0.2j), ProjPoint(1, -0.5, 0.7)]
    with pytest.raises(PreconditionError):
        bundle_maps_check(R, _type2_record(Q), samples)


def test_bundle_maps_need_a_sample():
    # without samples the intertwining identity would be checked nowhere
    P = random_pencil(np.random.default_rng(2), 6)
    with pytest.raises(PreconditionError, match="need at least one sample point"):
        bundle_maps_check(P, _type2_record(P), [])


def test_bundle_maps_type1(rng):
    P = random_pencil(rng, 6)
    lam, mu, v, u = admissible_data(P)
    _, rec = type1(P, lam, mu, v, u)
    off_curve = [ProjPoint(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
                 for _ in range(5)]
    on_curve = [p.pt for p in sample_curve_points(P.pfaffian(), 5, seed=41)]
    rep = bundle_maps_check(P, rec, off_curve, curve_samples=on_curve)
    assert rep.identity_residual <= 1e-7
    assert max(rep.zero_patterns.values()) <= 1e-7
    assert rep.transport_angle <= 1e-5
    assert rep.parameter_independence <= 1e-6


def test_bundle_maps_type2(rng):
    P = random_pencil(rng, 6)
    pt = sample_curve_points(P.pfaffian(), 1, seed=7)[0].pt
    v = kernel_at(P, pt).v1
    _, rec = type2(P, pt, v, 0.9 - 0.1j)
    off_curve = [ProjPoint(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
                 for _ in range(5)]
    on_curve = [p.pt for p in sample_curve_points(P.pfaffian(), 5, seed=43)]
    rep = bundle_maps_check(P, rec, off_curve, curve_samples=on_curve)
    assert rep.identity_residual <= 1e-7
    assert rep.transport_angle <= 1e-5
    assert rep.parameter_independence <= 1e-6


def test_bundle_maps_exceptional_sample(rng):
    P = random_pencil(rng, 6)
    lam, mu, v, u = admissible_data(P)
    _, rec = type1(P, lam, mu, v, u)
    # the base point itself lies on its own exceptional line for this draw:
    # construct a sample on the line through lambda annihilating (t1, t2)
    # by brute force: scan for a point with a tiny denominator
    l1, l2 = lam.affine()
    t = draws(0)(2)  # the library's fixed draw
    z = np.array([1.0, l1 + t[1], l2 - t[0]])  # t1(x1-l1) + t2(x2-l2) = 0
    with pytest.raises(SampleOnExceptionalLine):
        bundle_maps_check(P, rec, [ProjPoint(*z)])
