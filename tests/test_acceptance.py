"""Acceptance criteria, one test per criterion.

Each test exercises its criterion at the stated tolerance and prints one
PASS/FAIL line (run with ``pytest -s`` to see the lines as they go).
Every expected value is either a published constant, re-derived here by
an independent oracle, or pinned by construction.
"""

import time

import numpy as np

from pfaffrep import (ProjPoint, TolerancePolicy,
                      bridge_to_decomposable, bundle_maps_check, classify_pair,
                      conint, decomposable_from, equal_up_to_scale, factor_three_lines,
                      integrate_polar, kernel_at, polar_cubic,
                      polar_triangle, sample_curve_points, scorza_related,
                      structure_report, to_canonical, type1, type2)
from pfaffrep.quartic import CubicCoeffs, aronhold_invariant
from conftest import CBRT107, random_pencil
from oracles import coeff_rel_dev, pfaffian_by_matchings
from test_poly import match_multiset
from test_quartic import random_line, random_quartic


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def elapsed_ok(t0, limit):
    return time.perf_counter() - t0 < limit


RELATION_POLICY = TolerancePolicy(zero_tol=1e-9, rank_tol=1e-5, match_tol=1e-5)


def test_criterion_01_aronhold_regression(scorza_printed):
    t0 = time.perf_counter()
    c = CBRT107
    w = CubicCoeffs(
        w000=_lf(4, 1, 0), w001=_lf(1, 0, 0), w011=_lf(0, 0, c / 3),
        w111=_lf(0, -4, 0), w002=_lf(0, 0, 0), w012=_lf(0, c / 3, 0),
        w112=_lf(c / 3, 0, 0), w022=_lf(0, 0, 0), w122=_lf(0, 0, -1),
        w222=_lf(0, -1, 0))
    pf = aronhold_invariant(w)
    ratio = equal_up_to_scale(pf, scorza_printed, TolerancePolicy(1e-9, 1e-8, 1e-6))
    ok = ratio is not None
    # the published quartic is the pfaffian times the constant 81 * 107^(-1/3)
    ok = ok and abs(ratio - 81 / c) <= 1e-6 * abs(ratio)
    dev = (scorza_printed - pf.scaled(ratio)).max_coeff() / scorza_printed.max_coeff()
    ok = ok and dev <= 1e-6
    ok = ok and elapsed_ok(t0, 1.0)
    report(1, ok,
           f"pfaffian of the coefficient arrangement matches the published "
           f"covariant quartic coefficient-wise at 1e-6 (constant {ratio:.6f}, "
           f"coefficient deviation {dev:.2e})")


def _lf(a, b, c):
    from pfaffrep import LinearForm
    return LinearForm(a, b, c)


def test_criterion_02_polar_triangle_regression(quartic_example, theta_lambda,
                                                theta_vertices_printed):
    t0 = time.perf_counter()
    tri = polar_triangle(quartic_example, theta_lambda)
    ok = True
    for expected in theta_vertices_printed:
        best = min(float(np.max(np.abs(v.coords - expected.coords)))
                   for v in tri.vertices)
        ok = ok and best <= 5e-3
    ok = ok and elapsed_ok(t0, 1.0)
    report(2, ok, "polar triangle vertices match the published values "
                  "coordinate-wise at 5e-3")


def test_criterion_03_scorza_correspondence(quartic_example, m_theta, theta_lambda,
                                            scorza_printed):
    t0 = time.perf_counter()
    tri = polar_triangle(quartic_example, theta_lambda, policy=RELATION_POLICY)
    ok = True
    worst_true = 0.0
    for mu in tri.vertices:
        rel = scorza_related(m_theta, theta_lambda, mu, RELATION_POLICY)
        worst_true = max(worst_true, max(rel.residuals))
        ok = ok and rel.related and max(rel.residuals) <= 1e-4
    imposters = sample_curve_points(scorza_printed, 5, seed=77, policy=RELATION_POLICY)
    for cp in imposters:
        rel = scorza_related(m_theta, theta_lambda, cp.pt, RELATION_POLICY)
        ok = ok and not rel.related
    ok = ok and elapsed_ok(t0, 1.0)
    report(3, ok, f"kernel pairing vanishes at the three vertices "
                  f"(worst residual {worst_true:.2e} <= 1e-4 of the "
                  f"representation scale) and fails at 5 random curve points")


def test_criterion_04_pf_invariance_suite():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for dim in (4, 6, 8):
        for trial in range(20):
            rng = np.random.default_rng(1000 * dim + trial)
            P = random_pencil(rng, dim)
            pf0 = P.pfaffian()
            scale = pf0.max_coeff()
            pts = sample_curve_points(P.pfaffian(), 3, seed=trial)
            lam, mu, extra = (p.pt for p in pts)
            pc = classify_pair(P, lam, mu)
            v, u = pc.basis_lambda.v1, pc.basis_mu.v1

            out1, rec1 = type1(P, lam, mu, v, u)
            dev = (out1.pfaffian() - pf0).max_coeff() / scale
            worst = max(worst, dev)
            ok = ok and dev <= 1e-7
            back1, _ = type1(out1, lam, mu, u, v)
            gdev = np.max(np.abs(back1.gamma - P.gamma)) / max(np.max(np.abs(P.gamma)), 1.0)
            ok = ok and gdev <= 1e-7

            rho = complex(*rng.standard_normal(2))
            out2, _ = type2(P, lam, v, rho)
            dev = (out2.pfaffian() - pf0).max_coeff() / scale
            worst = max(worst, dev)
            ok = ok and dev <= 1e-7
            back2, _ = type2(out2, lam, v, -rho)
            gdev = np.max(np.abs(back2.gamma - P.gamma)) / max(np.max(np.abs(P.gamma)), 1.0)
            ok = ok and gdev <= 1e-7

            m = 1 + trial % 3
            cpts = [lam, mu, extra][:m]
            cvecs = [v, u, kernel_at(P, extra).v1][:m]
            crhos = [complex(*rng.standard_normal(2)) for _ in range(m)]
            out3, _ = conint(P, cpts, cvecs, crhos)
            dev = (out3.pfaffian() - pf0).max_coeff() / scale
            worst = max(worst, dev)
            ok = ok and dev <= 1e-7
    took = time.perf_counter() - t0
    ok = ok and took < 30.0
    report(4, ok, f"all three transformation types preserve the pfaffian "
                  f"coefficient-wise at 1e-7 over 20 trials per size 4/6/8 "
                  f"(worst {worst:.2e}) and round trips restore gamma at 1e-7 "
                  f"({took:.1f}s)")


def test_criterion_05_kernel_bookkeeping():
    ok = True
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        P = random_pencil(rng, 6)
        pts = sample_curve_points(P.pfaffian(), 2, seed=trial + 7)
        lam, mu = pts[0].pt, pts[1].pt
        pc = classify_pair(P, lam, mu)
        v, u = pc.basis_lambda.v1, pc.basis_mu.v1
        out1, _ = type1(P, lam, mu, v, u)
        r1 = np.linalg.norm(out1(lam) @ u) / np.linalg.norm(out1(lam), 2)
        r2 = np.linalg.norm(out1(mu) @ v) / np.linalg.norm(out1(mu), 2)
        out2, _ = type2(P, lam, v, complex(*rng.standard_normal(2)))
        r3 = np.linalg.norm(out2(lam) @ v) / np.linalg.norm(out2(lam), 2)
        worst = max(worst, r1, r2, r3)
        ok = ok and max(r1, r2, r3) <= 1e-8
    report(5, ok, f"after a two-point step the vectors swap kernels and after "
                  f"a one-point step the vector stays, residuals <= 1e-8 of "
                  f"operator norms over 20 trials (worst {worst:.2e})")


def test_criterion_06_bundle_map_instruments():
    ok = True
    worst_id, worst_zero, worst_angle = 0.0, 0.0, 0.0
    for trial in range(5):
        rng = np.random.default_rng(900 + trial)
        P = random_pencil(rng, 6)
        pts = sample_curve_points(P.pfaffian(), 7, seed=trial + 13)
        lam, mu = pts[0].pt, pts[1].pt
        curve_samples = [p.pt for p in pts[2:]]
        samples = [ProjPoint(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
                   for _ in range(5)]
        pc = classify_pair(P, lam, mu)
        v, u = pc.basis_lambda.v1, pc.basis_mu.v1
        _, rec1 = type1(P, lam, mu, v, u)
        rep = bundle_maps_check(P, rec1, samples, curve_samples)
        worst_id = max(worst_id, rep.identity_residual)
        worst_zero = max(worst_zero, max(rep.zero_patterns.values()))
        worst_angle = max(worst_angle, rep.transport_angle)
        ok = (ok and rep.identity_residual <= 1e-6
              and max(rep.zero_patterns.values()) <= 1e-6
              and rep.transport_angle <= 1e-5)
        _, rec2 = type2(P, lam, v, complex(*rng.standard_normal(2)))
        rep2 = bundle_maps_check(P, rec2, samples, curve_samples)
        worst_id = max(worst_id, rep2.identity_residual)
        worst_angle = max(worst_angle, rep2.transport_angle)
        ok = ok and rep2.identity_residual <= 1e-6 and rep2.transport_angle <= 1e-5
    report(6, ok, f"intertwining identities hold at 5 samples per trial "
                  f"(worst {worst_id:.2e} <= 1e-6), all four zero patterns at "
                  f"the base points (worst {worst_zero:.2e} <= 1e-6), kernel "
                  f"transport angles <= 1e-5 (worst {worst_angle:.2e})")


def test_criterion_07_oracle_equivalences():
    ok = True
    worst_sq, worst_match = 0.0, 0.0
    for dim in (2, 4, 6, 8, 12, 16):
        rng = np.random.default_rng(70 + dim)
        P = random_pencil(rng, dim)
        pf = P.pfaffian()
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            dev = abs(pf(x) ** 2 - np.linalg.det(P(x))) / max(abs(pf(x)) ** 2, 1e-300)
            worst_sq = max(worst_sq, dev)
            ok = ok and dev <= 1e-7
        if dim <= 8:
            dev = coeff_rel_dev(pf, pfaffian_by_matchings(P))
            worst_match = max(worst_match, dev)
            ok = ok and dev <= 1e-10
    report(7, ok, f"pfaffian squared equals the determinant at 20 random points "
                  f"per size up to 16x16 (worst {worst_sq:.2e} <= 1e-7) and the "
                  f"symbolic pfaffian equals perfect-matching summation "
                  f"coefficient-wise up to 8x8 (worst {worst_match:.2e} <= 1e-10)")


def test_criterion_08_canonical_form(m_theta):
    P = decomposable_from(m_theta)
    rep = to_canonical(P)
    expected = [0, -3, 3 * np.exp(1j * np.pi / 3), 3 * np.exp(-1j * np.pi / 3)]
    ok = True
    try:
        match_multiset(rep.roots, expected, 1e-6)
    except AssertionError:
        ok = False
    ok = ok and rep.residual <= 1e-7
    sr = structure_report(P)
    ok = ok and sr.free_parameter_count == 6
    report(8, ok, f"canonical reduction of the 8x8 block pencil finds the four "
                  f"published intersection roots at 1e-6 with block residual "
                  f"{rep.residual:.2e} <= 1e-7; moduli count for d=4 is "
                  f"{sr.free_parameter_count} = 6")


def test_criterion_09_round_trips():
    ok = True
    rng = np.random.default_rng(99)
    worst_ip = 0.0
    for _ in range(10):
        F = random_quartic(rng)
        back = integrate_polar(polar_cubic(F))
        dev = (F - back).max_coeff() / F.max_coeff()
        worst_ip = max(worst_ip, dev)
        ok = ok and dev <= 1e-8
    worst_fl = 0.0
    for trial in range(20):
        lines = [random_line(rng) for _ in range(3)]
        cubic = lines[0].as_poly() * lines[1].as_poly() * lines[2].as_poly()
        got = factor_three_lines(cubic)
        prod = got[0].as_poly() * got[1].as_poly() * got[2].as_poly()
        scale = equal_up_to_scale(prod, cubic)
        dev = (float("inf") if scale is None else
               (cubic - prod.scaled(scale)).max_coeff() / cubic.max_coeff())
        worst_fl = max(worst_fl, dev)
        ok = ok and dev <= 1e-7
    report(9, ok, f"polar integration inverts polar extraction on 10 random "
                  f"quartics (worst {worst_ip:.2e} <= 1e-8); three-line "
                  f"factorization recovers 20 planted triples "
                  f"(worst {worst_fl:.2e} <= 1e-7)")


def test_criterion_10_bridging():
    rng = np.random.default_rng(1234)
    d = 4
    D = np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    from pfaffrep import DetRep
    P = decomposable_from(DetRep(C, np.eye(d), -D))
    pt = sample_curve_points(P.pfaffian(), 1, seed=4)[0].pt
    kb = kernel_at(P, pt)
    planted, _ = type2(P, pt, kb.v1 - 0.7 * kb.v2, 1.1 + 0.6j)
    res = bridge_to_decomposable(planted, budget=50, seed=3)
    ok = res.converged and res.off_pattern_norm <= 1e-6
    ok = ok and structure_report(res.pencil).is_decomposable_form
    pf_dev = (res.pencil.pfaffian() - P.pfaffian()).max_coeff() / P.pfaffian().max_coeff()
    ok = ok and pf_dev <= 1e-7
    report(10, ok, f"a planted one-point step on a decomposable d=4 pencil is "
                   f"undone within budget 50 to off-pattern norm "
                   f"{res.off_pattern_norm:.2e} <= 1e-6 (pfaffian preserved at "
                   f"{pf_dev:.2e}); the 36-representation enumeration is out of "
                   f"scope by design; the single published symmetric "
                   f"representation is verified by criteria 1, 3 and 8 instead")
