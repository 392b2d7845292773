import numpy as np
import pytest

from pfaffrep import (DEFAULT_POLICY, CorankNotOne, CubicCoeffs, HomPoly, InconsistentPolarData,
                      LinearForm, MultipleMatches, NoMatch, NotAProductOfLines,
                      NotOnBaseLocus, PreconditionError, ProjPoint, SymDetRep,
                      aronhold_invariant, aronhold_matrix, bitangent_from_octad,
                      decomposable_from, equal_up_to_scale, factor_three_lines,
                      hessian_det, identify_theta, integrate_polar, kernel_at,
                      polar_cubic, polar_cubic_at,
                      polar_triangle, sample_curve_points, scorza_map,
                      scorza_related)
from pfaffrep import jsonio as io
from pfaffrep.tolerances import draws
from conftest import CBRT107, bench_problems, theta_rep
from oracles import coeff_rel_dev, cubic_coeffs_from_poly, pfaffian_by_matchings


def random_quartic(rng):
    terms = {}
    for a in range(5):
        for b in range(5 - a):
            terms[(a, b, 4 - a - b)] = complex(*rng.standard_normal(2))
    return HomPoly(4, terms)


def random_line(rng):
    return LinearForm(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))


# -- polar coefficients ----------------------------------------------------------

def test_polar_cubic_of_pure_power():
    F = HomPoly(4, {(4, 0, 0): 1})
    w = polar_cubic(F)
    assert w.w000 == LinearForm(4, 0, 0)
    for name in ("w111", "w222", "w012", "w001", "w002", "w011", "w022", "w112", "w122"):
        assert getattr(w, name).is_zero()


def test_polar_cubic_of_example(quartic_example):
    w = polar_cubic(quartic_example)
    assert w.w000 == LinearForm(4, 1, 0)
    assert w.w111 == LinearForm(0, -4, 0)
    assert w.w222 == LinearForm(0, -1, 0)
    assert w.w001 == LinearForm(1, 0, 0)
    assert w.w122 == LinearForm(0, 0, -1)
    assert w.w002.is_zero() and w.w022.is_zero()


def test_polar_cubic_irrational_entries(quartic_example):
    # direct differentiation puts the cube-root factor on exactly these three
    w = polar_cubic(quartic_example)
    c = CBRT107
    assert w.w012 == LinearForm(0, c / 3, 0)
    assert w.w112 == LinearForm(c / 3, 0, 0)
    assert w.w011 == LinearForm(0, 0, c / 3)


def test_cubic_coeffs_round_trip(rng):
    cubic = HomPoly(3, {(3, 0, 0): 1.5, (1, 1, 1): -2j, (2, 1, 0): 0.25,
                        (0, 2, 1): 3.0, (0, 0, 3): -1.0})
    w = cubic_coeffs_from_poly(cubic)
    assert (w.as_poly() - cubic).max_coeff() <= 1e-12


def test_polar_at_point_consistency(quartic_example, theta_lambda):
    w = polar_cubic(quartic_example)
    direct = polar_cubic_at(quartic_example, theta_lambda)
    at_point = CubicCoeffs(*(v(theta_lambda) for v in w.values()))
    assert (at_point.as_poly() - direct).max_coeff() <= 1e-12


# -- the 8x8 arrangement ---------------------------------------------------------

def test_aronhold_zero_input():
    w = CubicCoeffs(*(0,) * 10)
    assert np.all(aronhold_matrix(w) == 0)
    assert aronhold_invariant(w) == 0


def test_aronhold_vanishes_on_three_cubes(rng):
    for _ in range(20):
        lines = [random_line(rng) for _ in range(3)]
        cubic = HomPoly.zero(3)
        for ell in lines:
            p = ell.as_poly()
            cubic = cubic + p * p * p
        w = cubic_coeffs_from_poly(cubic)
        scale = max(abs(v) for v in w.values()) ** 4
        assert abs(aronhold_invariant(w)) <= 1e-7 * scale


def test_aronhold_nonzero_generic(rng):
    w = CubicCoeffs(*(complex(*rng.standard_normal(2)) for _ in range(10)))
    scale = max(abs(v) for v in w.values()) ** 4
    assert abs(aronhold_invariant(w)) > 1e-6 * scale


def test_aronhold_skew():
    w = CubicCoeffs(*(float(k + 1) for k in range(10)))
    A = aronhold_matrix(w)
    assert np.max(np.abs(A + A.T)) == 0


# -- the covariant quartic -------------------------------------------------------

def test_scorza_example_regression(quartic_example, scorza_printed):
    S = scorza_map(quartic_example)
    ratio = equal_up_to_scale(S, scorza_printed)
    assert ratio is not None
    # the published covariant is a fixed multiple of the pfaffian
    assert ratio == pytest.approx(81 / CBRT107, rel=1e-9)


def test_scorza_double_route_fermat():
    F = HomPoly(4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    pencil = aronhold_matrix(polar_cubic(F))
    a = pencil.pfaffian()
    b = pfaffian_by_matchings(pencil)
    assert coeff_rel_dev(a, b) <= 1e-10
    assert scorza_map(F) == a


def test_scorza_homogeneity(quartic_example, rng):
    # scaling F by c scales each polar coefficient by c and the pfaffian by c^4
    c = 1.3 - 0.7j
    S1 = scorza_map(quartic_example.scaled(c))
    S0 = scorza_map(quartic_example)
    assert (S1 - S0.scaled(c ** 4)).max_coeff() <= 1e-9 * S1.max_coeff()


# -- integration -----------------------------------------------------------------

def test_integrate_pure_power():
    w = CubicCoeffs(LinearForm(4, 0, 0), *(LinearForm.zero(),) * 9)
    F = integrate_polar(w)
    assert F == HomPoly(4, {(4, 0, 0): 1})


def test_integrate_round_trip(rng):
    for _ in range(10):
        F = random_quartic(rng)
        back = integrate_polar(polar_cubic(F))
        assert (F - back).max_coeff() <= 1e-8 * F.max_coeff()


def test_integrate_noisy_data_is_the_least_squares_preimage(rng):
    # noise off the range of the polar map is accepted up to match_tol,
    # and the quartic returned is the least-squares solution
    mons = [(4 - i - j, i, j) for i in range(5) for j in range(5 - i)]
    A = np.column_stack([polar_cubic(HomPoly.monomial(e)).flatten() for e in mons])
    b = polar_cubic(random_quartic(rng)).flatten()
    noise = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    noise -= A @ np.linalg.lstsq(A, noise, rcond=None)[0]
    noise /= np.linalg.norm(noise)
    for size in (0.5, 0.99):
        bn = b + size * DEFAULT_POLICY.match_tol * np.linalg.norm(b) * noise
        w = CubicCoeffs(*(LinearForm(*bn[k:k + 3]) for k in range(0, 30, 3)))
        F = integrate_polar(w)
        sol = np.linalg.lstsq(A, bn, rcond=None)[0]
        got = np.array([F.coeff(e) for e in mons])
        assert np.max(np.abs(got - sol)) <= 1e-12 * np.max(np.abs(sol))


def test_integrate_inconsistent_rejected(rng):
    """The residual is judged against the data's own norm, so inconsistent data
    is refused at every scale."""
    w = polar_cubic(random_quartic(rng))
    values = w.values()
    values[3] = LinearForm(values[3].c0 + 1.0, values[3].c1, values[3].c2 + 0.5)
    for s in (1.0, 1e-9, 1e-12):
        with pytest.raises(InconsistentPolarData):
            integrate_polar(CubicCoeffs(*(LinearForm(*(s * f.coeffs)) for f in values)))


# -- triangles -------------------------------------------------------------------

def test_factor_three_lines_coordinate():
    cubic = HomPoly(3, {(1, 1, 1): 1.0})
    lines = factor_three_lines(cubic)
    dirs = sorted(int(np.argmax(np.abs(l.coeffs))) for l in lines)
    assert dirs == [0, 1, 2]


def test_factor_three_lines_constructed():
    l1, l2, l3 = LinearForm(1, 1, 0), LinearForm(1, -1, 0), LinearForm(1, 0, 1)
    cubic = l1.as_poly() * l2.as_poly() * l3.as_poly()
    lines = factor_three_lines(cubic)
    prod = lines[0].as_poly() * lines[1].as_poly() * lines[2].as_poly()
    scale = equal_up_to_scale(prod, cubic)
    assert scale is not None
    assert (cubic - prod.scaled(scale)).max_coeff() <= 1e-8 * cubic.max_coeff()


def test_factor_three_lines_random(rng):
    for trial in range(20):
        lines = [random_line(rng) for _ in range(3)]
        cubic = lines[0].as_poly() * lines[1].as_poly() * lines[2].as_poly()
        got = factor_three_lines(cubic)
        prod = got[0].as_poly() * got[1].as_poly() * got[2].as_poly()
        scale = equal_up_to_scale(prod, cubic)
        assert scale is not None
        assert (cubic - prod.scaled(scale)).max_coeff() <= 1e-7 * cubic.max_coeff()


def test_factor_rejects_irreducible():
    # x^3 + y^3 + z^3 is smooth, not a product of lines
    cubic = HomPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    with pytest.raises(NotAProductOfLines):
        factor_three_lines(cubic)


def test_polar_triangle_coordinate_cube_sum():
    # a quartic whose polar at (1,0,0) is exactly x^3 + y^3 + z^3
    F = HomPoly(4, {(4, 0, 0): 0.25, (1, 3, 0): 1, (1, 0, 3): 1})
    tri = polar_triangle(F, ProjPoint(1, 0, 0))
    assert tri.residual <= 1e-8
    verts = [v.coords for v in tri.vertices]
    expected = [np.eye(3)[k] for k in range(3)]
    for e in expected:
        assert any(np.allclose(v, e, atol=1e-7) for v in verts)


def test_polar_triangle_example(quartic_example, theta_lambda, theta_vertices_printed):
    tri = polar_triangle(quartic_example, theta_lambda)
    assert tri.residual <= 1e-6
    for expected in theta_vertices_printed:
        assert any(np.max(np.abs(v.coords - expected.coords)) <= 5e-3
                   for v in tri.vertices)


def test_polar_triangle_plant_and_recover(rng):
    # antidifferentiate a sum of three cubes in the first variable, so the
    # polar at (1, 0, 0) is exactly that cubic
    for trial in range(5):
        lines = [random_line(rng) for _ in range(3)]
        cubic = HomPoly.zero(3)
        for ell in lines:
            p = ell.as_poly()
            cubic = cubic + p * p * p
        F = HomPoly(4, {(a + 1, b, c): v / (a + 1)
                        for (a, b, c), v in cubic.terms.items()})
        tri = polar_triangle(F, ProjPoint(1, 0, 0))
        assert tri.residual <= 1e-6


def test_polar_triangle_fits_the_polar_to_rounding():
    """The benchmark's cli-small seed 2108, problem 66: the cube weights of the
    factored Hessian alone fit the polar to 2.3e-8; the joint Gauss-Newton step
    on the three lines brings the fit to rounding."""
    doc = bench_problems().problem("cli-small", 2108, 66)["doc"]
    assert doc["kind"] == "triangle"
    F, pt = io.dec_poly(doc["payload"]["quartic"]), io.dec_point(doc["payload"]["point"])
    tri = polar_triangle(F, pt)
    assert tri.residual <= 1e-12
    # independently, as the benchmark's checker does: both sides at random points
    xs, polar = draws(3)(6, 3), polar_cubic_at(F, pt)
    cubes = np.array([sum(g(x) ** 3 for g in tri.lines) for x in xs])
    want = np.array([polar(x) for x in xs])
    assert np.max(np.abs(cubes - want)) <= 1e-11 * np.max(np.abs(want))


# -- the kernel pairing ----------------------------------------------------------

def test_scorza_related_at_printed_vertices(quartic_example, m_theta, theta_lambda,
                                            relation_policy):
    tri = polar_triangle(quartic_example, theta_lambda, policy=relation_policy)
    for mu in tri.vertices:
        rel = scorza_related(m_theta, theta_lambda, mu, relation_policy)
        assert rel.related, rel.residuals
        assert max(rel.residuals) <= 1e-4


def test_scorza_related_false_off_triangle(m_theta, scorza_printed, relation_policy,
                                           theta_lambda):
    pts = sample_curve_points(scorza_printed, 5, seed=77, policy=relation_policy)
    for cp in pts:
        rel = scorza_related(m_theta, theta_lambda, cp.pt, relation_policy)
        assert not rel.related
        assert max(rel.residuals) > 1e-4


def test_scorza_related_symmetric(m_theta, quartic_example, theta_lambda, relation_policy):
    tri = polar_triangle(quartic_example, theta_lambda, policy=relation_policy)
    mu = tri.vertices[0]
    a = scorza_related(m_theta, theta_lambda, mu, relation_policy)
    b = scorza_related(m_theta, mu, theta_lambda, relation_policy)
    assert a.related == b.related
    assert np.allclose(sorted(a.residuals), sorted(b.residuals), atol=1e-6)


def test_scorza_related_diagonal_pair_is_false(m_theta, theta_lambda, relation_policy):
    # the tangent-style pairing v^t M v of a symmetric representation is a
    # nonzero linear form; its coefficients sit well above the true-pair floor
    rel = scorza_related(m_theta, theta_lambda, theta_lambda, relation_policy)
    assert not rel.related
    assert max(rel.residuals) > 5e-5


def test_printed_kernel_vectors_match(m_theta, theta_lambda, theta_vertices_printed,
                                      printed_kernel_vectors, loose_policy):
    from pfaffrep.quartic import corank_one_kernel
    v = corank_one_kernel(m_theta, theta_lambda, loose_policy)
    ref = printed_kernel_vectors["lambda"]
    overlap = abs(np.vdot(v, ref)) / (np.linalg.norm(v) * np.linalg.norm(ref))
    assert overlap >= 1 - 1e-3
    for key, pt in zip(("mu1", "mu2", "mu3"), theta_vertices_printed):
        u = corank_one_kernel(m_theta, pt, loose_policy)
        ref = printed_kernel_vectors[key]
        overlap = abs(np.vdot(u, ref)) / (np.linalg.norm(u) * np.linalg.norm(ref))
        assert overlap >= 1 - 1e-3


def test_kernel_of_decomposable_contains_printed_vector(m_theta, theta_lambda,
                                                        printed_kernel_vectors,
                                                        loose_policy):
    P = decomposable_from(m_theta)
    kb = kernel_at(P, theta_lambda, loose_policy)
    emb = np.concatenate([np.zeros(4), printed_kernel_vectors["lambda"]])
    proj = kb.vectors @ (kb.vectors.conj().T @ emb)
    assert np.linalg.norm(proj) / np.linalg.norm(emb) >= 1 - 1e-3


# -- identification --------------------------------------------------------------

def _identify_policy():
    from pfaffrep import TolerancePolicy
    return TolerancePolicy(zero_tol=1e-9, rank_tol=1e-5, match_tol=2e-2)


def _decoy_from(M, rng, eps=0.02):
    pert = [m + eps * (lambda a: a + a.T)(rng.standard_normal((4, 4)))
            for m in (M.M0, M.M1, M.M2)]
    return SymDetRep(*pert)


def test_identify_theta_example(quartic_example, m_theta, rng):
    # perturbed decoys still cut out (approximately) the same quartic, but
    # their matrices are no longer corank one at the triangle vertices,
    # so the correspondence rules them out
    decoys = [_decoy_from(m_theta, rng) for _ in range(2)]
    ident = identify_theta(quartic_example, [decoys[0], m_theta, decoys[1]],
                           samples=3, policy=_identify_policy(),
                           det_match_tol=0.5)
    assert ident.index == 1
    assert len(ident.evidence) == 3


def test_identify_theta_empty_candidates(quartic_example):
    with pytest.raises(NoMatch):
        identify_theta(quartic_example, [], samples=3, policy=_identify_policy())


def test_identify_theta_duplicate_candidates(quartic_example, m_theta):
    with pytest.raises(MultipleMatches):
        identify_theta(quartic_example, [m_theta, theta_rep()], samples=3,
                       policy=_identify_policy())


def test_identify_theta_from_polar_coefficients(quartic_example, m_theta):
    # feeding the polar coefficients of F must reproduce the same answer,
    # with F recovered by integration
    w = polar_cubic(quartic_example)
    ident = identify_theta(w, [m_theta], samples=3, policy=_identify_policy())
    assert ident.index == 0


# -- bitangents ------------------------------------------------------------------

def four_line_rep(rng):
    """Diagonal symmetric representation: the curve is four lines, and the
    base points of the quadric net are the sign patterns of the null
    combination's square roots."""
    while True:
        L = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        _, _, vh = np.linalg.svd(L.T)
        n = vh[-1].conj()  # the combination with sum n_k * line_k = 0
        if np.min(np.abs(n)) > 0.1:
            break
    M = SymDetRep(np.diag(L[:, 0]), np.diag(L[:, 1]), np.diag(L[:, 2]))
    roots = np.sqrt(n)
    octad = []
    for signs in ((1, 1, 1, 1), (1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1),
                  (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1), (1, -1, -1, -1)):
        octad.append(roots * np.array(signs))
    return M, octad


def test_bitangent_from_diagonal_octad(rng):
    M, octad = four_line_rep(rng)
    # every octad point satisfies all three quadrics
    for b in octad:
        for Mk in (M.M0, M.M1, M.M2):
            assert abs(b @ Mk @ b) <= 1e-8
    # sign patterns differing in exactly two slots give the lines through
    # two nodes of the four-line curve, the honest double tangents here
    # (one- or three-slot flips collapse onto a component line instead)
    ell = bitangent_from_octad(M, octad[0], octad[4])
    assert not ell.is_zero()
    ell2 = bitangent_from_octad(M, octad[1], octad[3])
    assert not ell2.is_zero()
    ell3 = bitangent_from_octad(M, octad[5], octad[6])
    assert not ell3.is_zero()


def test_bitangent_rejects_non_octad(rng):
    M, octad = four_line_rep(rng)
    with pytest.raises(NotOnBaseLocus):
        bitangent_from_octad(M, octad[0], np.array([1.0, 2.0, 3.0, 4.0]))


def test_bitangent_rejects_equal_points(rng):
    M, octad = four_line_rep(rng)
    with pytest.raises(PreconditionError):
        bitangent_from_octad(M, octad[0], octad[0])


def test_corank_one_rejected_off_curve(m_theta, loose_policy):
    from pfaffrep.quartic import corank_one_kernel
    with pytest.raises(CorankNotOne):
        corank_one_kernel(m_theta, ProjPoint(1.0, 0.7, -0.3), loose_policy)


def test_hessian_det_of_three_cubes_factors(rng):
    lines = [random_line(rng) for _ in range(3)]
    cubic = HomPoly.zero(3)
    for ell in lines:
        p = ell.as_poly()
        cubic = cubic + p * p * p
    hd = hessian_det(cubic)
    got = factor_three_lines(hd)
    # the Hessian factors are the original lines up to scale and order
    for ell in lines:
        unit = ell.coeffs / np.linalg.norm(ell.coeffs)
        overlaps = [abs(np.vdot(unit, g.coeffs)) / np.linalg.norm(g.coeffs) for g in got]
        assert max(overlaps) >= 1 - 1e-8


def test_bitangent_guard_rejects_component_line(rng):
    # sign patterns differing in one slot collapse onto a component line of
    # the four-line curve; the restricted quartic vanishes identically there
    # and the double-tangency guard must refuse it
    from pfaffrep import TangencyCheckFailed
    M, octad = four_line_rep(rng)
    with pytest.raises(TangencyCheckFailed):
        bitangent_from_octad(M, octad[0], octad[3])


def test_theta_rep_pfaffian_det_consistency(m_theta):
    # for 4x4 blocks the block pencil's pfaffian equals +det of the block
    P = decomposable_from(m_theta)
    scale = equal_up_to_scale(m_theta.det_poly(), P.pfaffian())
    assert scale == pytest.approx(1.0, abs=1e-9)
