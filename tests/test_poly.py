import numpy as np
import pytest

from pfaffrep import (HomPoly, LinearForm, PreconditionError, ProjPoint,
                      RepeatedRoots, equal_up_to_scale, roots_on_line,
                      univariate_roots)


def test_eval_simple_product():
    p = HomPoly(2, {(1, 1, 0): 1})
    assert p(ProjPoint(1, 1, 0)) == pytest.approx(1)


def test_eval_quartic_at_unit_point(quartic_example):
    # only the -y^4 term survives at (0, 1, 0)
    assert quartic_example(ProjPoint(0, 1, 0)) == pytest.approx(-1)


def test_scorza_curve_passes_through_first_vertex(scorza_printed):
    # all x1- and x2-free terms vanish, so (1, 0, 0) is on the curve
    assert abs(scorza_printed(ProjPoint(1, 0, 0))) < 1e-12


def test_partial_simple():
    p = HomPoly(2, {(1, 1, 0): 1})
    assert p.partial(1) == HomPoly(1, {(1, 0, 0): 1})
    q = HomPoly(2, {(2, 0, 0): 1})
    assert q.partial(0) == HomPoly(1, {(1, 0, 0): 2})


def test_partial_degree_zero_gives_zero_poly():
    assert HomPoly.constant(3.0).partial(0).is_zero()


def test_euler_identity_on_example(quartic_example, rng):
    F = quartic_example
    for _ in range(5):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = sum(x[k] * F.partial(k)(x) for k in range(3))
        assert abs(lhs - 4 * F(x)) <= 1e-9 * max(1.0, abs(F(x)))


def test_euler_identity_random_degrees(rng):
    for deg in range(1, 7):
        terms = {}
        for _ in range(6):
            a = rng.integers(0, deg + 1)
            b = rng.integers(0, deg + 1 - a)
            terms[(int(a), int(b), int(deg - a - b))] = complex(*rng.standard_normal(2))
        p = HomPoly(deg, terms)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = sum(x[k] * p.partial(k)(x) for k in range(3))
            assert abs(lhs - deg * p(x)) <= 1e-8 * (1 + abs(p(x)))


def test_normalization_idempotent(rng):
    terms = {(2, 1, 1): 1.5 - 0.5j, (0, 4, 0): 1e-15, (4, 0, 0): -2.0}
    p = HomPoly(4, terms)
    q = HomPoly(4, p.terms)
    assert p == q
    assert (0, 4, 0) not in p.terms  # pruned below the zero tolerance


def test_roots_on_line_quadric():
    p = HomPoly(2, {(0, 2, 0): 1, (0, 0, 2): -1})
    roots = roots_on_line(p)
    assert np.allclose(sorted(r.real for r in roots), [-1, 1])


def match_multiset(found, expected, tol):
    """Greedy nearest-match of two complex multisets; asserts all within tol."""
    left = list(found)
    for e in expected:
        best = min(left, key=lambda z: abs(z - e))
        assert abs(best - e) <= tol, f"no root near {e}"
        left.remove(best)
    assert not left


def test_roots_on_line_scorza_restriction(scorza_printed):
    # restriction to x0 = 0 is -x1^4 - 27 x1 x2^3
    roots = roots_on_line(scorza_printed)
    expected = [0, -3, 3 * np.exp(1j * np.pi / 3), 3 * np.exp(-1j * np.pi / 3)]
    match_multiset(roots, expected, 1e-8)


def test_roots_on_line_rejects_repeated():
    p = HomPoly(2, {(0, 2, 0): 1})  # x1^2: double root at 0
    with pytest.raises(RepeatedRoots):
        roots_on_line(p)


def test_roots_on_line_rejects_zero_restriction():
    p = HomPoly(2, {(2, 0, 0): 1})
    with pytest.raises(PreconditionError):
        roots_on_line(p)


def test_univariate_roots_residual(rng):
    # companion-matrix roots re-substitute to small residuals
    for _ in range(10):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        roots = univariate_roots(coeffs)
        assert len(roots) == 4
        for r in roots:
            val = np.polyval(coeffs[::-1], r)
            bound = np.max(np.abs(coeffs)) * sum(abs(r) ** k for k in range(5))
            assert abs(val) <= 1e-8 * bound


def test_equal_up_to_scale_basic():
    p = HomPoly(2, {(2, 0, 0): 1})
    assert equal_up_to_scale(p, p.scaled(3)) == pytest.approx(3)
    q = HomPoly(2, {(1, 1, 0): 1})
    assert equal_up_to_scale(p, q) is None


def test_equal_up_to_scale_degree_mismatch():
    with pytest.raises(PreconditionError):
        equal_up_to_scale(HomPoly.zero(1), HomPoly.zero(2))


def test_proj_point_normalization():
    pt = ProjPoint(2.0, 4.0, -6.0)
    assert np.allclose(pt.coords, [1.0, 2.0, -3.0])
    pt2 = ProjPoint(0.0, 3.0j, 6.0)
    assert np.allclose(pt2.coords, [0.0, 1.0, -2.0j])
    with pytest.raises(ValueError):
        ProjPoint(0, 0, 0)


def test_proj_point_affine_chart():
    assert ProjPoint(2, 4, 6).affine() == (pytest.approx(2), pytest.approx(3))
    with pytest.raises(PreconditionError):
        ProjPoint(0, 1, 1).affine()



@pytest.mark.parametrize("ratio, inside", [(5e-10, False), (5e-9, True)])
def test_in_chart_agrees_with_affine(ratio, inside):
    # |x0| / max|x| on either side of zero_tol = 1e-9
    pt = ProjPoint(ratio, 1, 0.5)
    assert pt.in_chart() is inside
    if inside:
        assert pt.affine() == (pytest.approx(1 / ratio), pytest.approx(0.5 / ratio))
    else:
        with pytest.raises(PreconditionError):
            pt.affine()

def test_linear_form_zero_detection():
    assert LinearForm(0, 0, 0).is_zero()
    assert LinearForm(1e-12, 0, 0).is_zero()
    assert not LinearForm(1e-3, 0, 0).is_zero()


def test_restrict_line_matches_direct_eval(quartic_example, rng):
    F = quartic_example
    base = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    coeffs = F.restrict_line(base, d)
    for t in (0.3, -1.2 + 0.5j, 2.0):
        assert np.polyval(coeffs[::-1], t) == pytest.approx(F(base + t * d), rel=1e-10)


def test_points_compare_by_their_normalized_coordinates():
    assert ProjPoint(1, 0, 0) == ProjPoint(1, 0, 0) == ProjPoint(2, 0, 0)
    assert ProjPoint(1, 0, 0) != ProjPoint(1, 1e-3, 0)
    assert ProjPoint(1, 0, 0) != (1, 0, 0)
    assert hash(ProjPoint(2j, 4, 0)) == hash(ProjPoint(1, -2j, 0))
    assert len({ProjPoint(1, 2, 3), ProjPoint(2, 4, 6), ProjPoint(0, 1, 0)}) == 2


def test_a_point_equals_its_json_round_trip():
    from pfaffrep import jsonio as io
    from pfaffrep.tolerances import draws
    draw = draws(7)
    for z in draw(300, 3):
        for coords in (z, (0, *z[1:]), (0, 0, z[2])):
            p = ProjPoint(*coords)
            q = io.dec_point(io.enc_point(p))
            assert q == p and hash(q) == hash(p)
            assert ProjPoint(*p.coords) == p
