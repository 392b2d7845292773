import numpy as np
import pytest

from pfaffrep import (DetRep, HomPoly, LinearForm, PreconditionError, ProjPoint,
                      RankDeficiency, SingularTransform, SkewPencil, SkewSymmetryViolation,
                      congruence, decomposable_from, equal_up_to_scale, gauge_action,
                      kernel_at, pfaffian_adjoint_at, pfaffian_minor, pfaffian_numeric,
                      sample_curve_points, to_canonical, to_second_canonical, wedge_to_matrix)
from conftest import random_pencil, random_skew
from oracles import (coeff_rel_dev, det_by_laplace, pfaffian_by_expansion,
                     pfaffian_by_matchings, pfaffian_numeric_by_expansion,
                     pfaffian_numeric_by_matchings)


def random_detrep(rng, d):
    return DetRep(*(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    for _ in range(3)))


def pencil_2x2(c0, c1, c2):
    return SkewPencil([[0, c0], [-c0, 0]], [[0, c1], [-c1, 0]], [[0, c2], [-c2, 0]])


def test_pfaffian_2x2_is_the_entry():
    P = pencil_2x2(1, 2, 3)
    assert P.pfaffian() == LinearForm(1, 2, 3).as_poly()


def test_pfaffian_4x4_closed_formula(rng):
    # Pf = a12 a34 - a13 a24 + a14 a23 on linear entries, term by term
    P = random_pencil(rng, 4)
    e = {(i, j): P.entry(i, j).as_poly() for i in range(4) for j in range(i + 1, 4)}
    expected = e[(0, 1)] * e[(2, 3)] - e[(0, 2)] * e[(1, 3)] + e[(0, 3)] * e[(1, 2)]
    assert (P.pfaffian() - expected).max_coeff() <= 1e-12 * expected.max_coeff()


def test_pfaffian_sign_convention():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert pfaffian_numeric(A) == pytest.approx(1.0)


def test_pfaffian_matchings_oracle(rng):
    for dim in (4, 6, 8):
        P = random_pencil(rng, dim)
        a = P.pfaffian()
        b = pfaffian_by_matchings(P)
        assert coeff_rel_dev(a, b) <= 1e-10


def test_pfaffian_numeric_matchings_oracle(rng):
    for dim in (2, 4, 6, 8):
        A = random_skew(rng, dim)
        assert pfaffian_numeric(A) == pytest.approx(pfaffian_numeric_by_matchings(A), rel=1e-10)


def test_pfaffian_numeric_rejects_non_skew(rng):
    A = random_skew(rng, 4)
    A[0, 1] += 1e-3
    with pytest.raises(SkewSymmetryViolation):
        pfaffian_numeric(A)
    with pytest.raises(SkewSymmetryViolation):
        pfaffian_numeric(np.zeros((2, 4)))


def test_pfaffian_numeric_zero_pivot():
    # the first column vanishes, so the pfaffian is exactly zero
    A = np.zeros((4, 4), dtype=complex)
    A[1, 2], A[2, 1] = 1.0, -1.0
    assert pfaffian_numeric(A) == 0


def test_pfaffian_library_pencils_expansion_oracle(rng):
    # canonical forms make the constant part far larger than the x1 and x2
    # parts; the symbolic pfaffian must keep its small coefficients anyway
    for d in (5, 6, 7):
        rep = to_canonical(random_pencil(rng, 2 * d))
        blocks = []
        for _ in range(d):
            R = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            blocks.append(R / np.sqrt(np.linalg.det(R)))
        for P in (rep.pencil, to_second_canonical(rep.pencil),
                  decomposable_from(random_detrep(rng, d)),
                  gauge_action(rep.pencil, blocks)):
            assert coeff_rel_dev(P.pfaffian(), pfaffian_by_expansion(P)) <= 1e-10


def test_minors_adjoint_det_expansion_oracle(rng):
    for dim in (2, 4, 6, 8):
        P = random_pencil(rng, dim)
        for i in range(dim):
            for j in range(i + 1, dim):
                assert coeff_rel_dev(pfaffian_minor(P, i, j),
                                     pfaffian_by_expansion(P, (i, j))) <= 1e-10
        # a general point and a curve point, where A(pt) is singular
        curve_pt = sample_curve_points(P.pfaffian(), 1, seed=dim)[0].pt.coords
        for pt in (rng.standard_normal(3) + 1j * rng.standard_normal(3), curve_pt):
            A = P(pt)
            adj = pfaffian_adjoint_at(P, pt)
            for i in range(dim):
                for j in range(i + 1, dim):
                    expected = (-1) ** (i + j) * pfaffian_numeric_by_expansion(A, (i, j))
                    assert abs(adj[i, j] - expected) <= 1e-10 * np.max(np.abs(adj))
                    assert adj[j, i] == -adj[i, j]
        M = random_detrep(rng, dim)
        assert coeff_rel_dev(M.det_poly(), det_by_laplace(M)) <= 1e-10


def test_no_polynomial_products_at_dim_16(rng, monkeypatch):
    # the engine interpolates numeric values; a HomPoly product would mean
    # an expansion whose cost grows exponentially with the dimension
    def refuse(*_):
        raise AssertionError("HomPoly multiplication")
    monkeypatch.setattr(HomPoly, "__mul__", refuse)
    monkeypatch.setattr(HomPoly, "__rmul__", refuse)
    P = random_pencil(rng, 16)
    assert P.pfaffian().degree == 8
    assert pfaffian_minor(P, 3, 11).degree == 7
    assert pfaffian_adjoint_at(P, [1.0, 0.5, -0.25]).shape == (16, 16)
    assert random_detrep(rng, 16).det_poly().degree == 16


def test_pf_squared_equals_det(rng):
    for dim in (4, 6, 8):
        P = random_pencil(rng, dim)
        pf = P.pfaffian()
        for _ in range(20):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            A = P(x)
            assert pf(x) ** 2 == pytest.approx(np.linalg.det(A), rel=1e-7)


def test_minor_of_4x4_is_opposite_entry(rng):
    P = random_pencil(rng, 4)
    m = pfaffian_minor(P, 0, 1)
    assert m == P.entry(2, 3).as_poly()


def test_minor_2x2_is_one():
    P = pencil_2x2(1, 2, 3)
    assert pfaffian_minor(P, 0, 1) == HomPoly.constant(1.0)


def test_minor_index_errors(rng):
    P = random_pencil(rng, 4)
    with pytest.raises(PreconditionError, match="out of range"):
        pfaffian_minor(P, 0, 4)
    with pytest.raises(PreconditionError, match="must differ"):
        pfaffian_minor(P, 2, 2)


def test_jacobi_derivative_expansion(rng):
    # dPf/dx_k = sum_{i<j} (-1)^(i+j+1) a^k_ij Pf^ij, exactly, term by term
    P = random_pencil(rng, 6)
    pf = P.pfaffian()
    for k, Ak in enumerate((P.A0, P.A1, P.A2)):
        acc = HomPoly.zero(pf.degree - 1)
        for i in range(6):
            for j in range(i + 1, 6):
                acc = acc + pfaffian_minor(P, i, j).scaled(Ak[i, j] * (-1) ** (i + j + 1))
        dev = (pf.partial(k) - acc).max_coeff()
        assert dev <= 1e-8 * max(pf.partial(k).max_coeff(), 1.0)


def test_adjoint_2x2():
    P = pencil_2x2(1, 2, 3)
    pt = [1.0, 1.0, 1.0]
    adj = pfaffian_adjoint_at(P, pt)
    assert np.allclose(adj, [[0, -1], [1, 0]])
    assert np.allclose(adj @ P(pt), 6 * np.eye(2))


def test_adjoint_identity_everywhere(rng):
    P = random_pencil(rng, 6)
    pf = P.pfaffian()
    for _ in range(5):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        A = P(x)
        adj = pfaffian_adjoint_at(P, x)
        dev = np.max(np.abs(adj @ A - pf(x) * np.eye(6)))
        assert dev <= 1e-8 * np.max(np.abs(adj)) * np.max(np.abs(A))


def test_adjoint_rank_two_on_curve(rng):
    P = random_pencil(rng, 6)
    pt = sample_curve_points(P.pfaffian(), 1, seed=5)[0].pt
    adj = pfaffian_adjoint_at(P, pt)
    s = np.linalg.svd(adj, compute_uv=False)
    assert s[2] <= 1e-8 * s[0]
    assert s[1] > 1e-3 * s[0]


def test_kernel_at_curve_point(rng):
    P = random_pencil(rng, 6)
    pt = sample_curve_points(P.pfaffian(), 1, seed=9)[0].pt
    kb = kernel_at(P, pt)
    assert kb.residual <= 1e-8
    gram = kb.vectors.conj().T @ kb.vectors
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    # skew pairing of kernel vectors with themselves vanishes identically
    A = P(pt)
    assert abs(kb.v1 @ A @ kb.v1) <= 1e-10 * np.linalg.norm(A, 2)


def test_kernel_off_curve_raises(rng):
    P = random_pencil(rng, 6)
    with pytest.raises(RankDeficiency) as exc:
        kernel_at(P, ProjPoint(1.0, 0.3, -0.2))
    assert exc.value.corank == 0


def test_kernel_decomposable_block_structure(rng):
    M = DetRep(*(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3)))
    P = decomposable_from(M)
    pt = sample_curve_points(P.pfaffian(), 1, seed=4)[0].pt
    kb = kernel_at(P, pt)
    # kernel = span{[w; 0], [0; v]} with w in ker M(pt)^t, v in ker M(pt)
    Mx = M(pt)
    for col in range(2):
        v = kb.vectors[:, col]
        top, bot = v[:3], v[3:]
        assert np.linalg.norm(Mx.T @ top) + np.linalg.norm(Mx @ bot) <= 1e-8


def test_congruence_identity_and_scaling(rng):
    P = random_pencil(rng, 4)
    same = congruence(P, np.eye(4))
    assert np.allclose(same.A1, P.A1)
    doubled = congruence(P, 2.0 * np.eye(4))
    scale = equal_up_to_scale(P.pfaffian(), doubled.pfaffian())
    assert scale == pytest.approx(16.0)


def test_congruence_random_scaling(rng):
    P = random_pencil(rng, 6)
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    scale = equal_up_to_scale(P.pfaffian(), congruence(P, X).pfaffian())
    assert scale == pytest.approx(np.linalg.det(X), rel=1e-7)


def test_congruence_group_action(rng):
    P = random_pencil(rng, 6)
    X = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    left = congruence(congruence(P, X), Y)
    right = congruence(P, Y @ X)
    for a, b in zip((left.A0, left.A1, left.A2), (right.A0, right.A1, right.A2)):
        assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(b)))


def test_congruence_singular_rejected(rng):
    P = random_pencil(rng, 4)
    X = np.zeros((4, 4))
    with pytest.raises(SingularTransform):
        congruence(P, X)


def test_decomposable_1x1():
    M = DetRep([[1.0]], [[2.0]], [[3.0]])
    P = decomposable_from(M)
    assert P.pfaffian() == LinearForm(1, 2, 3).as_poly()


def test_decomposable_pf_vs_det(rng):
    for d in (2, 3, 4):
        M = DetRep(*(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                     for _ in range(3)))
        scale = equal_up_to_scale(M.det_poly(), decomposable_from(M).pfaffian())
        assert scale == pytest.approx((-1.0) ** (d * (d - 1) // 2), rel=1e-9)


def test_wedge_matrix():
    e1, e2 = np.eye(4)[0], np.eye(4)[1]
    W = wedge_to_matrix(e1, e2)
    expected = np.zeros((4, 4))
    expected[0, 1], expected[1, 0] = 1, -1
    assert np.allclose(W, expected)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(wedge_to_matrix(u, u), 0)


def test_wedge_rank(rng):
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    s = np.linalg.svd(wedge_to_matrix(u, v), compute_uv=False)
    assert s[1] > 1e-8 * s[0] and s[2] <= 1e-10 * s[0]
    s2 = np.linalg.svd(wedge_to_matrix(u, 2.5 * u), compute_uv=False)
    assert s2[0] <= 1e-12


def test_det_poly_matches_numeric(rng):
    M = DetRep(*(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                 for _ in range(3)))
    dp = M.det_poly()
    for _ in range(5):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert dp(x) == pytest.approx(np.linalg.det(M(x)), rel=1e-9)


def test_coefficients_are_one_read_only_stack(rng):
    P = random_pencil(rng, 6)
    M = random_detrep(rng, 3)
    for pencil, names in ((P, ("A0", "A1", "A2")), (M, ("M0", "M1", "M2"))):
        C = pencil.coeffs
        n = C.shape[1]
        assert C.shape == (3, n, n) and not C.flags.writeable
        for k, name in enumerate(names):
            assert getattr(pencil, name).base is C
            assert np.array_equal(getattr(pencil, name), C[k])
        with pytest.raises(ValueError):
            C[0, 0, 0] = 1.0


def test_pairing_is_the_bilinear_form_of_the_pencil(rng):
    for pencil in (random_pencil(rng, 6), random_detrep(rng, 3)):
        n = pencil.coeffs.shape[1]
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ell = pencil.pairing(u, v)
        for _ in range(3):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            expected = u @ pencil(x) @ v
            assert ell(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_stack_operations_match_the_matrix_by_matrix_construction(rng):
    # the loop over the three coefficient matrices is the reference, and
    # the arithmetic is the same, so the results agree exactly
    M = random_detrep(rng, 3)
    blocks = []
    for Mk in (M.M0, M.M1, M.M2):
        blk = np.zeros((6, 6), dtype=complex)
        blk[:3, 3:], blk[3:, :3] = Mk, -Mk.T
        blocks.append(blk)
    assert np.array_equal(decomposable_from(M).coeffs, np.stack(blocks))
    P = random_pencil(rng, 8)
    for i, j in ((0, 1), (2, 7), (5, 3)):
        keep = [k for k in range(8) if k not in (i, j)]
        sub = SkewPencil(*(A[np.ix_(keep, keep)] for A in (P.A0, P.A1, P.A2)))
        assert np.array_equal(pfaffian_minor(P, i, j).c, sub.pfaffian().c)
