import numpy as np
import pytest

from pfaffrep import (DetRep, NotInCanonicalForm, NotUnimodular, RepeatedRoots, SkewPencil,
                      SpanFailure, congruence, decomposable_from, equal_up_to_scale,
                      gauge_action, second_canonical_transform, structure_report,
                      to_canonical, to_second_canonical, validate_canonical,
                      validate_second_canonical)
from conftest import random_pencil, random_skew
from test_poly import match_multiset


def canonical_pencil(rng, roots):
    """Build a pencil already in the first canonical form with given roots."""
    d = len(roots)
    I2 = np.array([[0, 1], [-1, 0]], dtype=complex)
    A1 = np.zeros((2 * d, 2 * d), dtype=complex)
    A2 = np.zeros((2 * d, 2 * d), dtype=complex)
    for i, p in enumerate(roots):
        s = slice(2 * i, 2 * i + 2)
        A1[s, s] = I2
        A2[s, s] = np.array([[0, -p], [p, 0]])
    return SkewPencil(random_skew(rng, 2 * d), A1, A2)


def test_already_canonical_is_fixed(rng):
    roots = [0.5, -1.2 + 0.3j, 2.0]
    P = canonical_pencil(rng, roots)
    rep = to_canonical(P)
    assert rep.residual <= 1e-9
    match_multiset(rep.roots, roots, 1e-9)
    # basis change acts within the root blocks only, up to block gauge
    scale = equal_up_to_scale(P.pfaffian(), rep.pencil.pfaffian())
    assert scale == pytest.approx(np.linalg.det(rep.basis_change), rel=1e-8)


def test_canonical_roots_of_theta_pencil(m_theta):
    P = decomposable_from(m_theta)
    rep = to_canonical(P)
    expected = [0, -3, 3 * np.exp(1j * np.pi / 3), 3 * np.exp(-1j * np.pi / 3)]
    match_multiset(rep.roots, expected, 1e-6)
    assert rep.residual <= 1e-7


def test_random_pencil_reduction_self_consistent(rng):
    P = random_pencil(rng, 6)
    rep = to_canonical(P)
    assert rep.residual <= 1e-7
    scale = equal_up_to_scale(P.pfaffian(), rep.pencil.pfaffian())
    assert scale == pytest.approx(np.linalg.det(rep.basis_change), rel=1e-6)
    validate_canonical(rep.pencil)


def test_kernel_pairing_never_degenerate(rng):
    # within each root kernel the A1 pairing is nonzero (block not identically 0)
    P = random_pencil(rng, 6)
    rep = to_canonical(P)
    for i in range(3):
        s = slice(2 * i, 2 * i + 2)
        assert abs(rep.pencil.A1[s, s][0, 1]) > 1e-6


def _hidden(rng, P):
    """``P`` under a random congruence, which hides its block pattern."""
    X = rng.standard_normal((P.dim, P.dim)) + 1j * rng.standard_normal((P.dim, P.dim))
    return congruence(P, X)


def test_curve_tangent_to_x0_is_refused(rng):
    # a double root: the curve touches x0 = 0 at (0, 0.5, 1)
    P = _hidden(rng, canonical_pencil(rng, [0.5, -1.0 + 0.4j, 0.5]))
    with pytest.raises(RepeatedRoots):
        to_canonical(P)


def test_singular_a1_is_refused(rng):
    # Pf(A1) = 0 puts (0, 1, 0) on the curve: one root of x0 = 0 is lost at infinity
    P = canonical_pencil(rng, [0.5, -1.0 + 0.4j, 2.0])
    A1 = P.A1.copy()
    A1[4:, 4:] = 0
    with pytest.raises(SpanFailure):
        to_canonical(_hidden(rng, SkewPencil(P.A0, A1, P.A2)))


@pytest.mark.parametrize("c1, c2", [(1e8, 1.0), (1.0, 1e-8), (1e6, 1e-6)])
def test_small_roots_on_x0_are_told_apart(c1, c2):
    # x1 -> c1 x1, x2 -> c2 x2 scales the roots by c2 / c1, and their separation with them
    P = random_pencil(np.random.default_rng(1), 8)
    roots = np.array(to_canonical(P).roots) * c2 / c1
    rep = to_canonical(SkewPencil(P.A0, c1 * P.A1, c2 * P.A2))
    assert rep.residual <= 1e-12
    match_multiset(rep.roots, roots, 1e-12 * float(np.max(np.abs(roots))))


def test_canonical_basis_depends_on_the_kernel_planes_alone(rng, monkeypatch):
    import pfaffrep.canonical as canonical
    from pfaffrep.incidence import line_points
    P = random_pencil(rng, 8)
    before = to_canonical(P)

    def rotated(*args):
        unitary = [np.linalg.qr(random_skew(rng, 2) + rng.standard_normal((2, 2)))[0]
                   for _ in range(P.half_deg)]
        return [(t, K @ U) for (t, K), U in zip(line_points(*args), unitary)]

    monkeypatch.setattr(canonical, "line_points", rotated)
    after = to_canonical(P)
    for a, b in [(after.basis_change, before.basis_change), (after.pencil.A0, before.pencil.A0)]:
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_canonical_basis_survives_a_change_in_the_last_bits():
    # A1 -> (1 + 2^-50) A1 moves every root in its last bits and keeps every kernel plane
    for seed in range(5):
        P = random_pencil(np.random.default_rng(seed), 8)
        B = to_canonical(P).basis_change
        C = to_canonical(SkewPencil(P.A0, (1 + 2.0 ** -50) * P.A1, P.A2)).basis_change
        assert np.abs(C - B).max() <= 1e-12 * np.abs(B).max()


def test_second_canonical_d1_fixed(rng):
    P = canonical_pencil(rng, [0.7])
    out = to_second_canonical(P)
    ps = validate_second_canonical(out)
    assert ps[0] == pytest.approx(0.7)


def test_second_canonical_block_pattern_d2(rng):
    roots = [1.5, -0.5 + 1.0j]
    P = canonical_pencil(rng, roots)
    out = to_second_canonical(P)
    d = 2
    # apply the printed basis change by hand and compare entry-wise
    Q = second_canonical_transform(d)
    for name, got, src in (("A1", out.A1, P.A1), ("A2", out.A2, P.A2), ("A0", out.A0, P.A0)):
        assert np.allclose(got, Q @ src @ Q.T, atol=1e-12), name
    assert np.allclose(out.A1[:d, d:], np.eye(d))
    assert np.allclose(np.diag(-out.A2[:d, d:]), roots)


def test_second_canonical_pf_scaling(rng):
    # det Q = (-1)^(d(d-1)/2): +1 for d=1,4; -1 for d=2,3
    for roots, expected in (([0.3], 1), ([0.3, -1.1], -1),
                            ([0.3, -1.1, 2.2], -1), ([0.3, -1.1, 2.2, 0.9j], 1)):
        P = canonical_pencil(np.random.default_rng(1), roots)
        out = to_second_canonical(P)
        scale = equal_up_to_scale(P.pfaffian(), out.pfaffian())
        assert scale == pytest.approx(expected, abs=1e-8)
        detq = np.linalg.det(second_canonical_transform(len(roots)))
        assert detq == pytest.approx(expected)


def test_second_canonical_rejects_random_input(rng):
    with pytest.raises(NotInCanonicalForm):
        to_second_canonical(random_pencil(rng, 4))


def test_gauge_identity(rng):
    P = canonical_pencil(rng, [0.5, -1.0])
    out = gauge_action(P, [np.eye(2), np.eye(2)])
    assert np.allclose(out.A0, P.A0)


def test_gauge_rotation_block(rng):
    P = canonical_pencil(rng, [0.5, -1.0])
    rot = np.array([[0, 1], [-1, 0]], dtype=complex)
    out = gauge_action(P, [rot, np.eye(2)])
    assert np.allclose(out.A1, P.A1, atol=1e-12)
    assert np.allclose(out.A2, P.A2, atol=1e-12)
    assert not np.allclose(out.A0, P.A0)


def test_gauge_random_unimodular_preserves_canonical(rng):
    roots = [0.5, -1.0, 2.0 + 0.4j]
    P = canonical_pencil(rng, roots)
    blocks = []
    for _ in range(3):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        blocks.append(g / np.sqrt(np.linalg.det(g)))
    out = gauge_action(P, blocks)
    match_multiset(validate_canonical(out), roots, 1e-8)
    # idempotence of the reduction after gauging
    rep = to_canonical(out)
    assert rep.residual <= 1e-7


def test_gauge_rejects_non_unimodular(rng):
    P = canonical_pencil(rng, [0.5, -1.0])
    with pytest.raises(NotUnimodular):
        gauge_action(P, [2 * np.eye(2), np.eye(2)])


def test_structure_decomposable_and_symmetric(rng):
    d = 4
    Dg = np.diag(rng.standard_normal(d))
    C = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    C = C + C.T
    M = DetRep(C, np.eye(d), -Dg)
    sr = structure_report(decomposable_from(M))
    assert sr.is_decomposable_form and sr.is_symmetric_blocks
    assert sr.free_parameter_count == 6  # 3(g-1) with g = 3 for d = 4


def test_structure_generic_flags_false(rng):
    d = 3
    ps = rng.standard_normal(d)
    A1 = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    A2 = np.block([[np.zeros((d, d)), -np.diag(ps)], [np.diag(ps), np.zeros((d, d))]])
    P = SkewPencil(random_skew(rng, 2 * d), A1, A2)
    sr = structure_report(P)
    assert not sr.is_decomposable_form and not sr.is_symmetric_blocks
    assert sr.free_parameter_count == 0  # d = 3


def test_structure_asymmetric_decomposable(rng):
    d = 4
    Dg = np.diag(rng.standard_normal(d))
    C = rng.standard_normal((d, d))  # not symmetric
    M = DetRep(C, np.eye(d), -Dg)
    sr = structure_report(decomposable_from(M))
    assert sr.is_decomposable_form and not sr.is_symmetric_blocks
