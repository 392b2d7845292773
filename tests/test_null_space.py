"""The one rank rule: ``tolerances.null_space``."""

import numpy as np
import pytest

from pfaffrep.tolerances import null_space


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _with_singular_values(rng, rows, cols, s):
    """A ``rows x cols`` matrix with the given singular values."""
    u, _ = np.linalg.qr(_cnormal(rng, (rows, rows)))
    v, _ = np.linalg.qr(_cnormal(rng, (cols, cols)))
    d = np.zeros((rows, cols))
    d[:len(s), :len(s)] = np.diag(s)
    return u @ d @ v.conj().T


def _check_kernel(M, rows, corank):
    assert rows.shape == (corank, M.shape[1])
    assert np.allclose(rows @ rows.conj().T, np.eye(corank), atol=1e-12)
    assert np.max(np.abs(M @ rows.T), initial=0.0) <= 1e-12 * max(np.abs(M).max(), 1.0)


@pytest.mark.parametrize("corank", [0, 1, 2])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_square_matrix_of_exact_corank(corank, scale):
    rng = np.random.default_rng(corank)
    s = [3.0, 2.0, 1.0, 0.5][:4 - corank] + [0.0] * corank
    M = scale * _with_singular_values(rng, 4, 4, s)
    rows, sv = null_space(M, 1e-8)
    _check_kernel(M, rows, corank)
    assert np.allclose(sv, scale * np.array(s), atol=1e-12 * scale)


def test_tall_and_wide_matrices():
    rng = np.random.default_rng(5)
    tall = _with_singular_values(rng, 8, 3, [2.0, 1.0])  # 2d x 3, rank 2
    rows, sv = null_space(tall, 1e-8)
    assert len(sv) == 3
    _check_kernel(tall, rows, 1)
    wide = _cnormal(rng, (1, 3))
    rows, sv = null_space(wide, 1e-8)
    assert len(sv) == 1
    _check_kernel(wide, rows, 2)


def test_zero_matrix_is_all_kernel():
    rows, sv = null_space(np.zeros((3, 3), dtype=complex), 1e-8)
    assert not sv.any()
    _check_kernel(np.zeros((3, 3)), rows, 3)


def test_threshold_is_relative_to_the_largest_singular_value():
    rng = np.random.default_rng(9)
    # 1e-2 is zero next to 1e7 at tol 1e-8, and not at tol 1e-10
    M = _with_singular_values(rng, 3, 3, [1e7, 1.0, 1e-2])
    assert len(null_space(M, 1e-8)[0]) == 1
    assert len(null_space(M, 1e-10)[0]) == 0
    assert len(null_space(1e-20 * M, 1e-8)[0]) == 1
    # at the threshold itself a singular value counts as zero
    D = np.diag([1.0, 0.25]).astype(complex)
    assert len(null_space(D, 0.25)[0]) == 1
